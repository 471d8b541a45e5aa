package core

import (
	"errors"
	"fmt"
	"math"
)

// This file implements the N-dimensional generalization the paper's
// conclusion poses as future work ("Exploring the potential of a 4-D BQS
// could be another interesting extension"). The construction follows the
// same recipe as the 2-D quadrants and 3-D octants: split the local space
// around the segment start into orthants, maintain a minimal bounding box
// per orthant, and derive deviation bounds from it.
//
// In k dimensions the angular bounding machinery does not generalize
// cheaply, so this variant uses the two parts that do:
//
//   - upper bound: the maximum deviation over the box's 2^k corners — the
//     box contains every tracked point and the deviation is convex, so the
//     corner maximum is a valid (Theorem 5.2-style) bound;
//   - lower bound: the maximum deviation over the 2k witness data points
//     that attain the box extremes — witnesses are real data points, so
//     any of their deviations floors the true maximum.
//
// The per-point cost is O(2^k) with k fixed and small (the intended use is
// k = 4: <x, y, z, scaled time>), preserving the constant-time/space story.

// PointN is a trajectory sample in k spatial dimensions plus a timestamp.
// All points fed to one CompressorN must share the same dimension.
type PointN struct {
	C []float64 // coordinates, len == k
	T float64
}

// Clone returns a deep copy of p.
func (p PointN) Clone() PointN {
	c := make([]float64, len(p.C))
	copy(c, p.C)
	return PointN{C: c, T: p.T}
}

// Equal reports whether two samples coincide in space and time.
func (p PointN) Equal(o PointN) bool {
	if p.T != o.T || len(p.C) != len(o.C) {
		return false
	}
	for i := range p.C {
		if p.C[i] != o.C[i] {
			return false
		}
	}
	return true
}

// distToLineN returns the distance from p to the line through a and b in
// R^k (distance to a when the line is degenerate).
func distToLineN(p, a, b []float64) float64 {
	k := len(p)
	var dir2, dot, diff2 float64
	for i := 0; i < k; i++ {
		d := b[i] - a[i]
		w := p[i] - a[i]
		dir2 += d * d
		dot += d * w
		diff2 += w * w
	}
	if dir2 < 1e-18 {
		return math.Sqrt(diff2)
	}
	perp2 := diff2 - dot*dot/dir2
	if perp2 < 0 {
		return 0
	}
	return math.Sqrt(perp2)
}

// distToSegmentN returns the distance from p to the closed segment [a, b].
func distToSegmentN(p, a, b []float64) float64 {
	k := len(p)
	var dir2, dot float64
	for i := 0; i < k; i++ {
		d := b[i] - a[i]
		dir2 += d * d
		dot += d * (p[i] - a[i])
	}
	t := 0.0
	if dir2 > 1e-18 {
		t = dot / dir2
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	var sum float64
	for i := 0; i < k; i++ {
		q := a[i] + t*(b[i]-a[i])
		w := p[i] - q
		sum += w * w
	}
	return math.Sqrt(sum)
}

// MaxDeviationN returns the maximum deviation of pts from the path between
// s and e under the metric.
func MaxDeviationN(pts []PointN, s, e PointN, metric Metric) float64 {
	if metric == MetricSegment {
		return maxOver(pts, func(p PointN) float64 { return distToSegmentN(p.C, s.C, e.C) })
	}
	return maxOver(pts, func(p PointN) float64 { return distToLineN(p.C, s.C, e.C) })
}

// orthantN is the bounding structure for one orthant of the local space.
type orthantN struct {
	n        int
	min, max []float64
	// witnesses[2i] attains min in dimension i; witnesses[2i+1] the max.
	witnesses [][]float64
}

func newOrthantN(k int) *orthantN {
	o := &orthantN{min: make([]float64, k), max: make([]float64, k)}
	for i := 0; i < k; i++ {
		o.min[i] = math.Inf(1)
		o.max[i] = math.Inf(-1)
	}
	o.witnesses = make([][]float64, 2*k)
	return o
}

func (o *orthantN) insert(p []float64) {
	for i, v := range p {
		if v < o.min[i] {
			o.min[i] = v
			o.witnesses[2*i] = p
		}
		if v > o.max[i] {
			o.max[i] = v
			o.witnesses[2*i+1] = p
		}
	}
	o.n++
}

// bounds computes the orthant's deviation bounds for the local path line
// origin→le.
func (o *orthantN) bounds(le []float64, metric Metric, origin []float64) (dlb, dub float64) {
	if o.n == 0 {
		return 0, 0
	}
	k := len(o.min)
	distLB := func(p []float64) float64 { return distToLineN(p, origin, le) }
	distUB := distLB
	if metric == MetricSegment {
		distUB = func(p []float64) float64 { return distToSegmentN(p, origin, le) }
	}
	for _, w := range o.witnesses {
		if w == nil {
			continue
		}
		if d := distLB(w); d > dlb {
			dlb = d
		}
	}
	// Enumerate the 2^k corners.
	corner := make([]float64, k)
	for mask := 0; mask < 1<<k; mask++ {
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				corner[i] = o.max[i]
			} else {
				corner[i] = o.min[i]
			}
		}
		if d := distUB(corner); d > dub {
			dub = d
		}
	}
	if metric == MetricLine && dub < dlb {
		dub = dlb
	}
	return dlb, dub
}

// CompressorN is the k-dimensional streaming compressor. Its interface
// mirrors Compressor. The data-centric rotation generalizes as a second,
// movement-aligned bounding box: an orthonormal basis is anchored to the
// segment's first far point, and the upper bound takes the tighter of the
// axis-aligned and movement-aligned corner bounds (both valid by
// convexity). Without it, diagonal motion would inflate the axis-aligned
// box's corners and cripple the fast variant.
//
// Flush, Reset, Stats, Config and BufferedPoints are the shared decision
// loop's (segmenter, with P = PointN). Not safe for concurrent use.
type CompressorN struct {
	segmenter[PointN]
}

// MaxDimensions caps the supported dimensionality: the corner enumeration
// is O(2^k) per decision.
const MaxDimensions = 8

// NewCompressorN returns a k-dimensional compressor. RotationWarmup is
// ignored: the aligned basis needs no warmup buffer.
func NewCompressorN(cfg Config, dim int) (*CompressorN, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if dim < 1 || dim > MaxDimensions {
		return nil, fmt.Errorf("core: dimension %d outside [1, %d]", dim, MaxDimensions)
	}
	cfg.RotationWarmup = 0
	f := &orthFrame{dim: dim, zero: make([]float64, dim), le: make([]float64, dim)}
	return &CompressorN{newSegmenter[PointN](cfg, f)}, nil
}

// ErrDimensionMismatch reports a pushed point with the wrong number of
// coordinates.
var ErrDimensionMismatch = errors.New("core: point dimension does not match the compressor")

// Dim returns the compressor's spatial dimensionality.
func (c *CompressorN) Dim() int { return c.frame.(*orthFrame).dim }

// orthFrame is the k-D frame: one bounding box per occupied orthant around
// the segment start, plus the movement-aligned box.
type orthFrame struct {
	dim    int
	origin PointN
	zero   []float64 // the local origin, for orthantN.bounds
	le     []float64 // scratch: the local end point of the current decision

	orthants map[uint32]*orthantN

	basis   [][]float64 // orthonormal rows; nil until the first far point
	aligned *orthantN   // box over basis coordinates (UB only)
}

func (f *orthFrame) valid(p PointN) bool {
	for _, v := range p.C {
		if !finite(v) {
			return false
		}
	}
	return finite(p.T)
}

func (f *orthFrame) equal(a, b PointN) bool { return a.Equal(b) }
func (f *orthFrame) snap(p PointN) PointN   { return p }

// anchor copies p: the segment start is also an emitted key point, which
// the caller owns.
func (f *orthFrame) anchor(p PointN) {
	f.origin = p.Clone()
	f.orthants = make(map[uint32]*orthantN, 4)
	f.basis = nil
	f.aligned = nil
}

func (f *orthFrame) orient([]PointN) {}

// buildBasis constructs an orthonormal basis whose first vector points
// along dir, completing it with Gram-Schmidt over the standard axes.
func buildBasis(dir []float64) [][]float64 {
	k := len(dir)
	basis := make([][]float64, 0, k)
	u0 := make([]float64, k)
	var norm float64
	for _, v := range dir {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm < 1e-12 {
		return nil
	}
	for i, v := range dir {
		u0[i] = v / norm
	}
	basis = append(basis, u0)
	for axis := 0; axis < k && len(basis) < k; axis++ {
		v := make([]float64, k)
		v[axis] = 1
		for _, b := range basis {
			var dot float64
			for i := range v {
				dot += v[i] * b[i]
			}
			for i := range v {
				v[i] -= dot * b[i]
			}
		}
		var n float64
		for _, x := range v {
			n += x * x
		}
		n = math.Sqrt(n)
		if n < 1e-9 {
			continue // axis (nearly) parallel to an existing basis vector
		}
		for i := range v {
			v[i] /= n
		}
		basis = append(basis, v)
	}
	if len(basis) != k {
		return nil
	}
	return basis
}

// toBasis expresses v in the aligned basis.
func (f *orthFrame) toBasis(v []float64) []float64 {
	out := make([]float64, f.dim)
	for i, b := range f.basis {
		var dot float64
		for j := range v {
			dot += v[j] * b[j]
		}
		out[i] = dot
	}
	return out
}

// local maps p into the segment frame (translation only), into out.
func (f *orthFrame) local(p PointN, out []float64) []float64 {
	for i := range out {
		out[i] = p.C[i] - f.origin.C[i]
	}
	return out
}

func orthantIndexN(v []float64) uint32 {
	var idx uint32
	for i, x := range v {
		if x < 0 {
			idx |= 1 << i
		}
	}
	return idx
}

// far: Theorem 5.1 holds in any dimension.
func (f *orthFrame) far(p PointN, tol float64) bool {
	var norm2 float64
	for _, v := range f.local(p, f.le) {
		norm2 += v * v
	}
	return math.Sqrt(norm2) > tol
}

func (f *orthFrame) insert(p PointN) {
	le := f.local(p, make([]float64, f.dim)) // kept: the boxes hold it as a witness
	idx := orthantIndexN(le)
	o := f.orthants[idx]
	if o == nil {
		o = newOrthantN(f.dim)
		f.orthants[idx] = o
	}
	o.insert(le)
	if f.basis == nil {
		f.basis = buildBasis(le)
		if f.basis != nil {
			f.aligned = newOrthantN(f.dim)
		}
	}
	if f.aligned != nil {
		f.aligned.insert(f.toBasis(le))
	}
}

func (f *orthFrame) bounds(e PointN, metric Metric) (dlb, dub float64) {
	le := f.local(e, f.le)
	for _, o := range f.orthants {
		olb, oub := o.bounds(le, metric, f.zero)
		dlb = math.Max(dlb, olb)
		dub = math.Max(dub, oub)
	}
	if f.aligned != nil && f.aligned.n > 0 {
		// The movement-aligned box yields an independent valid upper bound
		// (distances are invariant under the orthonormal change of basis);
		// keep the tighter one.
		_, alignedUB := f.aligned.bounds(f.toBasis(le), metric, f.zero)
		dub = math.Min(dub, alignedUB)
		if dub < dlb {
			dub = dlb // both bounds are valid; keep the pair consistent
		}
	}
	return dlb, dub
}

func (f *orthFrame) deviation(pts []PointN, e PointN, metric Metric) float64 {
	return MaxDeviationN(pts, f.origin, e, metric)
}

// Push feeds the next point; it returns a finalized key point when one is
// emitted. Points of the wrong dimension yield an error. The point is
// copied, so the caller may reuse p.C.
func (c *CompressorN) Push(p PointN) (PointN, bool, error) {
	if len(p.C) != c.Dim() {
		return PointN{}, false, ErrDimensionMismatch
	}
	kp, ok := c.segmenter.Push(p.Clone())
	return kp, ok, nil
}

// CompressBatchN runs a fresh pass over pts and returns the compressed key
// points. Points with mismatched dimensions yield an error.
func (c *CompressorN) CompressBatchN(pts []PointN) ([]PointN, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	out := make([]PointN, 0, 16)
	for _, p := range pts {
		kp, ok, err := c.Push(p)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, kp)
		}
	}
	if kp, ok := c.Flush(); ok {
		out = append(out, kp)
	}
	return out, nil
}
