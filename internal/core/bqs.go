package core

import (
	"math"

	"github.com/trajcomp/bqs/internal/geom"
)

// Compressor is the streaming BQS/FBQS trajectory compressor. Feed points
// in temporal order with Push; each Push returns at most one finalized key
// point. Flush terminates the trajectory, emitting the final key point, and
// leaves the compressor ready for a new trajectory (statistics accumulate
// across trajectories; use Reset to clear everything).
//
// The emitted key points, in order, form the compressed trajectory: the
// first pushed point, every segment cut, and the flush point. Consecutive
// key points delimit segments that satisfy the configured deviation bound.
//
// Push, Flush, Reset, Stats, Config and BufferedPoints are the shared
// decision loop's (segmenter, with P = Point). A Compressor is not safe for
// concurrent use.
type Compressor struct {
	segmenter[Point, *quadFrame]
}

// NewCompressor returns a Compressor for the given configuration.
func NewCompressor(cfg Config) (*Compressor, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Compressor{newSegmenter[Point](cfg, &quadFrame{tol: cfg.Tolerance})}, nil
}

// Tolerance returns the deviation bound in metres.
func (c *Compressor) Tolerance() float64 { return c.cfg.Tolerance }

// SignificantPointCount returns the number of significant points currently
// held across all quadrant structures; the paper bounds this by 32
// (≤ 4 corners + 4 intersections per quadrant); with the tangent wedge's two
// vectors they are a segment's whole state, whatever its length.
func (c *Compressor) SignificantPointCount() int {
	n := 0
	for i := range c.frame.quads {
		n += len(c.frame.quads[i].significantPoints())
	}
	return n
}

// CompressBatch runs a fresh pass over pts and returns the compressed key
// points. It is a convenience wrapper over Push/Flush that does not disturb
// accumulated statistics semantics (statistics keep accumulating).
func (c *Compressor) CompressBatch(pts []Point) []Point { return c.compressBatch(pts) }

// quadFrame is the 2-D frame: four quadrants around the segment start,
// rotated towards the warmup centroid, and the tangent wedge over the same
// tracked points.
type quadFrame struct {
	origin         Point   // current segment start s (local coordinate origin)
	rot            float64 // data-centric rotation angle φ
	rotSin, rotCos float64 // cached Sincos(-rot)
	tol            float64 // the compressor's tolerance ε, the wedge's radius
	quads          [4]quadrant
	wedge          wedge
}

func (f *quadFrame) valid(p Point) bool    { return p.IsFinite() }
func (f *quadFrame) equal(a, b Point) bool { return a.Equal(b) }

func (f *quadFrame) anchor(p Point) {
	f.origin = p
	f.rot, f.rotSin, f.rotCos = 0, 0, 1
	for i := range f.quads {
		f.quads[i].reset(i)
	}
	f.wedge.reset()
}

// orient fixes the rotation from the centroid of the warmup points
// (Section V-D) and replays them into the quadrant structures.
func (f *quadFrame) orient(warmup []Point) {
	var centroid geom.Vec
	for _, w := range warmup {
		centroid = centroid.Add(w.Vec().Sub(f.origin.Vec()))
	}
	centroid = centroid.Scale(1 / float64(len(warmup)))
	if centroid.Norm() > geom.Eps {
		f.rot = centroid.Angle()
		f.rotSin, f.rotCos = math.Sincos(-f.rot)
	}
	for _, w := range warmup {
		f.insert(w)
	}
}

// local maps a raw point into the segment's local (translated, rotated)
// frame. The rotation's sin/cos are cached when the rotation is fixed.
func (f *quadFrame) local(p Point) geom.Vec {
	x := p.X - f.origin.X
	y := p.Y - f.origin.Y
	if f.rot != 0 {
		x, y = x*f.rotCos-y*f.rotSin, x*f.rotSin+y*f.rotCos
	}
	return geom.Vec{X: x, Y: y}
}

// far is the wedge's test, r² > ε², before the rotation; an r² that
// overflowed is far whatever ε² did.
func (f *quadFrame) far(p Point, tol float64) bool {
	r2 := p.Vec().Sub(f.origin.Vec()).Norm2()
	return r2 > tol*tol || r2 > math.MaxFloat64
}

func (f *quadFrame) insert(p Point) {
	lv := f.local(p)
	f.quads[quadrantOf(lv)].insert(lv)
	f.wedge.insert(lv, f.tol)
}

func (f *quadFrame) bounds(e Point, metric Metric) (dlb, dub float64) {
	le := f.local(e)
	norm := math.Hypot(le.X, le.Y)
	inv := 1 / norm
	for i := range f.quads {
		q := &f.quads[i]
		if q.n == 0 {
			continue
		}
		qlb, qub := q.bounds(le, norm, inv, metric)
		dlb = max(dlb, qlb)
		dub = max(dub, qub)
	}
	return dlb, f.wedgeBound(le, norm, metric, dlb, dub)
}

// wedgeBound lowers the quadrants' upper bound to ε where the tangent wedge
// admits the path line. The wedge is asked only where it can change the
// decision — the quadrants' bounds straddle the tolerance — and only where
// it is a bound: under the line metric (a segment distance can exceed the
// line distance) and for a path line long enough to have a direction.
func (f *quadFrame) wedgeBound(le geom.Vec, norm float64, metric Metric, dlb, dub float64) float64 {
	if metric == MetricLine && dlb <= f.tol && f.tol < dub && norm >= geom.Eps && f.wedge.admits(le) {
		return f.tol
	}
	return dub
}

func (f *quadFrame) deviation(pts []Point, e Point, metric Metric) float64 {
	return MaxDeviation(pts, f.origin, e, metric)
}
