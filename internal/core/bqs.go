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
// decision loop's (segmenter, with P = Point, over the frame NewCompressor
// picks). A Compressor is not safe for concurrent use.
type Compressor struct {
	segmenter[Point]
}

// NewCompressor returns a Compressor for the given configuration. FBQS under
// the line metric runs on the tangent wedge alone, which has no rotation to
// fix (Config reports RotationWarmup 0), and with Snap on the grid frame;
// the rest run on the quadrants.
func NewCompressor(cfg Config) (*Compressor, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	line := lineFrame{tol: cfg.Tolerance}
	switch {
	case cfg.Snap:
		cfg.RotationWarmup = 0
		step := GridStep(cfg.Tolerance)
		return &Compressor{newSegmenter[Point](cfg, &gridFrame{lineFrame: line, step: step, inv: 1 / step})}, nil
	case cfg.Mode == ModeFast && cfg.Metric == MetricLine:
		cfg.RotationWarmup = 0
		return &Compressor{newSegmenter[Point](cfg, &line)}, nil
	}
	return &Compressor{newSegmenter[Point](cfg, &quadFrame{lineFrame: line})}, nil
}

// Tolerance returns the deviation bound in metres.
func (c *Compressor) Tolerance() float64 { return c.cfg.Tolerance }

// SignificantPointCount returns the number of significant points currently
// held across all quadrant structures: at most 32, the paper's bound (4
// corners + 4 intersections each), and none under FBQS's line metric, whose
// whole state is the tangent wedge's two vectors.
func (c *Compressor) SignificantPointCount() int {
	n := 0
	if f, ok := c.frame.(*quadFrame); ok {
		for i := range f.quads {
			n += len(f.quads[i].significantPoints())
		}
	}
	return n
}

// CompressBatch runs a fresh pass over pts and returns the compressed key
// points. It is a convenience wrapper over Push/Flush that does not disturb
// accumulated statistics semantics (statistics keep accumulating).
func (c *Compressor) CompressBatch(pts []Point) []Point { return c.compressBatch(pts) }

// lineFrame is FBQS's frame under the line metric: the segment start and the
// tangent wedge, which answers exactly whether a path line keeps every
// tracked point within ε — no bounding structure, no rotation, no warm-up.
type lineFrame struct {
	origin Point   // current segment start s (local coordinate origin)
	tol    float64 // the compressor's tolerance ε, the wedge's radius
	wedge  wedge
}

func (f *lineFrame) valid(p Point) bool    { return p.IsFinite() }
func (f *lineFrame) equal(a, b Point) bool { return a.Equal(b) }
func (f *lineFrame) snap(p Point) Point    { return p }

func (f *lineFrame) anchor(p Point) {
	f.origin = p
	f.wedge.reset()
}

func (f *lineFrame) orient([]Point) {} // NewCompressor gives it no warm-up

// far is the wedge's test, r² > ε², before any rotation; an r² that
// overflowed is far whatever ε² did.
func (f *lineFrame) far(p Point, tol float64) bool {
	r2 := p.Vec().Sub(f.origin.Vec()).Norm2()
	return r2 > tol*tol || r2 > math.MaxFloat64
}

func (f *lineFrame) insert(p Point) { f.wedge.insert(p.Vec().Sub(f.origin.Vec()), f.tol) }

// bounds is the wedge's verdict on the path line start → e as a bound pair:
// [0, ε] admitted, (ε, ∞] refused. A line shorter than Eps has no direction,
// and every tracked point is farther than ε from the start: refused.
func (f *lineFrame) bounds(e Point, _ Metric) (dlb, dub float64) {
	le := e.Vec().Sub(f.origin.Vec())
	if f.wedge.lo == (geom.Vec{}) || le.Norm2() >= geom.Eps*geom.Eps && f.wedge.admits(le) {
		return 0, f.tol
	}
	return refused(f.tol)
}

func (f *lineFrame) deviation(pts []Point, e Point, metric Metric) float64 {
	return MaxDeviation(pts, f.origin, e, metric)
}

// GridStep is the step in metres of the grid a Snap compressor at tolerance
// tol puts its key points on: tol/5 in whole steps of the stored lattice —
// 1 cm in the plane, the wire's 1e-7° at trajstore.MetersPerDegree — and one
// step at least, so that a key the snap moves lands a whole number of
// lattice steps from the key before it. Of tol/20, /10, /5 and /2, tol/5 was
// the coarsest that kept every bench workload's compression_rate within
// +0.5 % of unsnapped FBQS's.
func GridStep(tol float64) float64 { return max(math.Round(tol*20), 1) / 100 }

// planeX and planeY bound the plane the wire format stores, in metres:
// ±180° of longitude and ±90° of latitude at trajstore.MetersPerDegree
// (trajstore.InPlane). A snap never leaves it, so a key of fixes the wire
// carries is one the wire carries too.
const planeX, planeY = 180 * 1e5, 90 * 1e5

// gridFrame is FBQS's line frame with its key points on a grid of step
// step anchored at the segment start s, each holding every fix within ε of
// the closed segment it ends, not only of the segment's line (DESIGN.md,
// "The grid"). The segment goes on while some grid point q ≠ s can end it,
// a joint: q within ε of the newest fix, in the plane the wire stores, in
// the wedge with that fix's tangent pair inserted (every tracked fix within
// ε of the line s → q), and under the cap. The cap is r2, the largest
// |p − s|² of a tracked fix: a fix that projects past q lies within
// √(|p|² − |q|²) of q, so r2 ≤ |q|² + ε² holds every such fix within ε of
// q. The wedge's arc lo → hi only narrows, so it keeps the side of the first
// fix tracked; a fix on the far side of lo lies behind s, off the segment,
// and sets r2 to +Inf, which no q passes. Between s and q the line distance
// is the segment distance, and an untracked fix lies within ε of s.
//
// bounds keeps a fix's state only if a joint exists for it, so a cut finds
// the key, the joint of the last fix included, from the state as that fix
// left it; no joint is kept between fixes.
type gridFrame struct {
	lineFrame
	step, inv float64 // the grid's step and its inverse
	r2        float64 // the cap: the largest |p − s|² of a tracked fix, +Inf once one lies behind s
}

func (f *gridFrame) anchor(p Point) {
	f.lineFrame.anchor(p)
	f.r2 = 0
}

// track adds the local fix v to the wedge and the cap if it is far.
func (f *gridFrame) track(v geom.Vec) {
	if n := v.Norm2(); n > f.tol*f.tol || n > math.MaxFloat64 {
		f.wedge.insert(v, f.tol)
		f.r2 = max(f.r2, n)
		if v.Dot(f.wedge.lo) < 0 {
			f.r2 = math.Inf(1)
		}
	}
}

// insert tracks the far fix p if nothing is tracked yet. bounds tracks
// every fix it admits, so only the first far fix of a segment a cut opened,
// which no bounds call has seen, comes here untracked.
func (f *gridFrame) insert(p Point) {
	if f.wedge.lo == (geom.Vec{}) {
		f.track(p.Vec().Sub(f.origin.Vec()))
	}
}

// bounds answers whether the segment goes on to e: [0, ε] when a joint
// exists for e, which keeps e tracked, (ε, ∞] when none does, which leaves
// the state as the last fix included left it. Until a fix is tracked every
// line through s keeps the bound, so nothing is refused; the first fix
// tracked ends its segment itself where no joint exists. The corner of e's
// cell away from s fits most often, so it is asked before the search.
func (f *gridFrame) bounds(e Point, _ Metric) (dlb, dub float64) {
	v := e.Vec().Sub(f.origin.Vec())
	if f.wedge.lo == (geom.Vec{}) {
		f.track(v)
		return 0, f.tol
	}
	w, r2, tol2 := f.wedge, f.r2, f.tol*f.tol
	if a, b := w.lo.Cross(v), w.hi.Cross(v); a*a > tol2 && b*b > tol2 && v.Norm2() > tol2 && !w.admits(v) {
		return refused(f.tol) // e's cone misses the arc: a turn, as on a street grid
	}
	f.track(v)
	if q := (geom.Vec{X: away(v.X*f.inv) * f.step, Y: away(v.Y*f.inv) * f.step}); !f.fits(q, v) {
		if _, ok := f.search(v); !ok {
			f.wedge, f.r2 = w, r2
			return refused(f.tol)
		}
	}
	return 0, f.tol
}

// snap returns the key for a cut or flush at the last included fix p: its
// joint, at its time, else p. With nothing tracked a fix at the start's time
// keys to the start, which a flush does not emit twice — the start itself
// after one fix, or a repeat of the fix the start replaced, pushed again
// after a re-arm.
func (f *gridFrame) snap(p Point) Point {
	if f.wedge.lo == (geom.Vec{}) && p.T == f.origin.T {
		return f.origin
	}
	if q, ok := f.search(p.Vec().Sub(f.origin.Vec())); ok {
		return Point{X: q.X, Y: q.Y, T: p.T}
	}
	return p
}

// search returns the joint for the local fix v and whether there is one:
// the first candidate grid point that fits. The candidates are the grid
// point nearest v (ties to even), the corner of v's cell away from s, then
// the corners of the cells holding v's feet on the arc's middle direction
// and its two ends, each foot moved out to the cap's radius √(r2 − ε²) where
// it falls short of it: a fix that stops just short of the farthest one has
// no other grid point near it under the cap. The first two decide most
// searches (DESIGN.md, "The grid").
func (f *gridFrame) search(v geom.Vec) (geom.Vec, bool) {
	lo, hi := f.wedge.lo, f.wedge.hi
	open, mid, need := lo == (geom.Vec{}), lo.Add(hi), f.r2-f.tol*f.tol
	if need > math.MaxFloat64 || !open && !(mid.Norm2() > 0) {
		return geom.Vec{}, false // a fix behind s, or a wedge that admits nothing
	}
	x, y := v.X*f.inv, v.Y*f.inv
	var i, j, fi, fj float64
	for k := 0; k < 14; k++ {
		switch {
		case k == 0:
			// RoundToEven is one instruction, where math.Round is a dozen.
			i, j = math.RoundToEven(x), math.RoundToEven(y)
		case k == 1:
			i, j = away(x), away(y)
		case open:
			return geom.Vec{}, false // ε or the plane refused both
		default:
			// Corner c&3 of the cell holding foot c>>2: d·t/|d|² for t = v·d,
			// or d·√need/|d| where that is farther.
			c := k - 2
			if c&3 == 0 {
				d := [3]geom.Vec{mid, lo, hi}[c>>2]
				dn, t := d.Norm2(), v.Dot(d)
				if t < 0 || t*t < need*dn {
					t = math.Sqrt(need * dn)
				}
				t *= f.inv / dn
				fi, fj = math.Floor(d.X*t), math.Floor(d.Y*t)
			}
			i, j = fi+float64(c&1), fj+float64(c>>1&1)
		}
		if q := (geom.Vec{X: i * f.step, Y: j * f.step}); f.fits(q, v) {
			return f.origin.Vec().Add(q), true
		}
	}
	return geom.Vec{}, false
}

// fits reports whether the local grid point q is a joint for the local fix
// v: not s, within ε of v, under the cap, in the arc on the first tracked
// fix's side (lo + hi rules out −lo once the arc has closed to a direction)
// or anywhere while nothing is tracked, and in the stored plane.
func (f *gridFrame) fits(q, v geom.Vec) bool {
	lo, hi, tol2, p := f.wedge.lo, f.wedge.hi, f.tol*f.tol, f.origin.Vec().Add(q)
	return q.Sub(v).Norm2() <= tol2 && q.Norm2() >= f.r2-tol2 && q != (geom.Vec{}) &&
		(lo == (geom.Vec{}) || lo.Cross(q) >= 0 && q.Cross(hi) >= 0 && q.Dot(lo.Add(hi)) > 0) &&
		math.Abs(p.X) <= planeX && math.Abs(p.Y) <= planeY
}

// refused is a frame's bounds where the segment cannot go on: (ε, ∞], the
// lower bound the float after ε by its bits (ε is positive and finite), as
// math.Nextafter is a call every cut.
func refused(tol float64) (dlb, dub float64) {
	return math.Float64frombits(math.Float64bits(tol) + 1), math.Inf(1)
}

// away is the end of x's unit cell away from 0: a fix's cell corner away
// from the segment start, in steps, is never the start.
func away(x float64) float64 { return math.Copysign(math.Floor(math.Abs(x))+1, x) }

// quadFrame is the 2-D frame of BQS and of FBQS's segment metric: four
// quadrants around the segment start, rotated towards the warmup centroid,
// beside the line frame's tangent wedge over the same tracked points.
type quadFrame struct {
	lineFrame
	rot            float64 // data-centric rotation angle φ
	rotSin, rotCos float64 // cached Sincos(-rot)
	quads          [4]quadrant
}

func (f *quadFrame) anchor(p Point) {
	f.lineFrame.anchor(p)
	f.rot, f.rotSin, f.rotCos = 0, 0, 1
	for i := range f.quads {
		f.quads[i].reset(i)
	}
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
