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
// fix (Config reports RotationWarmup 0); the rest run on the quadrants.
func NewCompressor(cfg Config) (*Compressor, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	line := lineFrame{tol: cfg.Tolerance}
	if cfg.Mode == ModeFast && cfg.Metric == MetricLine {
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
	return math.Nextafter(f.tol, math.Inf(1)), math.Inf(1)
}

func (f *lineFrame) deviation(pts []Point, e Point, metric Metric) float64 {
	return MaxDeviation(pts, f.origin, e, metric)
}

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
