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
// (≤ 4 corners + 4 intersections per quadrant); with the slope fan's 22
// scalars they are a segment's whole state, whatever its length.
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
// rotated towards the warmup centroid, and the slope fan over the same
// tracked points.
type quadFrame struct {
	origin         Point   // current segment start s (local coordinate origin)
	rot            float64 // data-centric rotation angle φ
	rotSin, rotCos float64 // cached Sincos(-rot)
	tol            float64 // the compressor's tolerance, see fanBound
	quads          [4]quadrant
	fan            slopeFan
}

func (f *quadFrame) valid(p Point) bool    { return p.IsFinite() }
func (f *quadFrame) equal(a, b Point) bool { return a.Equal(b) }

func (f *quadFrame) anchor(p Point) {
	f.origin = p
	f.rot, f.rotSin, f.rotCos = 0, 0, 1
	for i := range f.quads {
		f.quads[i].reset(i)
	}
	f.fan = slopeFan{}
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

func (f *quadFrame) far(p Point, tol float64) bool {
	return p.Vec().Sub(f.origin.Vec()).Norm() > tol
}

func (f *quadFrame) insert(p Point) {
	lv := f.local(p)
	f.quads[quadrantOf(lv)].insert(lv)
	f.fan.insert(lv)
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
	return dlb, f.fanBound(le, norm, metric, dlb, dub)
}

// fanBound returns the smaller of the quadrants' upper bound and the slope
// fan's. The fan is asked only where it can change the decision — the
// quadrants' bounds straddle the tolerance — and only where its bound is one:
// under the line metric (a segment distance can exceed the line distance it
// bounds) and for a path line long enough to have a direction. A NaN from it
// compares false: the paper's bound stands.
func (f *quadFrame) fanBound(le geom.Vec, norm float64, metric Metric, dlb, dub float64) float64 {
	if metric == MetricLine && dlb <= f.tol && f.tol < dub && norm >= geom.Eps {
		if fub := f.fan.upper(le, 1/norm); fub < dub {
			return fub
		}
	}
	return dub
}

func (f *quadFrame) deviation(pts []Point, e Point, metric Metric) float64 {
	return MaxDeviation(pts, f.origin, e, metric)
}
