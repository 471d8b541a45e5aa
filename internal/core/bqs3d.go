package core

import (
	"math"

	"github.com/trajcomp/bqs/internal/geom"
)

// Point3 is a trajectory sample in 3-space. Z carries altitude in metres
// for 3-D tracking, or scaled time for the time-sensitive error metric
// (Section V-G describes both uses).
type Point3 struct {
	X, Y, Z float64
	T       float64
}

// Vec3 returns the spatial components of p.
func (p Point3) Vec3() geom.Vec3 { return geom.V3(p.X, p.Y, p.Z) }

// Equal reports whether two samples coincide in space and time.
func (p Point3) Equal(o Point3) bool {
	return p.X == o.X && p.Y == o.Y && p.Z == o.Z && p.T == o.T
}

// MaxDeviation3 returns the maximum 3-D deviation of pts from the path
// between s and e under the given metric.
func MaxDeviation3(pts []Point3, s, e Point3, metric Metric) float64 {
	if metric == MetricSegment {
		return maxOver(pts, func(p Point3) float64 { return geom.DistToSegment3(p.Vec3(), s.Vec3(), e.Vec3()) })
	}
	return maxOver(pts, func(p Point3) float64 { return geom.DistToLine3(p.Vec3(), s.Vec3(), e.Vec3()) })
}

// Compressor3 is the 3-D BQS/FBQS streaming compressor (Section V-G). Its
// interface mirrors Compressor: Push points in temporal order, collect the
// emitted key points, Flush at the end of the trajectory.
//
// The data-centric rotation generalizes to an azimuthal rotation about the
// z axis towards the warmup centroid, which keeps the same
// bound-tightening effect for predominantly planar movement.
//
// Push, Flush, Reset, Stats, Config and BufferedPoints are the shared
// decision loop's (segmenter, with P = Point3); Config.Trace is honoured as
// in 2-D. A Compressor3 is not safe for concurrent use.
type Compressor3 struct {
	segmenter[Point3]
}

// NewCompressor3 returns a 3-D compressor for the given configuration.
func NewCompressor3(cfg Config) (*Compressor3, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Compressor3{newSegmenter[Point3](cfg, &octFrame{})}, nil
}

// CompressBatch3 runs a fresh pass over pts and returns the compressed key
// points.
func (c *Compressor3) CompressBatch3(pts []Point3) []Point3 { return c.compressBatch(pts) }

// octFrame is the 3-D frame: eight octants around the segment start,
// rotated about the z axis towards the warmup centroid.
type octFrame struct {
	origin Point3
	rot    float64
	octs   [8]octant
}

func (f *octFrame) valid(p Point3) bool    { return p.Vec3().IsFinite() && finite(p.T) }
func (f *octFrame) equal(a, b Point3) bool { return a.Equal(b) }
func (f *octFrame) snap(p Point3) Point3   { return p }

func (f *octFrame) anchor(p Point3) {
	f.origin = p
	f.rot = 0
	for i := range f.octs {
		f.octs[i].reset(i)
	}
}

func (f *octFrame) orient(warmup []Point3) {
	var centroid geom.Vec
	for _, w := range warmup {
		centroid = centroid.Add(w.Vec3().Sub(f.origin.Vec3()).XY())
	}
	centroid = centroid.Scale(1 / float64(len(warmup)))
	if centroid.Norm() > geom.Eps {
		f.rot = centroid.Angle()
	}
	for _, w := range warmup {
		f.insert(w)
	}
}

// local maps a raw point into the segment frame (translated, azimuthally
// rotated).
func (f *octFrame) local(p Point3) geom.Vec3 {
	v := p.Vec3().Sub(f.origin.Vec3())
	if f.rot != 0 {
		xy := v.XY().Rotate(-f.rot)
		v = geom.V3(xy.X, xy.Y, v.Z)
	}
	return v
}

// far: Theorem 5.1 carries over to 3-D verbatim.
func (f *octFrame) far(p Point3, tol float64) bool {
	return p.Vec3().Sub(f.origin.Vec3()).Norm() > tol
}

func (f *octFrame) insert(p Point3) {
	lp := f.local(p)
	f.octs[octantOf(lp)].insert(lp)
}

func (f *octFrame) bounds(e Point3, metric Metric) (dlb, dub float64) {
	le := f.local(e)
	for i := range f.octs {
		o := &f.octs[i]
		if o.n == 0 {
			continue
		}
		olb, oub := o.bounds(le, metric)
		dlb = math.Max(dlb, olb)
		dub = math.Max(dub, oub)
	}
	return dlb, dub
}

func (f *octFrame) deviation(pts []Point3, e Point3, metric Metric) float64 {
	return MaxDeviation3(pts, f.origin, e, metric)
}

// TimeSensitive wraps a Compressor3 to compress 2-D points under the
// time-sensitive error metric of Section V-G: the z axis carries elapsed
// time scaled by gamma (metres per second), so the deviation accounts for
// when the object was where, not just where it went.
type TimeSensitive struct {
	inner *Compressor3
	gamma float64
	t0    float64
	open  bool
}

// NewTimeSensitive returns a time-sensitive compressor. gamma converts
// seconds of temporal error into metres of spatial error; it must be
// positive and finite.
func NewTimeSensitive(cfg Config, gamma float64) (*TimeSensitive, error) {
	if math.IsNaN(gamma) || math.IsInf(gamma, 0) || gamma <= 0 {
		return nil, errInvalidGamma
	}
	inner, err := NewCompressor3(cfg)
	if err != nil {
		return nil, err
	}
	return &TimeSensitive{inner: inner, gamma: gamma}, nil
}

var errInvalidGamma = errValue("core: gamma must be a positive finite m/s scale")

type errValue string

func (e errValue) Error() string { return string(e) }

// Push feeds the next 2-D point. Time is measured from the trajectory's
// first finite point: latching a NaN/Inf timestamp would turn every later
// z into NaN and drop the whole trajectory.
func (ts *TimeSensitive) Push(p Point) (Point, bool) {
	if !ts.open && p.IsFinite() {
		ts.t0 = p.T
		ts.open = true
	}
	kp3, ok := ts.inner.Push(ts.lift(p))
	return ts.lower(kp3), ok
}

// Flush terminates the trajectory.
func (ts *TimeSensitive) Flush() (Point, bool) {
	kp3, ok := ts.inner.Flush()
	ts.open = false
	return ts.lower(kp3), ok
}

// Reset clears all state and statistics.
func (ts *TimeSensitive) Reset() {
	ts.inner.Reset()
	ts.open = false
}

// Stats returns the accumulated statistics.
func (ts *TimeSensitive) Stats() Stats { return ts.inner.Stats() }

func (ts *TimeSensitive) lift(p Point) Point3 {
	return Point3{X: p.X, Y: p.Y, Z: (p.T - ts.t0) * ts.gamma, T: p.T}
}

func (ts *TimeSensitive) lower(p Point3) Point {
	return Point{X: p.X, Y: p.Y, T: p.T}
}
