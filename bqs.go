// Package bqs implements the Bounded Quadrant System (BQS), the online
// error-bounded trajectory compression algorithm of Liu, Zhao, Sommer,
// Shang, Kusy and Jurdak, "Bounded Quadrant System: Error-bounded
// Trajectory Compression on the Go" (ICDE 2015), together with everything
// needed to use and evaluate it: the constant-time/constant-space fast
// variant (FBQS), the 3-D and time-sensitive generalizations, the
// comparison baselines from the paper (Douglas-Peucker, Buffered DP,
// Buffered Greedy Deviation, Dead Reckoning, SQUISH-E), WGS-84/UTM
// projection, trajectory reconstruction, an on-device trajectory store
// with error-bounded merging and ageing, workload generators, and a
// tracker storage/energy model.
//
// # Quick start
//
//	c, err := bqs.NewBQS(10) // 10 m deviation bound
//	if err != nil { ... }
//	for _, p := range points {
//	    if kp, ok := c.Push(p); ok {
//	        emit(kp) // finalized key point
//	    }
//	}
//	if kp, ok := c.Flush(); ok {
//	    emit(kp)
//	}
//
// Every original point is guaranteed to lie within the tolerance of the
// compressed segment it belongs to. Use NewFBQS for the O(1)-per-point
// variant suited to microcontroller-class hardware.
package bqs

import (
	"github.com/trajcomp/bqs/internal/core"
)

// Point is a trajectory sample in a projected metric plane: X/Y in metres
// (e.g. UTM easting/northing — see Projector) and T in seconds.
type Point = core.Point

// Point3 is a 3-D trajectory sample for the altitude-aware compressor.
type Point3 = core.Point3

// Metric selects the deviation metric.
type Metric = core.Metric

// Deviation metrics: distance to the infinite path line (the paper's
// default) or to the closed path segment.
const (
	MetricLine    = core.MetricLine
	MetricSegment = core.MetricSegment
)

// Stats counts the per-point decision outcomes of a compressor; see
// Stats.PruningPower and Stats.CompressionRate.
type Stats = core.Stats

// TracePoint is one instrumented bound computation (Figure 3 of the
// paper); see WithTrace.
type TracePoint = core.TracePoint

// BQS is the streaming compressor. Obtain one with NewBQS or NewFBQS.
type BQS = core.Compressor

// BQS3D is the 3-D streaming compressor of Section V-G. Obtain one with
// NewBQS3D or NewFBQS3D.
type BQS3D = core.Compressor3

// TimeSensitive compresses 2-D points under the time-sensitive error
// metric (elapsed time scaled into a third axis). Obtain one with
// NewTimeSensitive.
type TimeSensitive = core.TimeSensitive

// Option customizes a compressor; see WithMetric, WithRotationWarmup,
// WithMaxBuffer and WithTrace.
type Option func(*core.Config)

// WithMetric selects the deviation metric (default MetricLine).
func WithMetric(m Metric) Option {
	return func(c *core.Config) { c.Metric = m }
}

// WithRotationWarmup sets the size of the data-centric-rotation warmup
// buffer (default 5, as suggested by the paper). 0 disables the rotation.
// FBQS under the line metric ignores it: its tangent wedge has no rotation.
func WithRotationWarmup(n int) Option {
	return func(c *core.Config) { c.RotationWarmup = n }
}

// WithMaxBuffer caps the exact-mode deviation buffer; reaching the cap
// cuts the segment, exactly like the windowed baselines' buffer-full
// behaviour. 0 (default) means unlimited. FBQS ignores it.
func WithMaxBuffer(n int) Option {
	return func(c *core.Config) { c.MaxBuffer = n }
}

// WithTrace installs a per-point bound instrumentation callback. The
// callback receives the aggregated lower/upper bounds for every point that
// reaches the bounding structures, plus the true deviation in exact mode —
// the data behind Figure 3 of the paper.
func WithTrace(f func(TracePoint)) Option {
	return func(c *core.Config) { c.Trace = f }
}

// NewBQS returns the exact BQS compressor (Algorithm 1) with the given
// deviation tolerance in metres: when the error bounds are inconclusive it
// scans its buffer for the true deviation, achieving the best compression
// rate.
func NewBQS(tolerance float64, opts ...Option) (*BQS, error) {
	cfg := core.Config{Tolerance: tolerance, Mode: core.ModeExact, RotationWarmup: -1}
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewCompressor(cfg)
}

// NewFBQS returns the fast BQS compressor (Section V-E): constant time and
// space per point, no buffer. Under the line metric (the default) its state
// is the tangent wedge, which answers what BQS's buffer scan answers; under
// the segment metric it cuts whenever the quadrant bounds are inconclusive,
// trading a small amount of compression rate for O(1) complexity.
func NewFBQS(tolerance float64, opts ...Option) (*BQS, error) {
	cfg := core.Config{Tolerance: tolerance, Mode: core.ModeFast, RotationWarmup: -1}
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewCompressor(cfg)
}

// NewBQS3D returns the exact 3-D compressor: deviations are measured to
// the 3-D path line through <x, y, z>, with z carrying altitude.
func NewBQS3D(tolerance float64, opts ...Option) (*BQS3D, error) {
	cfg := core.Config{Tolerance: tolerance, Mode: core.ModeExact, RotationWarmup: -1}
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewCompressor3(cfg)
}

// NewFBQS3D returns the fast 3-D compressor.
func NewFBQS3D(tolerance float64, opts ...Option) (*BQS3D, error) {
	cfg := core.Config{Tolerance: tolerance, Mode: core.ModeFast, RotationWarmup: -1}
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewCompressor3(cfg)
}

// NewTimeSensitive returns a compressor under the time-sensitive error
// metric of Section V-G: gamma (metres per second) scales temporal error
// into the spatial tolerance, so the reconstruction is accurate in both
// where and when. Use the fast flag to select FBQS semantics.
func NewTimeSensitive(tolerance, gamma float64, fast bool, opts ...Option) (*TimeSensitive, error) {
	mode := core.ModeExact
	if fast {
		mode = core.ModeFast
	}
	cfg := core.Config{Tolerance: tolerance, Mode: mode, RotationWarmup: -1}
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewTimeSensitive(cfg, gamma)
}

// MaxDeviation returns the maximum deviation of pts from the path between
// s and e under the metric — the full computation the BQS bounds avoid.
func MaxDeviation(pts []Point, s, e Point, metric Metric) float64 {
	return core.MaxDeviation(pts, s, e, metric)
}
