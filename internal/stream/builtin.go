package stream

import (
	"github.com/trajcomp/bqs/internal/baseline"
	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/geom"
)

// Built-in registrations: every online algorithm in the repository is
// constructible by config string. Buffer sizes and the time-sensitive
// gamma use the paper's defaults; callers needing other parameters
// register their own closure under a new name. "fbqs" is the one that
// snaps (core.Config.Snap): its key points after a run's first are points
// of a grid of core.GridStep(ε) its tangent wedge admits, where the stored
// lattice has slack ε does not need, so a stored record's steps share a
// divisor.
const (
	// DefaultBufferSize is the window for the buffered baselines (mid
	// range of the paper's Table III sweep 32–256).
	DefaultBufferSize = 128
	// DefaultGamma converts temporal error to spatial error for the
	// "timesensitive" registration, in metres per second.
	DefaultGamma = 1.0
)

// builtin adds a built-in whose constructor returns its concrete type,
// with what its tolerance bounds. The error check is what keeps a failed
// constructor's typed nil pointer from reaching the caller as a non-nil
// Compressor.
func builtin[C Compressor](name string, construct func(tol float64) (C, error), deviation func(orig, keys []core.Point) float64) {
	err := register(name, func(tol float64) (Compressor, error) {
		c, err := construct(tol)
		if err != nil {
			return nil, err
		}
		return c, nil
	}, deviation)
	if err != nil {
		panic(err)
	}
}

// lifted is what "timesensitive" bounds: the line distance in
// (x, y, DefaultGamma·t), the space it cuts segments in.
func lifted(orig, keys []core.Point) float64 {
	return core.Deviation(orig, keys, func(p, s, e core.Point) float64 {
		lift := func(q core.Point) geom.Vec3 { return geom.V3(q.X, q.Y, (q.T-s.T)*DefaultGamma) }
		return geom.DistToLine3(lift(p), lift(s), lift(e))
	})
}

// prediction is what "dr" bounds: how far a fix lies from where the last
// report, extrapolated at Push's finite-difference velocity, says it is.
func prediction(orig, keys []core.Point) float64 {
	return baseline.DeadReckoningError(orig, nil, keys)
}

func init() {
	builtin("bqs", func(tol float64) (*core.Compressor, error) {
		return core.NewCompressor(core.Config{Tolerance: tol, Mode: core.ModeExact, RotationWarmup: -1})
	}, polyline)
	builtin("fbqs", func(tol float64) (*core.Compressor, error) {
		return core.NewCompressor(core.Config{Tolerance: tol, Mode: core.ModeFast, RotationWarmup: -1, Snap: true})
	}, polyline)
	builtin("timesensitive", func(tol float64) (*core.TimeSensitive, error) {
		return core.NewTimeSensitive(core.Config{Tolerance: tol, Mode: core.ModeFast, RotationWarmup: -1}, DefaultGamma)
	}, lifted)
	builtin("dr", baseline.NewDeadReckoning, prediction)
	builtin("bgd", func(tol float64) (*baseline.BufferedGreedy, error) {
		return baseline.NewBufferedGreedy(tol, DefaultBufferSize, core.MetricLine)
	}, polyline)
	builtin("bdp", func(tol float64) (Compressor, error) {
		c, err := baseline.NewBufferedDP(tol, DefaultBufferSize, core.MetricLine)
		return Adapt(c), err
	}, polyline)
}
