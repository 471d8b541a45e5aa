package stream

import (
	"github.com/trajcomp/bqs/internal/baseline"
	"github.com/trajcomp/bqs/internal/core"
)

// Built-in registrations: every online algorithm in the repository is
// constructible by config string. Buffer sizes and the time-sensitive
// gamma use the paper's defaults; callers needing other parameters
// register their own closure under a new name.
const (
	// DefaultBufferSize is the window for the buffered baselines (mid
	// range of the paper's Table III sweep 32–256).
	DefaultBufferSize = 128
	// DefaultGamma converts temporal error to spatial error for the
	// "timesensitive" registration, in metres per second.
	DefaultGamma = 1.0
)

// register adds a built-in whose constructor returns its concrete type.
// The error check is what keeps a failed constructor's typed nil pointer
// from reaching the caller as a non-nil Compressor.
func register[C Compressor](name string, construct func(tol float64) (C, error)) {
	MustRegister(name, func(tol float64) (Compressor, error) {
		c, err := construct(tol)
		if err != nil {
			return nil, err
		}
		return c, nil
	})
}

func init() {
	register("bqs", func(tol float64) (*core.Compressor, error) {
		return core.NewCompressor(core.Config{Tolerance: tol, Mode: core.ModeExact, RotationWarmup: -1})
	})
	register("fbqs", func(tol float64) (*core.Compressor, error) {
		return core.NewCompressor(core.Config{Tolerance: tol, Mode: core.ModeFast, RotationWarmup: -1})
	})
	register("timesensitive", func(tol float64) (*core.TimeSensitive, error) {
		return core.NewTimeSensitive(core.Config{Tolerance: tol, Mode: core.ModeFast, RotationWarmup: -1}, DefaultGamma)
	})
	register("dr", baseline.NewDeadReckoning)
	register("bgd", func(tol float64) (*baseline.BufferedGreedy, error) {
		return baseline.NewBufferedGreedy(tol, DefaultBufferSize, core.MetricLine)
	})
	register("bdp", func(tol float64) (Compressor, error) {
		c, err := baseline.NewBufferedDP(tol, DefaultBufferSize, core.MetricLine)
		return Adapt(c), err
	})
}
