package eval

import (
	"fmt"
	"math"
	"time"

	"github.com/trajcomp/bqs/internal/baseline"
	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/geom"
	"github.com/trajcomp/bqs/internal/stream"
)

// Algo names one of the evaluated algorithms.
type Algo string

// The algorithms of the paper's comparative study.
const (
	AlgoBQS  Algo = "BQS"
	AlgoFBQS Algo = "FBQS"
	AlgoBDP  Algo = "BDP"
	AlgoBGD  Algo = "BGD"
	AlgoDP   Algo = "DP"
	AlgoDR   Algo = "DR"
)

// RunResult is one (algorithm, dataset, tolerance) evaluation.
type RunResult struct {
	Algo      Algo
	Dataset   string
	Tolerance float64
	Points    int
	Keys      int
	Rate      float64 // Keys/Points, the paper's compression rate
	Pruning   float64 // pruning power (BQS family; NaN otherwise)
	Duration  time.Duration
	WorstDev  float64 // worst observed deviation of the output, as the algorithm states its bound
	BoundOK   bool
}

// Run evaluates one algorithm at one tolerance over a dataset. bufSize
// applies to the windowed baselines. The output is held to what the
// algorithm bounds (DESIGN.md, "The contract"): the line distance to the
// time-matched segment, matching the compressors' configuration, and for
// DR the prediction error under the sample velocities it was fed.
func Run(algo Algo, ds Dataset, tolerance float64, bufSize int) (RunResult, error) {
	res := RunResult{
		Algo: algo, Dataset: ds.Name, Tolerance: tolerance,
		Points: len(ds.Points), Pruning: math.NaN(),
	}
	deviation := func(keys []core.Point) float64 { return core.Deviation(ds.Points, keys, core.MetricLine.Dist) }
	start := time.Now()
	var keys []core.Point
	switch algo {
	case AlgoBQS, AlgoFBQS:
		mode := core.ModeExact
		if algo == AlgoFBQS {
			mode = core.ModeFast
		}
		c, err := core.NewCompressor(core.Config{Tolerance: tolerance, Mode: mode, RotationWarmup: -1})
		if err != nil {
			return res, err
		}
		keys = stream.Compress(c, ds.Points)
		res.Pruning = c.Stats().PruningPower()
	case AlgoBDP:
		c, err := baseline.NewBufferedDP(tolerance, bufSize, core.MetricLine)
		if err != nil {
			return res, err
		}
		keys = stream.Compress(stream.Adapt(c), ds.Points)
	case AlgoBGD:
		c, err := baseline.NewBufferedGreedy(tolerance, bufSize, core.MetricLine)
		if err != nil {
			return res, err
		}
		keys = stream.Compress(c, ds.Points)
	case AlgoDP:
		var err error
		keys, err = baseline.DouglasPeucker(ds.Points, tolerance, core.MetricLine)
		if err != nil {
			return res, err
		}
	case AlgoDR:
		c, err := baseline.NewDeadReckoning(tolerance)
		if err != nil {
			return res, err
		}
		for _, s := range ds.Samples {
			if kp, ok := c.PushV(s.P, s.VX, s.VY); ok {
				keys = append(keys, kp)
			}
		}
		deviation = func(keys []core.Point) float64 {
			vel := make([]geom.Vec, len(ds.Samples))
			for i, s := range ds.Samples {
				vel[i] = geom.V(s.VX, s.VY)
			}
			return baseline.DeadReckoningError(ds.Points, vel, keys)
		}
	default:
		return res, fmt.Errorf("eval: unknown algorithm %q", algo)
	}
	res.Duration = time.Since(start)
	res.Keys = len(keys)
	if res.Points > 0 {
		res.Rate = float64(res.Keys) / float64(res.Points)
	}
	res.WorstDev = deviation(keys)
	res.BoundOK = res.WorstDev <= tolerance*(1+1e-9)
	return res, nil
}
