package bqs

import (
	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/interp"
	"github.com/trajcomp/bqs/internal/stream"
)

// StreamCompressor is the common interface of every online compressor in
// this package: BQS, FBQS, BufferedGreedy, TimeSensitive, and adapted
// multi-emitters (see AdaptBufferedDP).
type StreamCompressor = stream.Compressor

// Compress runs any streaming compressor over pts and returns the
// compressed trajectory (all key points, including the flush).
func Compress(c StreamCompressor, pts []Point) []Point {
	return stream.Compress(c, pts)
}

// AdaptBufferedDP wraps a BufferedDP (which can emit several key points
// per push) as a StreamCompressor.
func AdaptBufferedDP(b *BufferedDP) StreamCompressor { return stream.Adapt(b) }

// Distribution maps normalized elapsed time within a compressed segment to
// normalized progress along it (the paper's P, Equation 2); see Uniform
// and NewGaussianFit.
type Distribution = interp.P

// Uniform is the paper's default reconstruction distribution: constant
// speed within each segment.
func Uniform() Distribution { return interp.Uniform{} }

// GaussianFit fits a reconstruction distribution online from observed
// progress samples using the numerically stable streaming recurrences the
// paper cites (Knuth's semi-numerical algorithms).
type GaussianFit = interp.OnlineGaussian

// Reconstruct returns the interpolated position at time t from a
// compressed trajectory (Equation 1). A nil distribution means Uniform.
func Reconstruct(keys []Point, t float64, p Distribution) (Point, error) {
	return interp.At(keys, t, p)
}

// ReconstructSeries interpolates positions at each timestamp; timestamps
// outside the trajectory's span are skipped.
func ReconstructSeries(keys []Point, ts []float64, p Distribution) []Point {
	return interp.Series(keys, ts, p)
}

// ReconstructionError returns the maximum and mean distance between each
// original point and its reconstruction at the same timestamp.
func ReconstructionError(orig, keys []Point, p Distribution) (maxErr, meanErr float64) {
	return interp.SpatialError(orig, keys, p)
}

// ValidateErrorBound verifies the paper's central guarantee over a
// compressed trajectory: every original point lies within tolerance of the
// compressed segment (matched by timestamp) it falls into, under metric. It
// returns the worst observed deviation and whether the bound holds.
// DESIGN.md's "The contract" defines the walk — segment ends are inclusive,
// and a point no segment covers is measured against the nearest end key —
// and names the distance each registered compressor is held to.
func ValidateErrorBound(orig, keys []Point, tolerance float64, metric Metric) (worst float64, ok bool) {
	worst = core.Deviation(orig, keys, metric.Dist)
	return worst, worst <= tolerance*(1+1e-9)
}
