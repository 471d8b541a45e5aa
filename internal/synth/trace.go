package synth

import (
	"math"
	"math/rand"

	"github.com/trajcomp/bqs/internal/core"
)

// Sample is one generated GPS fix with its ground truth.
type Sample struct {
	P      core.Point // observed (noisy) position, metres / seconds
	VX, VY float64    // ground-truth velocity in m/s at the sample instant
	Moving bool       // ground-truth phase (false during dwells/waits)
}

// Trace is a generated trajectory with metadata.
type Trace struct {
	Name    string
	Samples []Sample
}

// Points extracts the observed points.
func (t Trace) Points() []core.Point {
	pts := make([]core.Point, len(t.Samples))
	for i, s := range t.Samples {
		pts[i] = s.P
	}
	return pts
}

// Len returns the number of samples.
func (t Trace) Len() int { return len(t.Samples) }

// MovingFraction returns the fraction of samples in a moving phase.
func (t Trace) MovingFraction() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range t.Samples {
		if s.Moving {
			n++
		}
	}
	return float64(n) / float64(len(t.Samples))
}

// PathLength returns the total ground-truth travel distance in metres
// (sum of consecutive observed displacements during moving phases).
func (t Trace) PathLength() float64 {
	var total float64
	for i := 1; i < len(t.Samples); i++ {
		if t.Samples[i].Moving {
			total += t.Samples[i].P.Vec().Dist(t.Samples[i-1].P.Vec())
		}
	}
	return total
}

// noise applies isotropic Gaussian GPS noise with standard deviation sigma
// to a true position.
func noise(rng *rand.Rand, x, y, sigma float64) (float64, float64) {
	return x + rng.NormFloat64()*sigma, y + rng.NormFloat64()*sigma
}

// gpsNoise models GPS observation error as an AR(1) process: multipath and
// atmospheric errors drift slowly rather than re-rolling white noise every
// fix, which is what lets real stationary clusters compress even at small
// tolerances. The stationary standard deviation is Sigma; Rho is the
// per-sample correlation.
type gpsNoise struct {
	rng    *rand.Rand
	sigma  float64
	rho    float64
	ex, ey float64
}

func newGPSNoise(rng *rand.Rand, sigma, rho float64) *gpsNoise {
	return &gpsNoise{rng: rng, sigma: sigma, rho: rho}
}

// apply advances the error process and returns the observed position.
func (g *gpsNoise) apply(x, y float64) (float64, float64) {
	if g.sigma <= 0 {
		return x, y
	}
	inno := g.sigma * math.Sqrt(1-g.rho*g.rho)
	g.ex = g.rho*g.ex + g.rng.NormFloat64()*inno
	g.ey = g.rho*g.ey + g.rng.NormFloat64()*inno
	return x + g.ex, y + g.ey
}
