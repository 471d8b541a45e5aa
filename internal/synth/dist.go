// Package synth generates the evaluation workloads. The paper's two real
// datasets (flying-fox trackers and a vehicle dashboard node, 138,798 GPS
// samples total) are proprietary CSIRO deployments, so this package
// provides statistically analogous generators — a camp-anchored flying-fox
// model, a road-network vehicle model — plus a faithful implementation of
// the paper's own synthetic model (Section VI-A): an event-based correlated
// random walk alternating exponentially-timed waiting and moving events,
// with von Mises turning angles and empirical speeds, bounded to a
// 10 km × 10 km area.
//
// All generators are deterministic given a seed.
package synth

import (
	"math"
	"math/rand"
	"sort"
)

// VonMises is the circular distribution the paper draws turning angles
// from: mean direction Mu, concentration Kappa (Kappa → 0 is uniform,
// large Kappa concentrates near Mu).
type VonMises struct {
	Mu    float64
	Kappa float64
}

// Sample draws one angle in radians using the Best-Fisher (1979) rejection
// algorithm.
func (v VonMises) Sample(rng *rand.Rand) float64 {
	if v.Kappa < 1e-9 {
		return v.Mu + (rng.Float64()*2-1)*math.Pi
	}
	tau := 1 + math.Sqrt(1+4*v.Kappa*v.Kappa)
	rho := (tau - math.Sqrt(2*tau)) / (2 * v.Kappa)
	r := (1 + rho*rho) / (2 * rho)
	for {
		u1 := rng.Float64()
		u2 := rng.Float64()
		z := math.Cos(math.Pi * u1)
		f := (1 + r*z) / (r + z)
		c := v.Kappa * (r - f)
		if c*(2-c)-u2 > 0 || math.Log(c/u2)+1-c >= 0 {
			theta := math.Acos(f)
			if rng.Float64() < 0.5 {
				theta = -theta
			}
			return v.Mu + theta
		}
	}
}

// Exponential is the waiting/moving event-duration distribution (the
// paper's move times are "exponentially distributed, corresponding to the
// Poisson process").
type Exponential struct {
	Mean float64
}

// Sample draws one duration ≥ 0.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	return rng.ExpFloat64() * e.Mean
}

// Empirical is a piecewise-constant empirical distribution built from
// weighted buckets; the synthetic model uses it for "the empirical
// distribution of speed" of the bat data.
type Empirical struct {
	values []float64
	cum    []float64 // cumulative weights, last element = total
}

// NewEmpirical builds an empirical distribution from parallel value/weight
// slices. Non-positive weights are dropped; an empty distribution samples
// zero.
func NewEmpirical(values, weights []float64) Empirical {
	var e Empirical
	n := len(values)
	if len(weights) < n {
		n = len(weights)
	}
	total := 0.0
	for i := 0; i < n; i++ {
		if weights[i] <= 0 || math.IsNaN(weights[i]) {
			continue
		}
		total += weights[i]
		e.values = append(e.values, values[i])
		e.cum = append(e.cum, total)
	}
	return e
}

// Sample draws one value, jittered uniformly within ±half the local bucket
// spacing so the output is continuous.
func (e Empirical) Sample(rng *rand.Rand) float64 {
	if len(e.values) == 0 {
		return 0
	}
	u := rng.Float64() * e.cum[len(e.cum)-1]
	i := sort.SearchFloat64s(e.cum, u)
	if i >= len(e.values) {
		i = len(e.values) - 1
	}
	v := e.values[i]
	// Jitter towards the neighbouring bucket for continuity.
	if len(e.values) > 1 {
		var span float64
		if i+1 < len(e.values) {
			span = e.values[i+1] - v
		} else {
			span = v - e.values[i-1]
		}
		v += (rng.Float64() - 0.5) * span
	}
	if v < 0 {
		v = 0
	}
	return v
}

// BatSpeeds is the empirical flying-fox airspeed distribution used by the
// synthetic model: common continuous flight ≈ 35 km/h, maximum ≈ 50 km/h
// (Section VI-A), with a tail of slower foraging movement.
func BatSpeeds() Empirical {
	// m/s buckets with weights shaped after the paper's description.
	return NewEmpirical(
		[]float64{1, 2, 4, 6, 8, 9, 10, 11, 12, 13, 14},
		[]float64{2, 3, 5, 8, 14, 20, 18, 12, 8, 6, 4},
	)
}

// CircularConcentration returns the mean resultant length R ∈ [0, 1] of
// angles; R → 1 means tight concentration (large kappa).
func CircularConcentration(angles []float64) float64 {
	if len(angles) == 0 {
		return 0
	}
	var s, c float64
	for _, a := range angles {
		s += math.Sin(a)
		c += math.Cos(a)
	}
	return math.Hypot(s, c) / float64(len(angles))
}
