package core

import (
	"math"
	"math/rand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// randomWalk generates a correlated random walk with n points, step scale
// step metres and occasional dwell phases, timestamps 1 s apart. It is the
// shared workload for correctness property tests.
func randomWalk(rng *rand.Rand, n int, step float64) []Point {
	pts := make([]Point, n)
	x, y := rng.NormFloat64()*100, rng.NormFloat64()*100
	heading := rng.Float64() * 2 * math.Pi
	dwell := 0
	for i := 0; i < n; i++ {
		if dwell > 0 {
			dwell--
			// GPS jitter around the dwell location.
			pts[i] = Point{X: x + rng.NormFloat64()*step/10, Y: y + rng.NormFloat64()*step/10, T: float64(i)}
			continue
		}
		if rng.Intn(40) == 0 {
			dwell = rng.Intn(20)
		}
		heading += rng.NormFloat64() * 0.4
		speed := step * (0.2 + rng.Float64())
		x += math.Cos(heading) * speed
		y += math.Sin(heading) * speed
		pts[i] = Point{X: x, Y: y, T: float64(i)}
	}
	return pts
}
