package baseline

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
)

// randomWalk mirrors the core test generator: correlated walk with dwells.
func randomWalk(rng *rand.Rand, n int, step float64) []core.Point {
	pts := make([]core.Point, n)
	x, y := rng.NormFloat64()*100, rng.NormFloat64()*100
	heading := rng.Float64() * 2 * math.Pi
	dwell := 0
	for i := 0; i < n; i++ {
		if dwell > 0 {
			dwell--
			pts[i] = core.Point{X: x + rng.NormFloat64()*step/10, Y: y + rng.NormFloat64()*step/10, T: float64(i)}
			continue
		}
		if rng.Intn(40) == 0 {
			dwell = rng.Intn(20)
		}
		heading += rng.NormFloat64() * 0.4
		speed := step * (0.2 + rng.Float64())
		x += math.Cos(heading) * speed
		y += math.Sin(heading) * speed
		pts[i] = core.Point{X: x, Y: y, T: float64(i)}
	}
	return pts
}

func TestDouglasPeuckerStraightLine(t *testing.T) {
	var pts []core.Point
	for i := 0; i < 100; i++ {
		pts = append(pts, core.Point{X: float64(i), Y: 0, T: float64(i)})
	}
	out, err := DouglasPeucker(pts, 1, core.MetricLine)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("straight line kept %d points", len(out))
	}
}

func TestDouglasPeuckerKeepsCorner(t *testing.T) {
	pts := []core.Point{
		{X: 0, Y: 0, T: 0}, {X: 5, Y: 0, T: 1}, {X: 10, Y: 0, T: 2},
		{X: 10, Y: 5, T: 3}, {X: 10, Y: 10, T: 4},
	}
	out, err := DouglasPeucker(pts, 1, core.MetricLine)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("corner path kept %d points: %v", len(out), out)
	}
	if out[1].X != 10 || out[1].Y != 0 {
		t.Errorf("kept wrong interior point: %v", out[1])
	}
}

func TestDouglasPeuckerErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		pts := randomWalk(rng, 300, 10)
		for _, metric := range []core.Metric{core.MetricLine, core.MetricSegment} {
			tol := []float64{2, 5, 10}[rng.Intn(3)]
			out, err := DouglasPeucker(pts, tol, metric)
			if err != nil {
				t.Fatal(err)
			}
			if got := core.Deviation(pts, out, metric.Dist); got > tol*(1+1e-9) {
				t.Fatalf("trial %d metric %v: error %v > %v", trial, metric, got, tol)
			}
			if !out[0].Equal(pts[0]) || !out[len(out)-1].Equal(pts[len(pts)-1]) {
				t.Fatal("endpoints not preserved")
			}
		}
	}
}

func TestDouglasPeuckerDegenerate(t *testing.T) {
	if out, err := DouglasPeucker(nil, 1, core.MetricLine); err != nil || len(out) != 0 {
		t.Errorf("nil input: %v %v", out, err)
	}
	one := []core.Point{{X: 1, Y: 1, T: 0}}
	if out, err := DouglasPeucker(one, 1, core.MetricLine); err != nil || len(out) != 1 {
		t.Errorf("one point: %v %v", out, err)
	}
	two := []core.Point{{X: 1, Y: 1, T: 0}, {X: 2, Y: 2, T: 1}}
	if out, err := DouglasPeucker(two, 1, core.MetricLine); err != nil || len(out) != 2 {
		t.Errorf("two points: %v %v", out, err)
	}
	// Identical points collapse to endpoints.
	same := []core.Point{{X: 1, Y: 1, T: 0}, {X: 1, Y: 1, T: 1}, {X: 1, Y: 1, T: 2}}
	if out, err := DouglasPeucker(same, 1, core.MetricLine); err != nil || len(out) != 2 {
		t.Errorf("identical points: %v %v", out, err)
	}
	if _, err := DouglasPeucker(two, 0, core.MetricLine); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := DouglasPeucker(two, math.NaN(), core.MetricLine); err == nil {
		t.Error("NaN tolerance accepted")
	}
}

func TestDouglasPeuckerOptimalVsOnline(t *testing.T) {
	// DP is offline/greedy and usually keeps fewer points than the windowed
	// online baselines at the same tolerance — sanity-check the ordering the
	// paper's Figure 7 relies on (BDP worst).
	rng := rand.New(rand.NewSource(7))
	var dpTotal, bdpTotal int
	for trial := 0; trial < 10; trial++ {
		pts := randomWalk(rng, 500, 10)
		out, err := DouglasPeucker(pts, 10, core.MetricLine)
		if err != nil {
			t.Fatal(err)
		}
		dpTotal += len(out)

		bdp, err := NewBufferedDP(10, 32, core.MetricLine)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, p := range pts {
			n += len(bdp.Push(p))
		}
		n += len(bdp.Flush())
		bdpTotal += n
	}
	if dpTotal >= bdpTotal {
		t.Errorf("DP kept %d ≥ BDP %d; expected DP to win", dpTotal, bdpTotal)
	}
}
