package baseline

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/geom"
)

func TestDeadReckoningConstantVelocityNeverReports(t *testing.T) {
	c, err := NewDeadReckoning(5)
	if err != nil {
		t.Fatal(err)
	}
	reports := 0
	for i := 0; i < 100; i++ {
		p := core.Point{X: float64(i) * 10, Y: 0, T: float64(i)}
		if _, ok := c.PushV(p, 10, 0); ok {
			reports++
		}
	}
	if reports != 1 {
		t.Errorf("constant velocity produced %d reports, want 1", reports)
	}
}

func TestDeadReckoningTurnTriggersReport(t *testing.T) {
	c, _ := NewDeadReckoning(5)
	c.PushV(core.Point{X: 0, Y: 0, T: 0}, 10, 0)
	// Turn 90°: position drifts from prediction quickly.
	reported := false
	for i := 1; i <= 10; i++ {
		p := core.Point{X: 0, Y: float64(i) * 10, T: float64(i)}
		if _, ok := c.PushV(p, 0, 10); ok {
			reported = true
			break
		}
	}
	if !reported {
		t.Error("90° turn never triggered a report")
	}
}

func TestDeadReckoningReconstructionErrorBounded(t *testing.T) {
	// At each sample instant the DR reconstruction (linear extrapolation
	// from the last report) is within tolerance by construction — and the
	// replay that says so is no rubber stamp: take any one report away and
	// the fixes it anchored are held to a prediction that was given up
	// because it had drifted past the tolerance.
	rng := rand.New(rand.NewSource(9))
	tol := 10.0
	c, _ := NewDeadReckoning(tol)
	x, y := 0.0, 0.0
	heading := 0.0
	var fixes, reports []core.Point
	var vel []geom.Vec
	for i := 0; i < 2000; i++ {
		heading += rng.NormFloat64() * 0.2
		vx := math.Cos(heading) * 10
		vy := math.Sin(heading) * 10
		x += vx
		y += vy
		p := core.Point{X: x, Y: y, T: float64(i)}
		fixes, vel = append(fixes, p), append(vel, geom.V(vx, vy))
		if kp, ok := c.PushV(p, vx, vy); ok {
			reports = append(reports, kp)
		}
	}
	if worst := DeadReckoningError(fixes, vel, reports); worst > tol+1e-9 {
		t.Fatalf("reconstruction error %v > %v", worst, tol)
	}
	if len(reports) < 3 {
		t.Fatalf("only %d reports", len(reports))
	}
	for drop := range reports {
		less := append(append([]core.Point{}, reports[:drop]...), reports[drop+1:]...)
		if worst := DeadReckoningError(fixes, vel, less); worst <= tol {
			t.Fatalf("without report %d of %d the replay still reads %v ≤ %v", drop, len(reports), worst, tol)
		}
	}
	// The same with the velocities Push estimates.
	c.Flush()
	reports = reports[:0]
	for _, p := range fixes {
		if kp, ok := c.Push(p); ok {
			reports = append(reports, kp)
		}
	}
	if worst := DeadReckoningError(fixes, nil, reports); worst > tol+1e-9 {
		t.Fatalf("finite differences: reconstruction error %v > %v", worst, tol)
	}
	if worst := DeadReckoningError(fixes, nil, reports[:len(reports)-1]); worst <= tol {
		t.Fatalf("finite differences: without the last report the replay still reads %v ≤ %v", worst, tol)
	}
	if worst := DeadReckoningError(nil, nil, nil); worst != 0 {
		t.Errorf("nothing fed, nothing reported: %v", worst)
	}
}

func TestDeadReckoningFiniteDifferenceFallback(t *testing.T) {
	c, _ := NewDeadReckoning(5)
	var reports int
	for i := 0; i < 50; i++ {
		p := core.Point{X: float64(i) * 10, Y: 0, T: float64(i)}
		if _, ok := c.Push(p); ok {
			reports++
		}
	}
	// First report anchors with zero velocity (no previous sample), so the
	// second sample drifts and re-anchors; afterwards the estimate is right.
	if reports > 3 {
		t.Errorf("finite-difference DR on a line reported %d times", reports)
	}
	points, got := c.Stats()
	if points != 50 || got != reports {
		t.Errorf("stats = (%d,%d)", points, got)
	}
}

func TestDeadReckoningValidation(t *testing.T) {
	if _, err := NewDeadReckoning(0); err == nil {
		t.Error("zero tolerance accepted")
	}
}

func TestDeadReckoningNeedsMorePointsThanFBQS(t *testing.T) {
	// Figure 8(b)'s shape: DR reports ≈ 40-50% more points than FBQS on
	// twisty motion with dwells.
	rng := rand.New(rand.NewSource(10))
	var nDR, nFBQS int
	for trial := 0; trial < 5; trial++ {
		n := 3000
		pts := make([]core.Point, 0, n)
		vxs := make([]float64, 0, n)
		vys := make([]float64, 0, n)
		x, y, heading := 0.0, 0.0, rng.Float64()*2*math.Pi
		for i := 0; i < n; i++ {
			if rng.Intn(60) == 0 { // waiting event
				for j := 0; j < 10 && i < n; j++ {
					pts = append(pts, core.Point{X: x, Y: y, T: float64(i)})
					vxs = append(vxs, 0)
					vys = append(vys, 0)
					i++
				}
				i--
				continue
			}
			heading += rng.NormFloat64() * 0.3
			sp := 5 + rng.Float64()*10
			vx, vy := math.Cos(heading)*sp, math.Sin(heading)*sp
			x += vx
			y += vy
			pts = append(pts, core.Point{X: x, Y: y, T: float64(i)})
			vxs = append(vxs, vx)
			vys = append(vys, vy)
		}
		dr, _ := NewDeadReckoning(10)
		for i, p := range pts {
			dr.PushV(p, vxs[i], vys[i])
		}
		_, reports := dr.Stats()
		nDR += reports

		fbqs, err := core.NewCompressor(core.Config{Tolerance: 10, Mode: core.ModeFast})
		if err != nil {
			t.Fatal(err)
		}
		nFBQS += len(fbqs.CompressBatch(pts))
	}
	if nDR <= nFBQS {
		t.Errorf("DR reports %d ≤ FBQS %d; expected DR to need more", nDR, nFBQS)
	}
	t.Logf("DR=%d FBQS=%d (+%.0f%%)", nDR, nFBQS, 100*float64(nDR-nFBQS)/float64(nFBQS))
}

func TestSquishELambdaRespectsRatio(t *testing.T) {
	pts := randomWalk(rand.New(rand.NewSource(11)), 1000, 10)
	out, err := SquishELambda(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := len(pts) / 10
	if len(out) > want+2 {
		t.Errorf("SQUISH-E(λ=10) kept %d points, want ≤ %d", len(out), want+2)
	}
	if !out[0].Equal(pts[0]) || !out[len(out)-1].Equal(pts[len(pts)-1]) {
		t.Error("endpoints not preserved")
	}
	for i := 1; i < len(out); i++ {
		if out[i].T <= out[i-1].T {
			t.Fatal("output out of order")
		}
	}
}

func TestSquishEMuBoundsSED(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := randomWalk(rng, 500, 10)
	mu := 15.0
	out, err := SquishEMu(pts, mu)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) >= len(pts) {
		t.Errorf("SQUISH-E(μ) kept everything (%d of %d)", len(out), len(pts))
	}
	// The SQUISH-E priority is an upper bound on the true SED introduced by
	// the removals: verify the actual SED of every removed point.
	if worst := core.Deviation(pts, out, core.SyncDist); worst > mu*(1+1e-9) {
		t.Fatalf("a removed point has SED %v > μ=%v", worst, mu)
	}
}

func TestSquishDegenerate(t *testing.T) {
	if _, err := SquishELambda(nil, 0.5); err == nil {
		t.Error("λ < 1 accepted")
	}
	if _, err := SquishEMu(nil, -1); err == nil {
		t.Error("μ < 0 accepted")
	}
	two := []core.Point{{X: 0, T: 0}, {X: 1, T: 1}}
	out, err := SquishELambda(two, 5)
	if err != nil || len(out) != 2 {
		t.Errorf("two-point λ: %v %v", out, err)
	}
	out, err = SquishEMu(two, 5)
	if err != nil || len(out) != 2 {
		t.Errorf("two-point μ: %v %v", out, err)
	}
}

func TestSedBasic(t *testing.T) {
	a := core.Point{X: 0, Y: 0, T: 0}
	b := core.Point{X: 10, Y: 0, T: 10}
	// On-time point on the path: SED 0.
	if d := core.SyncDist(core.Point{X: 5, Y: 0, T: 5}, a, b); !almostEq(d, 0, 1e-12) {
		t.Errorf("on-path SED = %v", d)
	}
	// Spatially on the path but temporally early: SED is the along-track gap.
	if d := core.SyncDist(core.Point{X: 5, Y: 0, T: 2}, a, b); !almostEq(d, 3, 1e-12) {
		t.Errorf("early SED = %v, want 3", d)
	}
	// Degenerate time span falls back to anchor distance.
	if d := core.SyncDist(core.Point{X: 3, Y: 4, T: 0}, a, core.Point{X: 1, Y: 1, T: 0}); !almostEq(d, 5, 1e-12) {
		t.Errorf("degenerate SED = %v, want 5", d)
	}
}

func TestUniformSample(t *testing.T) {
	pts := randomWalk(rand.New(rand.NewSource(13)), 100, 10)
	out, err := UniformSample(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 11 {
		t.Errorf("kept %d, want 11", len(out))
	}
	if !out[len(out)-1].Equal(pts[len(pts)-1]) {
		t.Error("last point missing")
	}
	if _, err := UniformSample(pts, 0); err == nil {
		t.Error("stride 0 accepted")
	}
	if out, err := UniformSample(nil, 3); err != nil || out != nil {
		t.Errorf("nil input: %v %v", out, err)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
