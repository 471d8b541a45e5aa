package synth

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
)

func TestVonMisesCircularMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kappa := range []float64{0.5, 2, 8, 50} {
		vm := VonMises{Mu: 1.0, Kappa: kappa}
		angles := make([]float64, 20000)
		for i := range angles {
			angles[i] = vm.Sample(rng)
		}
		mean := circularMean(angles)
		if d := math.Abs(math.Atan2(math.Sin(mean-1.0), math.Cos(mean-1.0))); d > 0.05 {
			t.Errorf("kappa %v: circular mean %v, want ≈ 1.0", kappa, mean)
		}
		r := CircularConcentration(angles)
		// R ≈ 1 - 1/(2κ) for large κ; grows with κ.
		want := 1 - 1/(2*kappa)
		if kappa >= 2 && math.Abs(r-want) > 0.08 {
			t.Errorf("kappa %v: concentration %v, want ≈ %v", kappa, r, want)
		}
	}
}

func TestVonMisesUniformWhenKappaZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vm := VonMises{Mu: 0, Kappa: 0}
	angles := make([]float64, 20000)
	for i := range angles {
		angles[i] = vm.Sample(rng)
	}
	if r := CircularConcentration(angles); r > 0.03 {
		t.Errorf("kappa 0 concentration = %v, want ≈ 0", r)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := Exponential{Mean: 42}
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		v := e.Sample(rng)
		if v < 0 {
			t.Fatal("negative duration")
		}
		sum += v
	}
	if got := sum / float64(n); math.Abs(got-42) > 1 {
		t.Errorf("mean = %v, want ≈ 42", got)
	}
}

func TestEmpiricalDistribution(t *testing.T) {
	e := NewEmpirical([]float64{1, 10}, []float64{1, 3})
	rng := rand.New(rand.NewSource(4))
	nHigh := 0
	n := 20000
	for i := 0; i < n; i++ {
		v := e.Sample(rng)
		if v < 0 {
			t.Fatal("negative sample")
		}
		if v > 5 {
			nHigh++
		}
	}
	frac := float64(nHigh) / float64(n)
	if math.Abs(frac-0.75) > 0.03 {
		t.Errorf("high-bucket fraction = %v, want ≈ 0.75", frac)
	}
	// Degenerate cases.
	if v := (Empirical{}).Sample(rng); v != 0 {
		t.Errorf("empty empirical sampled %v", v)
	}
	bad := NewEmpirical([]float64{1, 2}, []float64{-1, 0})
	if v := bad.Sample(rng); v != 0 {
		t.Errorf("all-dropped empirical sampled %v", v)
	}
}

func TestBatSpeedsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sp := BatSpeeds()
	var sum, maxV float64
	n := 20000
	for i := 0; i < n; i++ {
		v := sp.Sample(rng)
		sum += v
		if v > maxV {
			maxV = v
		}
	}
	mean := sum / float64(n)
	// Common continuous flight ≈ 35 km/h ≈ 9.7 m/s; allow the foraging tail
	// to pull the mean down.
	if mean < 6 || mean > 11 {
		t.Errorf("mean speed = %v m/s", mean)
	}
	// Max ≈ 50 km/h ≈ 14 m/s.
	if maxV > 16 {
		t.Errorf("max speed = %v m/s, want ≲ 14", maxV)
	}
}

func checkTrace(t *testing.T, tr Trace, wantN int) {
	t.Helper()
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	if wantN > 0 && tr.Len() != wantN {
		t.Errorf("%s: %d samples, want %d", tr.Name, tr.Len(), wantN)
	}
	prevT := math.Inf(-1)
	for i, s := range tr.Samples {
		if !s.P.IsFinite() {
			t.Fatalf("%s sample %d not finite: %+v", tr.Name, i, s)
		}
		if s.P.T <= prevT {
			t.Fatalf("%s sample %d: time not strictly increasing", tr.Name, i)
		}
		prevT = s.P.T
	}
}

func TestWalkMatchesPaperSetup(t *testing.T) {
	tr := Walk(DefaultWalkConfig(7))
	checkTrace(t, tr, 30000)
	minX, minY, maxX, maxY := extent(tr)
	if minX < -1 || minY < -1 || maxX > 10001 || maxY > 10001 {
		t.Errorf("walk escaped the 10 km bound: [%v %v %v %v]", minX, minY, maxX, maxY)
	}
	mf := tr.MovingFraction()
	if mf < 0.3 || mf > 0.9 {
		t.Errorf("moving fraction = %v", mf)
	}
	// Ground-truth velocities must be consistent with displacement during
	// moving samples (no noise in the default config). Boundary reflections
	// fold the displacement mid-step, so a small fraction of mismatches is
	// expected.
	mismatches, checked := 0, 0
	for i := 1; i < tr.Len(); i++ {
		s := tr.Samples[i]
		if !s.Moving {
			continue
		}
		prev := tr.Samples[i-1]
		dt := s.P.T - prev.P.T
		gotV := math.Hypot(s.P.X-prev.P.X, s.P.Y-prev.P.Y) / dt
		wantV := math.Hypot(s.VX, s.VY)
		checked++
		if math.Abs(gotV-wantV) > 0.5 {
			mismatches++
		}
	}
	if frac := float64(mismatches) / float64(checked); frac > 0.02 {
		t.Errorf("velocity/displacement mismatch fraction = %v", frac)
	}
}

func TestWalkDeterminism(t *testing.T) {
	a := Walk(DefaultWalkConfig(42))
	b := Walk(DefaultWalkConfig(42))
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	c := Walk(DefaultWalkConfig(43))
	same := true
	for i := 0; i < 100 && i < c.Len(); i++ {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestWalkDegenerate(t *testing.T) {
	if tr := Walk(WalkConfig{N: 0}); tr.Len() != 0 {
		t.Error("zero-N walk produced samples")
	}
	tr := Walk(WalkConfig{Seed: 1, N: 100, Speeds: BatSpeeds()})
	checkTrace(t, tr, 100)
}

// TestStreetGridShape: every step is one 60 m block along an axis, 1-5 s
// after the last, and the track turns a quarter left or right after 2-4
// blocks; the same seed gives the same track.
func TestStreetGridShape(t *testing.T) {
	pts := StreetGrid(3, 2000)
	if len(pts) != 2000 || pts[0] != StreetGrid(3, 1)[0] {
		t.Fatalf("%d fixes, first %v: want 2000 and the same start", len(pts), pts[0])
	}
	prev, prevStep, run := core.Point{X: 1500, T: 1000}, core.Point{}, 0
	for i, p := range pts {
		step := core.Point{X: p.X - prev.X, Y: p.Y - prev.Y}
		if dt := p.T - prev.T; math.Abs(step.X)+math.Abs(step.Y) != 60 || step.X*step.Y != 0 || dt < 1 || dt > 5 {
			t.Fatalf("fix %d: step (%g, %g) in %g s", i, step.X, step.Y, dt)
		}
		switch turn := step.X*prevStep.Y - step.Y*prevStep.X; {
		case i == 0 || step == prevStep:
			run++
		case turn != 0 && (run < 2 || run > 4):
			t.Fatalf("fix %d: a turn after %d blocks", i, run)
		case turn == 0:
			t.Fatalf("fix %d: the track turned back", i)
		default:
			run = 1
		}
		prev, prevStep = p, step
	}
}

func TestBatTraceShape(t *testing.T) {
	cfg := DefaultBatConfig(11)
	cfg.Days = 10
	tr := Bat(cfg)
	checkTrace(t, tr, 0)
	// Dwell samples dominate (the paper: "bats perform stays as well as
	// small movement around certain locations, making those points easily
	// discardable"), with a meaningful flight share from 1/min sampling.
	if mf := tr.MovingFraction(); mf < 0.03 || mf > 0.5 {
		t.Errorf("bat moving fraction = %v, want dwell-dominated mix", mf)
	}
	// Trips reach foraging distance: ≈ 10 km scale.
	minX, minY, maxX, maxY := extent(tr)
	span := math.Max(maxX-minX, maxY-minY)
	if span < 5000 || span > 60000 {
		t.Errorf("bat range span = %v m", span)
	}
	// Nightly travel ≈ 20-40 km over 10 days (the paper's bats average
	// ≈ 8 km/day of recorded travel; ours fly every night they go out).
	if l := tr.PathLength(); l < 50e3 || l > 600e3 {
		t.Errorf("bat path length = %v m over 10 days", l)
	}
	t.Logf("bat: %d samples, moving %.2f, span %.0f m, path %.0f km",
		tr.Len(), tr.MovingFraction(), span, tr.PathLength()/1000)
}

func TestVehicleTraceShape(t *testing.T) {
	cfg := DefaultVehicleConfig(12)
	cfg.Days = 5
	tr := Vehicle(cfg)
	checkTrace(t, tr, 0)
	mf := tr.MovingFraction()
	if mf < 0.3 || mf > 0.95 {
		t.Errorf("vehicle moving fraction = %v, want trip-gated (driving-dominated)", mf)
	}
	// Speeds in the driving range.
	var maxSpeed float64
	for _, s := range tr.Samples {
		if v := math.Hypot(s.VX, s.VY); v > maxSpeed {
			maxSpeed = v
		}
	}
	if maxSpeed < 15 || maxSpeed > 31 {
		t.Errorf("vehicle max speed = %v m/s, want ≈ 27.8 (100 km/h)", maxSpeed)
	}
	t.Logf("vehicle: %d samples, moving %.2f, path %.0f km",
		tr.Len(), mf, tr.PathLength()/1000)
}

func TestTraceHelpers(t *testing.T) {
	tr := Trace{Samples: []Sample{
		{P: core.Point{X: 0, Y: 0, T: 0}, Moving: false},
		{P: core.Point{X: 3, Y: 4, T: 1}, Moving: true},
		{P: core.Point{X: 3, Y: 8, T: 2}, Moving: true},
	}}
	if got := tr.MovingFraction(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("MovingFraction = %v", got)
	}
	if got := tr.PathLength(); got != 9 {
		t.Errorf("PathLength = %v, want 9", got)
	}
	pts := tr.Points()
	if len(pts) != 3 || pts[1].X != 3 {
		t.Errorf("Points = %v", pts)
	}
	minX, minY, maxX, maxY := extent(tr)
	if minX != 0 || minY != 0 || maxX != 3 || maxY != 8 {
		t.Errorf("Extent = %v %v %v %v", minX, minY, maxX, maxY)
	}
	empty := Trace{}
	if empty.MovingFraction() != 0 {
		t.Error("empty MovingFraction")
	}
}

// Calibration: the generated workloads must land in the paper's measured
// regime, otherwise every figure reproduction is built on sand.
func TestBatCalibration(t *testing.T) {
	cfg := DefaultBatConfig(99)
	cfg.Days = 15
	pts := Bat(cfg).Points()

	bqs, err := core.NewCompressor(core.Config{Tolerance: 10, Mode: core.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	keys := bqs.CompressBatch(pts)
	s := bqs.Stats()
	rate := float64(len(keys)) / float64(len(pts))
	t.Logf("bat: n=%d rate=%.3f pruning=%.3f", len(pts), rate, s.PruningPower())
	// Paper: compression rate ≈ 3.9-6.3% at 10 m; pruning power ≈ 0.9.
	if rate < 0.01 || rate > 0.12 {
		t.Errorf("bat compression rate at 10 m = %v, want the paper's few-percent regime", rate)
	}
	if pp := s.PruningPower(); pp < 0.85 {
		t.Errorf("bat pruning power = %v, want ≥ 0.85", pp)
	}
}

func TestVehicleCalibration(t *testing.T) {
	cfg := DefaultVehicleConfig(98)
	cfg.Days = 7
	pts := Vehicle(cfg).Points()

	bqs, err := core.NewCompressor(core.Config{Tolerance: 10, Mode: core.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	keys := bqs.CompressBatch(pts)
	s := bqs.Stats()
	rate := float64(len(keys)) / float64(len(pts))
	t.Logf("vehicle: n=%d rate=%.3f pruning=%.3f", len(pts), rate, s.PruningPower())
	if rate < 0.01 || rate > 0.15 {
		t.Errorf("vehicle compression rate at 10 m = %v", rate)
	}
	if pp := s.PruningPower(); pp < 0.85 {
		t.Errorf("vehicle pruning power = %v, want ≥ 0.85", pp)
	}
}

// circularMean is the circular mean of angles in radians.
func circularMean(angles []float64) float64 {
	var s, c float64
	for _, a := range angles {
		s += math.Sin(a)
		c += math.Cos(a)
	}
	return math.Atan2(s, c)
}

// extent is the bounding rectangle of a trace's observed points.
func extent(t Trace) (minX, minY, maxX, maxY float64) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, s := range t.Samples {
		minX, minY = math.Min(minX, s.P.X), math.Min(minY, s.P.Y)
		maxX, maxY = math.Max(maxX, s.P.X), math.Max(maxY, s.P.Y)
	}
	return minX, minY, maxX, maxY
}
