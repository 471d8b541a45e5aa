package bqs

import (
	"math"
	"testing"
)

func TestPublicQuickstart(t *testing.T) {
	c, err := NewBQS(10)
	if err != nil {
		t.Fatal(err)
	}
	tr := GenerateWalk(DefaultWalkConfig(1))
	pts := tr.Points()[:5000]
	keys := Compress(c, pts)
	if len(keys) < 2 || len(keys) >= len(pts) {
		t.Fatalf("keys = %d of %d", len(keys), len(pts))
	}
	worst, ok := ValidateErrorBound(pts, keys, 10, MetricLine)
	if !ok {
		t.Errorf("error bound violated: worst = %v", worst)
	}
}

func TestPublicFBQSOptions(t *testing.T) {
	var traces int
	c, err := NewFBQS(5,
		WithMetric(MetricSegment),
		WithRotationWarmup(3),
		WithTrace(func(TracePoint) { traces++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	if cfg.Metric != MetricSegment || cfg.RotationWarmup != 3 {
		t.Errorf("options not applied: %+v", cfg)
	}
	tr := GenerateBat(func() BatConfig { c := DefaultBatConfig(3); c.Days = 2; return c }())
	keys := Compress(c, tr.Points())
	if len(keys) < 2 {
		t.Fatal("no compression output")
	}
	if traces == 0 {
		t.Error("trace callback never fired")
	}
}

func TestPublicValidation(t *testing.T) {
	if _, err := NewBQS(0); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := NewFBQS(math.NaN()); err == nil {
		t.Error("NaN tolerance accepted")
	}
	if _, err := NewBQS3D(-1); err == nil {
		t.Error("negative tolerance accepted (3-D)")
	}
	if _, err := NewTimeSensitive(5, 0, false); err == nil {
		t.Error("zero gamma accepted")
	}
}

func TestPublicMaxBufferOption(t *testing.T) {
	c, err := NewBQS(10, WithMaxBuffer(16))
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().MaxBuffer != 16 {
		t.Error("MaxBuffer option not applied")
	}
}

func TestPublic3D(t *testing.T) {
	c, err := NewBQS3D(5)
	if err != nil {
		t.Fatal(err)
	}
	var pts []Point3
	for i := 0; i < 200; i++ {
		pts = append(pts, Point3{X: float64(i) * 10, Y: 0, Z: float64(i), T: float64(i)})
	}
	keys := c.CompressBatch3(pts)
	if len(keys) != 2 {
		t.Errorf("3-D straight line kept %d points", len(keys))
	}
	f, err := NewFBQS3D(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.CompressBatch3(pts); len(got) != 2 {
		t.Errorf("fast 3-D straight line kept %d points", len(got))
	}
}

func TestPublicBaselines(t *testing.T) {
	tr := GenerateWalk(func() WalkConfig { c := DefaultWalkConfig(4); c.N = 3000; return c }())
	pts := tr.Points()

	dp, err := DouglasPeucker(pts, 10, MetricLine)
	if err != nil {
		t.Fatal(err)
	}
	if len(dp) >= len(pts) || len(dp) < 2 {
		t.Errorf("DP kept %d", len(dp))
	}

	bdp, err := NewBufferedDP(10, 32, MetricLine)
	if err != nil {
		t.Fatal(err)
	}
	keys := Compress(AdaptBufferedDP(bdp), pts)
	if len(keys) < 2 {
		t.Error("adapted BDP produced nothing")
	}
	worst, ok := ValidateErrorBound(pts, keys, 10, MetricLine)
	if !ok {
		t.Errorf("BDP bound violated: %v", worst)
	}

	bgd, err := NewBufferedGreedy(10, 32, MetricLine)
	if err != nil {
		t.Fatal(err)
	}
	keys2 := Compress(bgd, pts)
	if _, ok := ValidateErrorBound(pts, keys2, 10, MetricLine); !ok {
		t.Error("BGD bound violated")
	}

	dr, err := NewDeadReckoning(10)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range tr.Samples {
		if _, ok := dr.PushV(s.P, s.VX, s.VY); ok {
			n++
		}
	}
	if n == 0 || n >= len(pts) {
		t.Errorf("DR reported %d", n)
	}

	sq, err := SquishELambda(pts, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(sq) > len(pts)/20+2 {
		t.Errorf("SQUISH-E(λ) kept %d", len(sq))
	}
	mu, err := SquishEMu(pts, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(mu) >= len(pts) {
		t.Error("SQUISH-E(μ) kept everything")
	}
	us, err := UniformSample(pts, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) < len(pts)/7 {
		t.Errorf("uniform kept %d", len(us))
	}
}

func TestProjectorRoundTrip(t *testing.T) {
	var pr Projector
	if _, err := pr.Unproject(Point{}); err != ErrNotProjected {
		t.Errorf("unprojected error = %v", err)
	}
	g := GeoPoint{Lat: -27.4698, Lon: 153.0251, T: 42}
	p, err := pr.Project(g)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Zone() != 56 {
		t.Errorf("zone = %d", pr.Zone())
	}
	back, err := pr.Unproject(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back.Lat-g.Lat) > 1e-6 || math.Abs(back.Lon-g.Lon) > 1e-6 || back.T != 42 {
		t.Errorf("round trip: %+v", back)
	}
	// A second fix across the zone boundary stays in the same plane.
	p2, err := pr.Project(GeoPoint{Lat: -27.47, Lon: 150.1, T: 43})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p2.X-p.X) > 400e3 {
		t.Errorf("cross-zone projection jumped: %v vs %v", p2.X, p.X)
	}
	if pr.Zone() != 56 {
		t.Error("zone changed")
	}
	if _, err := pr.Project(GeoPoint{Lat: 95, Lon: 0}); err == nil {
		t.Error("bad fix accepted")
	}
}

func TestProjectorCompressGeoTrack(t *testing.T) {
	// End-to-end: project a small geographic track, compress, reconstruct.
	var pr Projector
	var pts []Point
	for i := 0; i <= 60; i++ {
		g := GeoPoint{
			Lat: -27.4698 + float64(i)*0.0005,
			Lon: 153.0251 + float64(i)*0.0005,
			T:   float64(i * 60),
		}
		p, err := pr.Project(g)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, p)
	}
	c, err := NewFBQS(15)
	if err != nil {
		t.Fatal(err)
	}
	keys := Compress(c, pts)
	if len(keys) < 2 || len(keys) > 10 {
		t.Errorf("geo track kept %d keys", len(keys))
	}
	if _, ok := ValidateErrorBound(pts, keys, 15, MetricLine); !ok {
		t.Error("bound violated on geo track")
	}
}

func TestReconstructAPI(t *testing.T) {
	keys := []Point{{X: 0, Y: 0, T: 0}, {X: 100, Y: 0, T: 100}}
	p, err := Reconstruct(keys, 50, nil)
	if err != nil || math.Abs(p.X-50) > 1e-9 {
		t.Errorf("Reconstruct = %v, %v", p, err)
	}
	series := ReconstructSeries(keys, []float64{10, 20, 1000}, Uniform())
	if len(series) != 2 {
		t.Errorf("series = %v", series)
	}
	var fit GaussianFit
	fit.Add(0.5)
	fit.Add(0.6)
	if _, err := Reconstruct(keys, 50, fit.Fit()); err != nil {
		t.Errorf("gaussian reconstruct: %v", err)
	}
	maxE, meanE := ReconstructionError(keys, keys, nil)
	if maxE != 0 || meanE != 0 {
		t.Errorf("self reconstruction error = %v, %v", maxE, meanE)
	}
}

func TestStoreAPI(t *testing.T) {
	st, err := NewStore(StoreConfig{MergeTolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	keys := []Point{{X: 0, Y: 0, T: 0}, {X: 500, Y: 0, T: 60}}
	st.InsertTrajectory(keys)
	if st.Len() != 1 {
		t.Errorf("store len = %d", st.Len())
	}
	gk := []GeoKey{{Lat: -27.5, Lon: 153.0, T: 1000}}
	denc, err := DeltaEncodeTrajectory(gk)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := DeltaDecodeTrajectory(denc); err != nil || len(dec) != 1 {
		t.Fatalf("decode: %v %v", dec, err)
	}
}

func TestDeviceAPI(t *testing.T) {
	m := DefaultStorageModel()
	days, err := m.OperationalDays(0.048)
	if err != nil {
		t.Fatal(err)
	}
	if math.Round(days) != 62 {
		t.Errorf("BQS days = %v, want 62", days)
	}
	e := DefaultEnergyModel()
	if e.EnergyLimitedDays(1) <= 0 {
		t.Error("energy model degenerate")
	}
}

func TestTimeSensitivePublic(t *testing.T) {
	ts, err := NewTimeSensitive(5, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for i := 0; i < 100; i++ {
		if _, ok := ts.Push(Point{X: float64(i) * 10, T: float64(i) * 10}); ok {
			n++
		}
	}
	if _, ok := ts.Flush(); ok {
		n++
	}
	if n < 2 {
		t.Errorf("time-sensitive kept %d", n)
	}
}

// TestValidateErrorBoundSeesEveryFix: the facade's check is the one walk
// (internal/core's table test has its definition): a fix that shares a key
// point's second and one past the last key point are measured, not skipped.
func TestValidateErrorBoundSeesEveryFix(t *testing.T) {
	a, b, c, d := Point{T: 10}, Point{Y: 100, T: 10}, Point{X: 10, T: 11}, Point{X: 910, T: 12}
	if worst, ok := ValidateErrorBound([]Point{a, b, c}, []Point{a, c}, 25, MetricLine); ok || worst != 100 {
		t.Errorf("a fix 100 m off sharing a key's second: worst %v, ok %v", worst, ok)
	}
	if worst, ok := ValidateErrorBound([]Point{a, c, d}, []Point{a, c}, 25, MetricLine); ok || worst != 900 {
		t.Errorf("a fix 900 m past the last key: worst %v, ok %v", worst, ok)
	}
	if worst, ok := ValidateErrorBound([]Point{a, c}, []Point{a, c}, 25, MetricSegment); !ok || worst != 0 {
		t.Errorf("keys == orig: worst %v, ok %v", worst, ok)
	}
}
