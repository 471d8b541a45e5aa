package core

import (
	"math"
	"math/rand"
	"testing"
)

func mustCompressor(t *testing.T, cfg Config) *Compressor {
	t.Helper()
	c, err := NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCompressorValidation(t *testing.T) {
	bad := []Config{
		{Tolerance: 0},
		{Tolerance: -1},
		{Tolerance: math.NaN()},
		{Tolerance: math.Inf(1)},
		{Tolerance: 1e-10}, // at/under geom.Eps: clipper-regime tolerances are rejected
		{Tolerance: 5, Mode: Mode(9)},
		{Tolerance: 5, Metric: Metric(9)},
		{Tolerance: 5, MaxBuffer: -1},
		{Tolerance: 5, RotationWarmup: 100000},
	}
	for i, cfg := range bad {
		if _, err := NewCompressor(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	c := mustCompressor(t, Config{Tolerance: 5, RotationWarmup: -1})
	if got := c.Config().RotationWarmup; got != DefaultRotationWarmup {
		t.Errorf("default warmup = %d, want %d", got, DefaultRotationWarmup)
	}
}

func TestEmptyAndSinglePoint(t *testing.T) {
	c := mustCompressor(t, Config{Tolerance: 5})
	if _, ok := c.Flush(); ok {
		t.Error("flush of empty stream emitted a point")
	}
	p := Point{X: 1, Y: 2, T: 3}
	kp, ok := c.Push(p)
	if !ok || !kp.Equal(p) {
		t.Fatalf("first push emitted (%v,%v), want the point itself", kp, ok)
	}
	if _, ok := c.Flush(); ok {
		t.Error("flush after single point emitted a duplicate")
	}
	if got := c.Stats().KeyPoints; got != 1 {
		t.Errorf("key points = %d, want 1", got)
	}
}

func TestStraightLineCompressesToTwoPoints(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeFast} {
		for _, warmup := range []int{0, 5} {
			c := mustCompressor(t, Config{Tolerance: 5, Mode: mode, RotationWarmup: warmup})
			var keys []Point
			for i := 0; i < 1000; i++ {
				p := Point{X: float64(i) * 10, Y: 0, T: float64(i)}
				if kp, ok := c.Push(p); ok {
					keys = append(keys, kp)
				}
			}
			if kp, ok := c.Flush(); ok {
				keys = append(keys, kp)
			}
			if len(keys) != 2 {
				t.Errorf("mode %v warmup %d: straight line kept %d points, want 2", mode, warmup, len(keys))
			}
		}
	}
}

func TestNoisyStraightLineWithinTolerance(t *testing.T) {
	// Noise below the tolerance must still compress to 2 points under the
	// line metric when the noise never exceeds d.
	rng := rand.New(rand.NewSource(4))
	c := mustCompressor(t, Config{Tolerance: 10})
	var keys []Point
	n := 500
	for i := 0; i < n; i++ {
		p := Point{X: float64(i) * 10, Y: rng.Float64()*8 - 4, T: float64(i)}
		if kp, ok := c.Push(p); ok {
			keys = append(keys, kp)
		}
	}
	if kp, ok := c.Flush(); ok {
		keys = append(keys, kp)
	}
	// The end point's own y offset can push interior deviations slightly;
	// allow a small number of cuts but require massive compression.
	if len(keys) > 6 {
		t.Errorf("noisy line kept %d key points", len(keys))
	}
}

func TestRightAngleTurnKeepsCorner(t *testing.T) {
	c := mustCompressor(t, Config{Tolerance: 2, RotationWarmup: 0})
	var pts []Point
	for i := 0; i <= 100; i++ {
		pts = append(pts, Point{X: float64(i), Y: 0, T: float64(i)})
	}
	for i := 1; i <= 100; i++ {
		pts = append(pts, Point{X: 100, Y: float64(i), T: float64(100 + i)})
	}
	keys := c.CompressBatch(pts)
	if len(keys) < 3 {
		t.Fatalf("right angle compressed to %d points, want ≥ 3", len(keys))
	}
	// One key point must be near the corner (100, 0).
	found := false
	for _, k := range keys {
		if math.Hypot(k.X-100, k.Y) <= 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("no key point near the corner; keys = %v", keys)
	}
	if err := Deviation(pts, keys, MetricLine.Dist); err > 2+1e-9 {
		t.Errorf("corner trajectory error %v > tolerance", err)
	}
}

// The paper's central claim: the compressed trajectory is error-bounded.
// Exercise every mode/metric/rotation combination on many random walks.
func TestErrorBoundInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	modes := []Mode{ModeExact, ModeFast}
	metrics := []Metric{MetricLine, MetricSegment}
	warmups := []int{0, 3, 5}
	for trial := 0; trial < 60; trial++ {
		n := 200 + rng.Intn(400)
		step := []float64{2, 10, 50}[rng.Intn(3)]
		pts := randomWalk(rng, n, step)
		tol := []float64{2, 5, 10, 20}[rng.Intn(4)]
		for _, mode := range modes {
			for _, metric := range metrics {
				for _, w := range warmups {
					c := mustCompressor(t, Config{
						Tolerance: tol, Mode: mode, Metric: metric, RotationWarmup: w,
					})
					keys := c.CompressBatch(pts)
					if len(keys) < 1 {
						t.Fatalf("no key points")
					}
					if !keys[0].Equal(pts[0]) {
						t.Fatalf("first key point %v != first point %v", keys[0], pts[0])
					}
					if !keys[len(keys)-1].Equal(pts[len(pts)-1]) {
						t.Fatalf("last key point %v != last point %v (mode %v)", keys[len(keys)-1], pts[len(pts)-1], mode)
					}
					err := Deviation(pts, keys, metric.Dist)
					if err > tol*(1+1e-9) {
						t.Fatalf("trial %d mode %v metric %v warmup %d tol %v: error %v exceeds bound",
							trial, mode, metric, w, tol, err)
					}
				}
			}
		}
	}
}

// FBQS takes at least as many points as BQS (it cuts on uncertainty), and
// both respect the bound.
func TestFastTakesAtLeastAsManyPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		pts := randomWalk(rng, 500, 10)
		exact := mustCompressor(t, Config{Tolerance: 10, Mode: ModeExact})
		fast := mustCompressor(t, Config{Tolerance: 10, Mode: ModeFast})
		ke := exact.CompressBatch(pts)
		kf := fast.CompressBatch(pts)
		if len(kf) < len(ke) {
			t.Errorf("trial %d: fast kept %d < exact %d", trial, len(kf), len(ke))
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randomWalk(rng, 2000, 10)
	for _, mode := range []Mode{ModeExact, ModeFast} {
		c := mustCompressor(t, Config{Tolerance: 10, Mode: mode})
		keys := c.CompressBatch(pts)
		s := c.Stats()
		if s.Points != len(pts) {
			t.Errorf("mode %v: points = %d, want %d", mode, s.Points, len(pts))
		}
		if s.KeyPoints != len(keys) {
			t.Errorf("mode %v: key points = %d, want %d", mode, s.KeyPoints, len(keys))
		}
		// Every pushed point lands in exactly one decision bucket; the first
		// push of each trajectory is its own implicit bucket.
		decisions := s.BoundIncludes + s.BoundRestarts + s.UncertainRestarts +
			s.ExactIncludes + s.ExactRestarts
		if got, want := decisions, s.Points-1; got != want {
			t.Errorf("mode %v: decisions = %d, want %d", mode, got, want)
		}
		if s.FullComputations != s.ExactIncludes+s.ExactRestarts {
			t.Errorf("mode %v: full computations %d != exact outcomes %d",
				mode, s.FullComputations, s.ExactIncludes+s.ExactRestarts)
		}
		if mode == ModeFast && s.ExactRestarts+s.ExactIncludes > 0 && c.Config().RotationWarmup == 0 {
			t.Errorf("fast mode without warmup performed exact scans")
		}
		if pp := s.PruningPower(); pp < 0 || pp > 1 {
			t.Errorf("pruning power out of range: %v", pp)
		}
		if cr := s.CompressionRate(); cr <= 0 || cr > 1 {
			t.Errorf("compression rate out of range: %v", cr)
		}
	}
}

// TestFastModeConstantSpace: FBQS holds nothing that grows with the segment.
// Under the segment metric that is the warm-up and the quadrants' 32
// significant points at most; under the line metric, the wedge alone: no
// point buffered, none significant, no warm-up.
func TestFastModeConstantSpace(t *testing.T) {
	for _, metric := range []Metric{MetricLine, MetricSegment} {
		for _, warmup := range []int{0, DefaultRotationWarmup} {
			rng := rand.New(rand.NewSource(14))
			pts := append(randomWalk(rng, 5000, 20), smoothWalk(rng, 5000)...)
			c := mustCompressor(t, Config{Tolerance: 5, Mode: ModeFast, Metric: metric, RotationWarmup: warmup})
			maxBuf, maxSig := warmup, 32
			if metric == MetricLine {
				maxBuf, maxSig = 0, 0
			}
			if got := c.Config().RotationWarmup; got != maxBuf {
				t.Errorf("%v, warm-up %d: Config reports warm-up %d", metric, warmup, got)
			}
			for _, p := range pts {
				c.Push(p)
				if got := c.BufferedPoints(); got > maxBuf {
					t.Fatalf("%v, warm-up %d: buffered %d points, want ≤ %d", metric, warmup, got, maxBuf)
				}
				if got := c.SignificantPointCount(); got > maxSig {
					t.Fatalf("%v: significant points = %d > %d", metric, got, maxSig)
				}
			}
		}
	}
}

func TestMaxBufferForcesCuts(t *testing.T) {
	// A long straight line of far-apart points never violates the bound, so
	// without a cap the buffer would grow without limit.
	var pts []Point
	for i := 0; i < 2000; i++ {
		pts = append(pts, Point{X: float64(i) * 100, Y: 0, T: float64(i)})
	}
	c := mustCompressor(t, Config{Tolerance: 10, Mode: ModeExact, MaxBuffer: 32, RotationWarmup: 0})
	keys := c.CompressBatch(pts)
	s := c.Stats()
	if s.BufferOverflows == 0 {
		t.Error("straight far-apart stream with tiny buffer should overflow")
	}
	if len(keys) < 2000/32 {
		t.Errorf("expected ≥ %d keys from forced cuts, got %d", 2000/32, len(keys))
	}
	if err := Deviation(pts, keys, MetricLine.Dist); err > 10 {
		t.Errorf("error bound broken under overflow cuts: %v", err)
	}

	// Without the cap the same stream must keep only two points and the
	// buffer is allowed to grow.
	c2 := mustCompressor(t, Config{Tolerance: 10, Mode: ModeExact, RotationWarmup: 0})
	keys2 := c2.CompressBatch(pts)
	if len(keys2) != 2 {
		t.Errorf("uncapped straight line kept %d keys, want 2", len(keys2))
	}
}

func TestTraceCallback(t *testing.T) {
	var traces []TracePoint
	cfg := Config{
		Tolerance: 10, Mode: ModeExact, RotationWarmup: 0,
		Trace: func(tp TracePoint) { traces = append(traces, tp) },
	}
	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"2d", func(t *testing.T) {
			mustCompressor(t, cfg).CompressBatch(randomWalk(rand.New(rand.NewSource(2)), 500, 10))
		}},
		// Long thin segments in a rotated frame: the upper bound traced, and
		// decided on, is the tolerance wherever the tangent wedge admitted the
		// path line.
		{"2d-smooth", func(t *testing.T) {
			rotated := cfg
			rotated.RotationWarmup = DefaultRotationWarmup
			mustCompressor(t, rotated).CompressBatch(smoothWalk(rand.New(rand.NewSource(2)), 5000))
		}},
		{"3d", func(t *testing.T) {
			c, err := NewCompressor3(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.CompressBatch3(randomWalk3(rand.New(rand.NewSource(2)), 500, 10))
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			traces = nil
			row.run(t)
			if len(traces) == 0 {
				t.Fatal("no trace points recorded")
			}
			for _, tp := range traces {
				if tp.LB > tp.UB+1e-9 {
					t.Errorf("trace %d: lb %v > ub %v", tp.Index, tp.LB, tp.UB)
				}
				if !math.IsNaN(tp.Actual) && (tp.Actual < tp.LB-1e-6 || tp.Actual > tp.UB+1e-6) {
					t.Errorf("trace %d: actual %v outside [%v, %v]", tp.Index, tp.Actual, tp.LB, tp.UB)
				}
			}
		})
	}
}

func TestResetClearsState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randomWalk(rng, 200, 10)
	c := mustCompressor(t, Config{Tolerance: 10})
	c.CompressBatch(pts)
	c.Reset()
	if s := c.Stats(); s.Points != 0 || s.KeyPoints != 0 {
		t.Errorf("stats after reset: %+v", s)
	}
	keys := c.CompressBatch(pts)
	if len(keys) == 0 {
		t.Error("compressor unusable after reset")
	}
}

func TestFlushStartsNewTrajectory(t *testing.T) {
	c := mustCompressor(t, Config{Tolerance: 5})
	a := []Point{{0, 0, 0}, {100, 0, 1}, {200, 0, 2}}
	for _, p := range a {
		c.Push(p)
	}
	kp, ok := c.Flush()
	if !ok || !kp.Equal(a[2]) {
		t.Fatalf("flush = (%v,%v)", kp, ok)
	}
	// Next push must start a fresh trajectory and emit its first point.
	b := Point{X: 500, Y: 500, T: 10}
	kp, ok = c.Push(b)
	if !ok || !kp.Equal(b) {
		t.Errorf("push after flush = (%v,%v), want the point", kp, ok)
	}
}

func TestDuplicatePointsHandled(t *testing.T) {
	c := mustCompressor(t, Config{Tolerance: 5})
	pts := []Point{
		{0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {100, 0, 3}, {100, 0, 4}, {200, 0, 5},
	}
	keys := c.CompressBatch(pts)
	if len(keys) < 2 {
		t.Fatalf("keys = %v", keys)
	}
	if err := Deviation(pts, keys, MetricLine.Dist); err > 5 {
		t.Errorf("duplicate-point stream error %v", err)
	}
}

func TestReturnToStartSplitsSegment(t *testing.T) {
	// Out-and-back along the same line with a large lateral excursion:
	// coming back near the start must not corrupt the bound (the
	// theorem-5.1 corner case described in DESIGN.md). Nor may coming back
	// onto the start, or within Eps of it: a path line with no direction,
	// which must cut while the excursion is tracked.
	tracks := [][]Point{
		{{0, 0, 0}, {50, 0, 1}, {50, 50, 2}, {1, 0.5, 3}, {-50, 0, 4}},
		{{0, 0, 0}, {50, 0, 1}, {0, 0, 2}, {0, -50, 3}},
		{{0, 0, 0}, {50, 0, 1}, {1e-10, -1e-10, 2}, {0, -50, 3}},
	}
	for i, pts := range tracks {
		for _, mode := range []Mode{ModeExact, ModeFast} {
			c := mustCompressor(t, Config{Tolerance: 2, Mode: mode, RotationWarmup: 0})
			keys := c.CompressBatch(pts)
			if err := Deviation(pts, keys, MetricLine.Dist); err > 2+1e-9 {
				t.Fatalf("track %d %v: error %v > 2; keys = %v", i, mode, err, keys)
			}
		}
	}
}

func TestCompressBatchEmpty(t *testing.T) {
	c := mustCompressor(t, Config{Tolerance: 5})
	if got := c.CompressBatch(nil); got != nil {
		t.Errorf("CompressBatch(nil) = %v", got)
	}
}

func TestSegmentMetricNeverWorseThanLineForClosedPaths(t *testing.T) {
	// With the segment metric, deviations are measured to the closed
	// segment, which is ≥ the line distance, so segment-metric compression
	// keeps at least as many points on adversarial loops.
	rng := rand.New(rand.NewSource(5))
	totalLine, totalSeg := 0, 0
	for trial := 0; trial < 10; trial++ {
		pts := randomWalk(rng, 400, 15)
		cl := mustCompressor(t, Config{Tolerance: 10, Metric: MetricLine})
		cs := mustCompressor(t, Config{Tolerance: 10, Metric: MetricSegment})
		totalLine += len(cl.CompressBatch(pts))
		totalSeg += len(cs.CompressBatch(pts))
	}
	if totalSeg < totalLine {
		t.Errorf("segment metric kept fewer points (%d) than line metric (%d)", totalSeg, totalLine)
	}
}

func TestKeyPointsAreStreamPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randomWalk(rng, 300, 10)
	byT := map[float64]Point{}
	for _, p := range pts {
		byT[p.T] = p
	}
	c := mustCompressor(t, Config{Tolerance: 8})
	keys := c.CompressBatch(pts)
	for _, k := range keys {
		orig, ok := byT[k.T]
		if !ok || !orig.Equal(k) {
			t.Errorf("key point %v is not a stream point", k)
		}
	}
	// Key points must be strictly increasing in time.
	for i := 1; i < len(keys); i++ {
		if keys[i].T <= keys[i-1].T {
			t.Errorf("key points out of order: %v then %v", keys[i-1], keys[i])
		}
	}
}
