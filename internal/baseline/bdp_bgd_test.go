package baseline

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
)

func runBDP(t *testing.T, pts []core.Point, tol float64, size int) []core.Point {
	t.Helper()
	c, err := NewBufferedDP(tol, size, core.MetricLine)
	if err != nil {
		t.Fatal(err)
	}
	var keys []core.Point
	for _, p := range pts {
		keys = append(keys, c.Push(p)...)
	}
	keys = append(keys, c.Flush()...)
	return keys
}

func runBGD(t *testing.T, pts []core.Point, tol float64, size int) []core.Point {
	t.Helper()
	c, err := NewBufferedGreedy(tol, size, core.MetricLine)
	if err != nil {
		t.Fatal(err)
	}
	var keys []core.Point
	for _, p := range pts {
		if kp, ok := c.Push(p); ok {
			keys = append(keys, kp)
		}
	}
	if kp, ok := c.Flush(); ok {
		keys = append(keys, kp)
	}
	return keys
}

func TestBufferedDPStraightLineOverhead(t *testing.T) {
	// The paper's structural argument: on a straight line of N points with
	// buffer M, BDP keeps ≈ ⌊N/M⌋+1 points instead of 2. With the seed
	// point each buffer consumes M-1 new points, so the exact count is
	// ⌈(N-1)/(M-1)⌉+1.
	var pts []core.Point
	n, m := 320, 32
	for i := 0; i < n; i++ {
		pts = append(pts, core.Point{X: float64(i) * 10, Y: 0, T: float64(i)})
	}
	keys := runBDP(t, pts, 5, m)
	want := (n-2)/(m-1) + 2
	if len(keys) != want {
		t.Errorf("straight-line BDP kept %d points, want %d", len(keys), want)
	}
}

func TestBufferedDPErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		pts := randomWalk(rng, 400, 10)
		keys := runBDP(t, pts, 10, 32)
		if got := core.Deviation(pts, keys, core.MetricLine.Dist); got > 10*(1+1e-9) {
			t.Fatalf("trial %d: BDP error %v > 10", trial, got)
		}
		if !keys[0].Equal(pts[0]) || !keys[len(keys)-1].Equal(pts[len(pts)-1]) {
			t.Fatal("BDP endpoints not preserved")
		}
		for i := 1; i < len(keys); i++ {
			if keys[i].T <= keys[i-1].T {
				t.Fatalf("BDP keys out of order at %d", i)
			}
		}
	}
}

func TestBufferedDPStats(t *testing.T) {
	pts := randomWalk(rand.New(rand.NewSource(3)), 200, 10)
	c, err := NewBufferedDP(10, 32, core.MetricLine)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range pts {
		n += len(c.Push(p))
	}
	n += len(c.Flush())
	points, keys := c.Stats()
	if points != len(pts) || keys != n {
		t.Errorf("stats = (%d,%d), want (%d,%d)", points, keys, len(pts), n)
	}
}

func TestBufferedDPValidation(t *testing.T) {
	if _, err := NewBufferedDP(0, 32, core.MetricLine); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := NewBufferedDP(5, 2, core.MetricLine); err == nil {
		t.Error("buffer of 2 accepted")
	}
}

func TestBufferedDPReusableAfterFlush(t *testing.T) {
	c, err := NewBufferedDP(5, 8, core.MetricLine)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Push(core.Point{X: float64(i), T: float64(i)})
	}
	first := c.Flush()
	if len(first) == 0 {
		t.Fatal("no flush output")
	}
	// Second trajectory must re-emit its own first point.
	out := c.Push(core.Point{X: 100, Y: 100, T: 100})
	if len(out) != 1 || out[0].X != 100 {
		t.Errorf("second trajectory start = %v", out)
	}
}

func TestBufferedGreedyErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		pts := randomWalk(rng, 400, 10)
		keys := runBGD(t, pts, 10, 32)
		if got := core.Deviation(pts, keys, core.MetricLine.Dist); got > 10*(1+1e-9) {
			t.Fatalf("trial %d: BGD error %v > 10", trial, got)
		}
		if !keys[0].Equal(pts[0]) || !keys[len(keys)-1].Equal(pts[len(pts)-1]) {
			t.Fatal("BGD endpoints not preserved")
		}
	}
}

func TestBufferedGreedyStraightLineBufferCuts(t *testing.T) {
	// BGD on a straight line cuts on every buffer fill: ~N/M extra points.
	var pts []core.Point
	n, m := 320, 32
	for i := 0; i < n; i++ {
		pts = append(pts, core.Point{X: float64(i) * 10, Y: 0, T: float64(i)})
	}
	keys := runBGD(t, pts, 5, m)
	if len(keys) < n/m {
		t.Errorf("straight-line BGD kept %d points, want ≥ %d from buffer cuts", len(keys), n/m)
	}
	if len(keys) > n/m+3 {
		t.Errorf("straight-line BGD kept %d points, want ≈ %d", len(keys), n/m+1)
	}
}

func TestBufferedGreedyScansGrowWithBuffer(t *testing.T) {
	// The O(nL) cost story of Table III: total deviation-scan work grows
	// with the buffer size. Here we just verify scans happen on every push.
	pts := randomWalk(rand.New(rand.NewSource(5)), 300, 10)
	c, err := NewBufferedGreedy(10, 64, core.MetricLine)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		c.Push(p)
	}
	points, _, scans := c.Stats()
	if points != len(pts) {
		t.Errorf("points = %d", points)
	}
	if scans != len(pts)-1 {
		t.Errorf("scans = %d, want %d", scans, len(pts)-1)
	}
}

func TestBufferedGreedyValidation(t *testing.T) {
	if _, err := NewBufferedGreedy(-1, 32, core.MetricLine); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := NewBufferedGreedy(5, 0, core.MetricLine); err == nil {
		t.Error("zero buffer accepted")
	}
}

func TestBufferedGreedySinglePointFlush(t *testing.T) {
	c, _ := NewBufferedGreedy(5, 32, core.MetricLine)
	p := core.Point{X: 1, Y: 2, T: 3}
	kp, ok := c.Push(p)
	if !ok || !kp.Equal(p) {
		t.Fatalf("first push = (%v,%v)", kp, ok)
	}
	if _, ok := c.Flush(); ok {
		t.Error("single-point flush emitted a duplicate")
	}
	if _, ok := c.Flush(); ok {
		t.Error("double flush emitted")
	}
}

// smoothTrace generates a GPS-like trace in the regime of the paper's real
// datasets: most samples sit in dwell phases (roosting animals, parked
// vehicles) with metre-scale jitter, interleaved with movement legs. Dwells
// are where BQS's Theorem 5.1 shines and where buffer-full cuts penalize
// the windowed baselines.
func smoothTrace(rng *rand.Rand, n int) []core.Point {
	pts := make([]core.Point, 0, n)
	x, y := 0.0, 0.0
	heading := rng.Float64() * 2 * math.Pi
	for len(pts) < n {
		if rng.Intn(3) > 0 { // dwell (the dominant phase)
			for j := 0; j < 100+rng.Intn(200) && len(pts) < n; j++ {
				pts = append(pts, core.Point{
					X: x + rng.NormFloat64()*2, Y: y + rng.NormFloat64()*2,
					T: float64(len(pts)),
				})
			}
			heading = rng.Float64() * 2 * math.Pi
			continue
		}
		leg := 20 + rng.Intn(60)
		for j := 0; j < leg && len(pts) < n; j++ {
			heading += rng.NormFloat64() * 0.05
			sp := 300 + rng.Float64()*300
			x += math.Cos(heading) * sp
			y += math.Sin(heading) * sp
			pts = append(pts, core.Point{
				X: x + rng.NormFloat64()*3, Y: y + rng.NormFloat64()*3,
				T: float64(len(pts)),
			})
		}
	}
	return pts
}

// The ordering behind Figure 7: BQS ≤ FBQS ≤ {BGD, BDP} in kept points on
// GPS-like workloads (long smooth legs plus dwells).
func TestOnlineAlgorithmOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var nBQS, nFBQS, nBGD, nBDP int
	for trial := 0; trial < 10; trial++ {
		pts := smoothTrace(rng, 600)
		bqs, err := core.NewCompressor(core.Config{Tolerance: 10, Mode: core.ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		fbqs, err := core.NewCompressor(core.Config{Tolerance: 10, Mode: core.ModeFast})
		if err != nil {
			t.Fatal(err)
		}
		nBQS += len(bqs.CompressBatch(pts))
		nFBQS += len(fbqs.CompressBatch(pts))
		nBGD += len(runBGD(t, pts, 10, 32))
		nBDP += len(runBDP(t, pts, 10, 32))
	}
	if nBQS > nFBQS {
		t.Errorf("BQS %d > FBQS %d", nBQS, nFBQS)
	}
	if nFBQS > nBGD {
		t.Errorf("FBQS %d > BGD %d", nFBQS, nBGD)
	}
	if nFBQS > nBDP {
		t.Errorf("FBQS %d > BDP %d", nFBQS, nBDP)
	}
	t.Logf("points kept: BQS=%d FBQS=%d BGD=%d BDP=%d", nBQS, nFBQS, nBGD, nBDP)
}
