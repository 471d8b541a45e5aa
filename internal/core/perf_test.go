package core

import (
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/geom"
)

// The "on the go" promise requires the steady-state decision loop to stay
// off the allocator entirely: these assertions pin fast-mode Push and the
// quadrant bound evaluation at 0 allocs/op, so an accidental closure or
// escaping slice shows up as a test failure, not just a benchmark drift.

func TestPushFastZeroAllocs(t *testing.T) {
	for _, snap := range []bool{false, true} {
		c, err := NewCompressor(Config{Tolerance: 10, Mode: ModeFast, RotationWarmup: -1, Snap: snap})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		pts := randomWalk(rng, 4096, 15)
		// Reach steady state: a few segments (including cuts) have been
		// processed.
		for _, p := range pts {
			c.Push(p)
		}
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			c.Push(pts[i%len(pts)])
			i++
		})
		if allocs != 0 {
			t.Fatalf("steady-state fast-mode Push, Snap %v = %v allocs/op, want 0", snap, allocs)
		}
	}
}

func TestQuadrantBoundsZeroAllocs(t *testing.T) {
	var q quadrant
	q.reset(0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 12; i++ {
		q.insert(quadrantPoint(rng, 0))
	}
	ends := [4]geom.Vec{geom.V(30, 40), geom.V(-25, 60), geom.V(80, 0), geom.V(1e-12, 0)}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		e := ends[i%len(ends)]
		q.boundsAt(e, MetricLine)
		q.boundsAt(e, MetricSegment)
		i++
	})
	if allocs != 0 {
		t.Fatalf("quadrant bounds = %v allocs/op, want 0", allocs)
	}
}

// wedgeTrack is a long thin run of local points, 12 m steps within a few
// metres of the x axis, and path-line directions on both sides of what the
// wedge over them admits.
func wedgeTrack() (track, ends [64]geom.Vec) {
	rng := rand.New(rand.NewSource(19))
	for i := range track {
		track[i] = geom.V(12*float64(i+2), rng.NormFloat64()*3)
		ends[i] = geom.V(800, rng.NormFloat64()*8)
	}
	return track, ends
}

func TestWedgeZeroAllocs(t *testing.T) {
	track, ends := wedgeTrack()
	var w wedge
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if i&63 == 0 {
			w = wedge{}
		}
		w.insert(track[i&63], 10)
		w.admits(ends[i&63])
		i++
	})
	if allocs != 0 {
		t.Fatalf("wedge insert + admits = %v allocs/op, want 0", allocs)
	}
}

// benchmarkCorePush drives a single compressor over a pre-generated
// correlated random walk, one fix per op; SetBytes(24) makes the reported
// MB/s convertible to fixes/s (24 bytes per fix) for the benchmark JSON
// emitter.
func benchmarkCorePush(b *testing.B, mode Mode, snap bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	pts := randomWalk(rng, 1<<14, 15)
	c, err := NewCompressor(Config{Tolerance: 10, Mode: mode, RotationWarmup: -1, Snap: snap})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Push(pts[i&(1<<14-1)])
	}
}

func BenchmarkCorePushFast(b *testing.B)  { benchmarkCorePush(b, ModeFast, false) }
func BenchmarkCorePushExact(b *testing.B) { benchmarkCorePush(b, ModeExact, false) }

// BenchmarkCorePushSnap is the registered "fbqs"'s Push: FBQS on the grid
// frame, which looks for a joint at every fix.
func BenchmarkCorePushSnap(b *testing.B) { benchmarkCorePush(b, ModeFast, true) }

func BenchmarkQuadrantBounds(b *testing.B) {
	var q quadrant
	q.reset(0)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 12; i++ {
		q.insert(quadrantPoint(rng, 0))
	}
	ends := make([]geom.Vec, 64)
	for i := range ends {
		ends[i] = geom.V(rng.NormFloat64()*60, rng.NormFloat64()*60)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.boundsAt(ends[i&63], MetricLine)
	}
}

// BenchmarkWedge is what the tangent wedge costs a tracked point: one insert
// and one question, over segments of 64 points.
func BenchmarkWedge(b *testing.B) {
	track, ends := wedgeTrack()
	var w wedge
	admitted := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&63 == 0 {
			w = wedge{}
		}
		w.insert(track[i&63], 10)
		if w.admits(ends[i&63]) {
			admitted++
		}
	}
	b.ReportMetric(float64(admitted)/float64(b.N), "admitted/op")
}
