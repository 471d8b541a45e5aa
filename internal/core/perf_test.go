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
	c, err := NewCompressor(Config{Tolerance: 10, Mode: ModeFast, RotationWarmup: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pts := randomWalk(rng, 4096, 15)
	// Reach steady state: the warmup slice is at capacity and a few
	// segments (including cuts) have been processed.
	for _, p := range pts {
		c.Push(p)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		c.Push(pts[i%len(pts)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state fast-mode Push = %v allocs/op, want 0", allocs)
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

// benchmarkCorePush drives a single compressor over a pre-generated
// correlated random walk, one fix per op; SetBytes(24) makes the reported
// MB/s convertible to fixes/s (24 bytes per fix) for the benchmark JSON
// emitter.
func benchmarkCorePush(b *testing.B, mode Mode) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	pts := randomWalk(rng, 1<<14, 15)
	c, err := NewCompressor(Config{Tolerance: 10, Mode: mode, RotationWarmup: -1})
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

func BenchmarkCorePushFast(b *testing.B)  { benchmarkCorePush(b, ModeFast) }
func BenchmarkCorePushExact(b *testing.B) { benchmarkCorePush(b, ModeExact) }

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
