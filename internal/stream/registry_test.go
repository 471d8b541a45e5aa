package stream

import (
	"errors"
	"runtime"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
)

func TestRegistryBuiltins(t *testing.T) {
	names := Names()
	for _, want := range []string{"bqs", "fbqs", "dr", "timesensitive", "bdp", "bgd"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("builtin %q not registered (have %v)", want, names)
		}
	}
	// Every builtin constructs and round-trips a tiny stream within its
	// error bound contract (smoke: emits at least first point).
	pts := []core.Point{
		{X: 0, Y: 0, T: 0}, {X: 10, Y: 1, T: 1}, {X: 20, Y: -1, T: 2}, {X: 30, Y: 0, T: 3},
	}
	for _, n := range names {
		c, err := New(n, 5)
		if err != nil {
			t.Errorf("New(%q): %v", n, err)
			continue
		}
		keys := Compress(c, pts)
		if len(keys) == 0 {
			t.Errorf("%q: no key points from %d-point stream", n, len(pts))
		}
		if len(keys) > 0 && !keys[0].Equal(pts[0]) {
			t.Errorf("%q: first key %v, want first point %v", n, keys[0], pts[0])
		}
	}
}

// TestFBQSSessionBytes is what one engine session's compressor costs the
// heap: "fbqs", warmed over a zigzag that tracks far points and cuts, holds
// the decision loop, the tangent wedge and the grid frame's step and cap —
// about 364 B, where the quadrant frame and its rotation warm-up took 1.3 KB.
func TestFBQSSessionBytes(t *testing.T) {
	const n, limit = 2000, 400
	var pts []core.Point
	for i := 0; i < 40; i++ {
		pts = append(pts, core.Point{X: 30 * float64(i), Y: 40 * float64(i%7), T: float64(i)})
	}
	held := make([]Compressor, n)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := range held {
		c, err := New("fbqs", 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			c.Push(p)
		}
		held[i] = c
	}
	per := (int64(heap()) - int64(before)) / n
	runtime.KeepAlive(held)
	t.Logf("%d B per warmed fbqs compressor", per)
	if per > limit {
		t.Errorf("a warmed fbqs compressor holds %d B of heap, want ≤ %d", per, limit)
	}
}

func TestRegistryUnknownName(t *testing.T) {
	_, err := New("definitely-not-registered", 5)
	if !errors.Is(err, ErrUnknownCompressor) {
		t.Fatalf("err = %v, want ErrUnknownCompressor", err)
	}
}

func TestRegistryDuplicateRegister(t *testing.T) {
	f := func(tol float64) (Compressor, error) {
		c, err := core.NewCompressor(core.Config{Tolerance: tol})
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	if err := Register("dup-test", f); err != nil {
		t.Fatal(err)
	}
	if err := Register("dup-test", f); !errors.Is(err, ErrDuplicateCompressor) {
		t.Fatalf("second Register = %v, want ErrDuplicateCompressor", err)
	}
}

func TestRegistryNilFactoryAndEmptyName(t *testing.T) {
	if err := Register("nil-test", nil); !errors.Is(err, ErrNilFactory) {
		t.Fatalf("nil factory: err = %v, want ErrNilFactory", err)
	}
	if err := Register("", func(float64) (Compressor, error) { return nil, nil }); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestRegistryFactoryError(t *testing.T) {
	// A registered factory's own validation error must pass through
	// (and not be confused with an unknown name).
	_, err := New("fbqs", -1)
	if err == nil {
		t.Fatal("negative tolerance accepted")
	}
	if errors.Is(err, ErrUnknownCompressor) {
		t.Fatalf("factory error mislabeled as unknown name: %v", err)
	}
}
