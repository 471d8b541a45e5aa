package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/synth"
)

// deviceTrack generates a deterministic per-device trajectory from the
// paper's synthetic walk model; the same seed always yields the same
// trajectory.
func deviceTrack(seed int64, n int) []core.Point {
	cfg := synth.DefaultWalkConfig(seed)
	cfg.N = n
	return synth.Walk(cfg).Points()
}

// keyCollector gathers per-device key points from the OnKey callback.
type keyCollector struct {
	mu sync.Mutex
	m  map[string][]core.Point
}

func newKeyCollector() *keyCollector {
	return &keyCollector{m: make(map[string][]core.Point)}
}

func (kc *keyCollector) add(device string, kp core.Point) {
	kc.mu.Lock()
	kc.m[device] = append(kc.m[device], kp)
	kc.mu.Unlock()
}

func (kc *keyCollector) get(device string) []core.Point {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	return kc.m[device]
}

// csvBytes renders key points in the wire CSV format used for the
// byte-identity comparison.
func csvBytes(t *testing.T, pts []core.Point) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := stream.WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineByteIdenticalConcurrent drives 1200 concurrent device
// sessions through the engine from 16 goroutines and checks every
// session's compressed output is byte-identical to running its
// compressor single-threaded.
func TestEngineByteIdenticalConcurrent(t *testing.T) {
	const (
		devices = 1200
		perDev  = 64
		workers = 16
		step    = 4
		tol     = 10.0
	)
	tracks := make([][]core.Point, devices)
	for d := range tracks {
		tracks[d] = deviceTrack(int64(d)+1, perDev)
	}
	name := func(d int) string { return fmt.Sprintf("dev-%04d", d) }

	kc := newKeyCollector()
	e, err := New(Config{
		Compressor: "fbqs",
		Tolerance:  tol,
		Shards:     8,
		OnKey:      kc.add,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns a disjoint set of devices and pushes
			// their fixes in order, in mixed-device batches.
			for lo := 0; lo < perDev; lo += step {
				var batch []Fix
				for d := w; d < devices; d += workers {
					for k := lo; k < lo+step; k++ {
						batch = append(batch, Fix{Device: name(d), Point: tracks[d][k]})
					}
				}
				if err := e.Ingest(batch); err != nil {
					t.Errorf("Ingest: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	totalKeys := uint64(0)
	for d := 0; d < devices; d++ {
		c, err := stream.New("fbqs", tol)
		if err != nil {
			t.Fatal(err)
		}
		want := stream.Compress(c, tracks[d])
		got := kc.get(name(d))
		if !bytes.Equal(csvBytes(t, want), csvBytes(t, got)) {
			t.Fatalf("device %d: engine output differs from single-threaded run:\nwant %d keys %v\ngot  %d keys %v",
				d, len(want), want[:min(3, len(want))], len(got), got[:min(3, len(got))])
		}
		totalKeys += uint64(len(want))
	}

	s := e.Stats()
	if s.SessionsOpened != devices {
		t.Errorf("SessionsOpened = %d, want %d", s.SessionsOpened, devices)
	}
	if s.ActiveSessions != 0 {
		t.Errorf("ActiveSessions = %d after Close, want 0", s.ActiveSessions)
	}
	if s.Fixes != devices*perDev {
		t.Errorf("Fixes = %d, want %d", s.Fixes, devices*perDev)
	}
	if s.KeyPoints != totalKeys {
		t.Errorf("KeyPoints = %d, want %d", s.KeyPoints, totalKeys)
	}
}

// TestEngineIdleEviction drives eviction with a fake clock and checks the
// evicted session was flushed exactly like a single-threaded run.
func TestEngineIdleEviction(t *testing.T) {
	const tol = 5.0
	var now atomic.Int64
	clock := func() time.Time { return time.Unix(now.Load(), 0) }

	kc := newKeyCollector()
	e, err := New(Config{
		Compressor:  "bqs",
		Tolerance:   tol,
		Shards:      2,
		IdleTimeout: 10 * time.Second,
		Clock:       clock,
		OnKey:       kc.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	track := deviceTrack(42, 80)
	fixes := make([]Fix, len(track))
	for i, p := range track {
		fixes[i] = Fix{Device: "a", Point: p}
	}
	if err := e.Ingest(fixes); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest([]Fix{{Device: "b", Point: core.Point{X: 1, Y: 2, T: 3}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}

	// Nothing is idle yet: the sweep must evict nothing.
	if err := e.EvictIdle(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.SessionsEvicted != 0 || s.ActiveSessions != 2 {
		t.Fatalf("premature eviction: %+v", s)
	}

	// Advance past the idle timeout, keep "b" fresh, sweep.
	now.Store(11)
	if err := e.Ingest([]Fix{{Device: "b", Point: core.Point{X: 2, Y: 2, T: 4}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.EvictIdle(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.SessionsEvicted != 1 {
		t.Fatalf("SessionsEvicted = %d, want 1", s.SessionsEvicted)
	}
	if s.ActiveSessions != 1 {
		t.Fatalf("ActiveSessions = %d, want 1 (only b)", s.ActiveSessions)
	}

	// The evicted session's output must include the final Flush, i.e.
	// match a full single-threaded Compress of the same track.
	c, err := stream.New("bqs", tol)
	if err != nil {
		t.Fatal(err)
	}
	want := stream.Compress(c, track)
	if !bytes.Equal(csvBytes(t, want), csvBytes(t, kc.get("a"))) {
		t.Fatalf("evicted session output not flushed correctly:\nwant %v\ngot  %v", want, kc.get("a"))
	}

	// Re-contact after eviction opens a fresh session (exercising the
	// compressor pool).
	if err := e.Ingest([]Fix{{Device: "a", Point: core.Point{X: 9, Y: 9, T: 100}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.SessionsOpened != 3 || s.ActiveSessions != 2 {
		t.Fatalf("re-contact after eviction: %+v", s)
	}
}

// TestEngineClosed checks shutdown semantics.
func TestEngineClosed(t *testing.T) {
	e, err := New(Config{Compressor: "fbqs", Tolerance: 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest([]Fix{{Device: "a", Point: core.Point{X: 1, Y: 1, T: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("second Close should be a no-op, got", err)
	}
	if err := e.Ingest([]Fix{{Device: "a", Point: core.Point{X: 2, Y: 2, T: 2}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}
	if err := e.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if err := e.EvictIdle(); !errors.Is(err, ErrClosed) {
		t.Fatalf("EvictIdle after Close = %v, want ErrClosed", err)
	}
	// Close flushed the single session: its only point is its only key.
	if s := e.Stats(); s.KeyPoints != 1 || s.ActiveSessions != 0 {
		t.Fatalf("post-close stats: %+v", s)
	}
}

// TestEngineConfigValidation checks that bad configurations fail at
// construction, not on the first fix.
func TestEngineConfigValidation(t *testing.T) {
	if _, err := New(Config{Compressor: "no-such-algo", Tolerance: 10}); !errors.Is(err, stream.ErrUnknownCompressor) {
		t.Fatalf("unknown compressor: err = %v", err)
	}
	if _, err := New(Config{Compressor: "fbqs", Tolerance: -1}); err == nil {
		t.Fatal("negative tolerance accepted")
	}
	if _, err := New(Config{Compressor: "fbqs", Tolerance: 10, IdleTimeout: -time.Second}); err == nil {
		t.Fatal("negative IdleTimeout accepted")
	}
}

// TestEngineChaos hammers one engine from many goroutines — overlapping
// devices, concurrent Stats/Sync/EvictIdle, a live idle ticker — to give
// the race detector surface area. Determinism is not checked here.
func TestEngineChaos(t *testing.T) {
	e, err := New(Config{
		Compressor:  "fbqs",
		Tolerance:   10,
		Shards:      4,
		IdleTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := deviceTrack(int64(w), 300)
			for i, p := range track {
				dev := fmt.Sprintf("shared-%d", i%40) // overlap across workers
				if err := e.Ingest([]Fix{{Device: dev, Point: p}}); err != nil {
					t.Errorf("Ingest: %v", err)
					return
				}
				switch i % 100 {
				case 50:
					e.Stats()
				case 75:
					if err := e.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
				case 99:
					if err := e.EvictIdle(); err != nil {
						t.Errorf("EvictIdle: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Fixes != workers*300 {
		t.Fatalf("Fixes = %d, want %d", s.Fixes, workers*300)
	}
	if s.ActiveSessions != 0 {
		t.Fatalf("ActiveSessions = %d after Close", s.ActiveSessions)
	}
}
