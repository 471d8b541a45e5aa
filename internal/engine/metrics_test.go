package engine

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// windowFailPersister accepts appends but cannot answer window queries
// — the durable half of QueryWindow fails while the live half works.
type windowFailPersister struct{ trajstore.Backend }

var errWindowBoom = errors.New("window boom")

func (windowFailPersister) WindowBlocks(_, _, _, _ float64, _, _ uint32, _ func(trajstore.Block) error) error {
	return errWindowBoom
}

// TestEngineQueryWindowPartialResult pins the error contract: when the
// durable side fails, QueryWindow returns the live-side answer AND an
// error matching ErrPartialResult that wraps the underlying failure —
// never a silent partial slice, never an empty result with an error.
func TestEngineQueryWindowPartialResult(t *testing.T) {
	e, err := New(Config{
		Compressor: "fbqs", Tolerance: 5, Shards: 2,
		IdleTimeout: time.Hour, Persister: windowFailPersister{trajstore.AppendOnly(nil)},
		Clock: func() time.Time { return time.Unix(0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	track := gridWalk(0, 200, rng)
	for i := range track {
		if err := e.Ingest([]Fix{{Device: "roamer", Point: track[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}

	out, err := e.QueryWindow(-1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32)
	if !errors.Is(err, ErrPartialResult) {
		t.Fatalf("QueryWindow error = %v, want ErrPartialResult", err)
	}
	if !errors.Is(err, errWindowBoom) {
		t.Fatalf("QueryWindow error = %v, does not wrap the durable failure", err)
	}
	if len(out) == 0 {
		t.Fatal("partial result dropped the live-side answer")
	}
}

// TestEngineQueryWindowCloseRace loops QueryWindow against a real
// segment-log persister while Close tears the engine down: every call
// must return either a successful answer or ErrClosed — never a partial
// result manufactured by racing the persister's teardown, and never a
// use of a closed log (the old closed-check TOCTOU). Run with -race.
func TestEngineQueryWindowCloseRace(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		dir := t.TempDir()
		lg, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{CacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{
			Compressor: "fbqs", Tolerance: 5, Shards: 2,
			IdleTimeout: time.Hour, Persister: lg,
			Clock: func() time.Time { return time.Unix(0, 0) },
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(iter)))
		track := gridWalk(0, 150, rng)
		for i := range track {
			if err := e.Ingest([]Fix{{Device: "roamer", Point: track[i]}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		fail := make(chan error, 8)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					_, err := e.QueryWindow(-1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32)
					if err != nil {
						if err != ErrClosed {
							fail <- err
						}
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := e.Close(); err != nil {
				fail <- err
			}
		}()
		close(start)
		wg.Wait()
		select {
		case err := <-fail:
			t.Fatalf("iter %d: %v", iter, err)
		default:
		}
	}
}

// TestEngineStatsCacheCounters: the engine's reads go through the log's
// read cache and show in the log's own Stats (the engine relays nothing),
// and both Stats stay callable after Close with their final counters.
func TestEngineStatsCacheCounters(t *testing.T) {
	dir := t.TempDir()
	lg, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Compressor: "fbqs", Tolerance: 5, Shards: 2,
		IdleTimeout: time.Hour, Persister: lg,
		Clock: func() time.Time { return time.Unix(0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	track := gridWalk(0, 300, rng)
	for i := range track {
		if err := e.Ingest([]Fix{{Device: "roamer", Point: track[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	// Flush the session durably, then reopen so the window query must
	// read (and cache) from the log rather than the live stores.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	lg2, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(Config{
		Compressor: "fbqs", Tolerance: 5, Shards: 2,
		IdleTimeout: time.Hour, Persister: lg2,
		Clock: func() time.Time { return time.Unix(0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ { // some live traffic so post-Close counters are nonzero
		if err := e2.Ingest([]Fix{{Device: "walker", Point: track[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	query := func() {
		t.Helper()
		if _, err := e2.QueryWindow(-1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32); err != nil {
			t.Fatal(err)
		}
	}
	query()
	s := lg2.Stats().Cache
	if s.Capacity == 0 {
		t.Fatal("Stats does not surface the cache capacity")
	}
	if s.Misses == 0 || s.Entries == 0 {
		t.Fatalf("cold query left no cache footprint in Stats: %+v", s)
	}
	query()
	s2 := lg2.Stats().Cache
	if s2.Hits <= s.Hits {
		t.Fatalf("warm query did not advance Stats cache hits: %d -> %d", s.Hits, s2.Hits)
	}

	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	post := e2.Stats() // must not panic or race; the persister is closed
	if got := lg2.Stats().Cache; got != s2 {
		t.Fatalf("post-Close log Stats lost the cache counters: %+v, want %+v", got, s2)
	}
	if post.Fixes == 0 {
		t.Fatal("post-Close Stats lost the ingest counters")
	}
}
