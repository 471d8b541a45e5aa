package bqs_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/trajcomp/bqs"
)

// TestEngineFacade exercises the public engine surface end to end:
// named-compressor construction, ingestion, and a caller-owned Store fed
// from OnKey — the way to put merge-tolerance storage behind an engine,
// which keeps no history of its own without a Persister.
func TestEngineFacade(t *testing.T) {
	store, err := bqs.NewStore(bqs.StoreConfig{MergeTolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last sync.Map // device → its previous key point
	e, err := bqs.NewEngine(bqs.EngineConfig{
		Compressor: "fbqs",
		Tolerance:  10,
		Shards:     4,
		OnKey: func(device string, kp bqs.Point) {
			if prev, ok := last.Swap(device, kp); ok {
				store.Insert(prev.(bqs.Point), kp)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var fixes []bqs.Fix
	for d := 0; d < 50; d++ {
		dev := fmt.Sprintf("dev-%d", d)
		for i := 0; i < 40; i++ {
			fixes = append(fixes, bqs.Fix{Device: dev, Point: bqs.Point{
				X: float64(i * 30), Y: float64(d % 7 * 25), T: float64(i),
			}})
		}
	}
	if err := e.Ingest(fixes); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryWindow(-1e6, -1e6, 1e6, 1e6, 0, 100); !errors.Is(err, bqs.ErrNoPersister) {
		t.Fatalf("QueryWindow without a Persister = %v, want ErrNoPersister", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Fixes != 50*40 || s.SessionsOpened != 50 {
		t.Fatalf("stats: %+v", s)
	}
	if s.KeyPoints == 0 || s.CompressionRate() >= 1 {
		t.Fatalf("no compression: %+v", s)
	}
	if store.Len() == 0 {
		t.Fatal("no segments stored")
	}
	if inserted, merged := store.Stats(); merged == 0 {
		t.Fatalf("collinear duplicate paths did not merge: %d inserted, 0 merged", inserted)
	}
	if err := e.Ingest([]bqs.Fix{{Device: "late", Point: bqs.Point{X: 1, Y: 1, T: 1}}}); !errors.Is(err, bqs.ErrEngineClosed) {
		t.Fatalf("ingest after close = %v, want ErrEngineClosed", err)
	}
}

// registerFacadeTest registers the custom compressor once per process: the
// registry is global and refuses a name twice, and CI runs with -count 2.
var registerFacadeTest = sync.OnceValue(func() error {
	return bqs.RegisterCompressor("facade-test-bqs-seg", func(tol float64) (bqs.StreamCompressor, error) {
		c, err := bqs.NewBQS(tol, bqs.WithMetric(bqs.MetricSegment))
		if err != nil {
			return nil, err
		}
		return c, nil
	})
})

// TestEngineCustomCompressor registers a custom compressor and runs the
// engine with it by name.
func TestEngineCustomCompressor(t *testing.T) {
	if err := registerFacadeTest(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range bqs.CompressorNames() {
		if n == "facade-test-bqs-seg" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered name missing from CompressorNames")
	}
	c, err := bqs.NewNamedCompressor("facade-test-bqs-seg", 5)
	if err != nil {
		t.Fatal(err)
	}
	pts := []bqs.Point{{X: 0, Y: 0, T: 0}, {X: 100, Y: 0, T: 1}, {X: 200, Y: 50, T: 2}}
	if keys := bqs.Compress(c, pts); len(keys) < 2 {
		t.Fatalf("keys = %v", keys)
	}

	e, err := bqs.NewEngine(bqs.EngineConfig{Compressor: "facade-test-bqs-seg", Tolerance: 5, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := e.Ingest([]bqs.Fix{{Device: "d", Point: p}}); err != nil {
			t.Fatal(i, err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.KeyPoints < 2 {
		t.Fatalf("custom compressor emitted %d keys", s.KeyPoints)
	}
}
