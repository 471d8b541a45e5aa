package bqs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestOpenDurableEngineRestart exercises the public durable path: ingest
// through OpenDurableEngine, close, reopen the log, query from disk.
func TestOpenDurableEngineRestart(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurableEngine(dir, EngineConfig{Compressor: "fbqs", Tolerance: 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const devices = 6
	for d := 0; d < devices; d++ {
		cfg := DefaultWalkConfig(int64(d) + 1)
		cfg.N = 80
		for _, p := range GenerateWalk(cfg).Points() {
			if err := e.Ingest([]Fix{{Device: fmt.Sprintf("dev-%d", d), Point: p}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Persisted != devices {
		t.Fatalf("Persisted = %d, want %d", s.Persisted, devices)
	}

	// Read-only: the handle stays open across the second engine below,
	// which needs the directory's write lock for itself.
	lg, err := OpenShardedSegmentLog(dir, 0, SegmentLogOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if got := len(lg.Devices()); got != devices {
		t.Fatalf("recovered %d devices, want %d", got, devices)
	}
	for d := 0; d < devices; d++ {
		dev := fmt.Sprintf("dev-%d", d)
		recs, err := lg.Query(dev, 0, ^uint32(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || len(recs[0].Keys) == 0 {
			t.Fatalf("%s: %d records", dev, len(recs))
		}
	}

	// A second engine over the same directory appends rather than
	// clobbering: restartability end to end.
	e2, err := OpenDurableEngine(dir, EngineConfig{Compressor: "fbqs", Tolerance: 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultWalkConfig(99)
	cfg.N = 40
	for _, p := range GenerateWalk(cfg).Points() {
		if err := e2.Ingest([]Fix{{Device: "dev-0", Point: p}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	lg2, err := OpenShardedSegmentLog(dir, 0, SegmentLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := lg2.NumShards(); got != 2 {
		t.Fatalf("persisted shard count = %d, want 2", got)
	}
	defer lg2.Close()
	recs, err := lg2.Query("dev-0", 0, ^uint32(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("dev-0 has %d records after restart, want 2", len(recs))
	}
}

// TestDurableShutdownRace pins the shutdown ordering: Close must wait
// for every shard's persist queue and any in-flight CompactNow before
// closing the sharded log, which stops its compaction ticker first — so the
// directory's flock is never released under a live writer. The proof is
// twofold: the race detector sees no conflicting access while ingest
// and compaction race Close, and an immediate reopen succeeds because
// the lock really was free when Close returned.
func TestDurableShutdownRace(t *testing.T) {
	dir := t.TempDir()
	policy := CompactionPolicy{MergeChunks: true, Every: time.Millisecond}
	e, err := OpenDurableEngineWithLog(dir,
		SegmentLogOptions{MaxSegmentBytes: 4 << 10, Compaction: &policy},
		EngineConfig{Compressor: "fbqs", Tolerance: 5, Shards: 4, MaxTrailKeys: 8},
	)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := DefaultWalkConfig(int64(g) + 1)
			cfg.N = 20000
			dev := fmt.Sprintf("dev-%d", g)
			for _, p := range GenerateWalk(cfg).Points() {
				if err := e.Ingest([]Fix{{Device: dev, Point: p}}); err != nil {
					return // ErrClosed once Close wins the race
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e.CompactNow() == nil {
		}
	}()

	time.Sleep(20 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Close released the lock last: a fresh open must not find it held.
	e2, err := OpenDurableEngine(dir, EngineConfig{Compressor: "fbqs", Tolerance: 5, Shards: 4})
	if err != nil {
		t.Fatalf("reopen immediately after racy close: %v", err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactLogFacade exercises the public compaction path: a durable
// engine with chunked sessions, ShardedSegmentLog.Compact merging the
// chunks back, and the log staying queryable with fewer bytes.
func TestCompactLogFacade(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurableEngineWithLog(dir,
		SegmentLogOptions{MaxSegmentBytes: 512},
		EngineConfig{Compressor: "fbqs", Tolerance: 5, Shards: 1, MaxTrailKeys: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultWalkConfig(42)
	cfg.N = 4000
	for _, p := range GenerateWalk(cfg).Points() {
		if err := e.Ingest([]Fix{{Device: "roamer", Point: p}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	lg, err := OpenShardedSegmentLog(dir, 0, SegmentLogOptions{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	before := lg.Stats()
	res, err := lg.Compact(CompactionPolicy{MergeChunks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged == 0 {
		t.Fatalf("no chunked records merged: %+v", res)
	}
	after := lg.Stats()
	if after.Bytes >= before.Bytes || after.Records >= before.Records {
		t.Fatalf("compaction did not shrink the log: %+v → %+v", before, after)
	}
	recs, err := lg.Query("roamer", 0, ^uint32(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("compacted log lost the device")
	}
	total := 0
	for _, r := range recs {
		total += len(r.Keys)
	}
	if total < 8 {
		t.Fatalf("suspiciously few keys after compaction: %d", total)
	}
}
