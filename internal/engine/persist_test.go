package engine

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// quantize maps a GeoKey to its wire-format quantization (1e-7°), the
// value a persist→decode round trip yields.
func quantize(k trajstore.GeoKey) trajstore.GeoKey {
	return trajstore.GeoKey{
		Lat: math.Round(k.Lat*1e7) / 1e7,
		Lon: math.Round(k.Lon*1e7) / 1e7,
		T:   k.T,
	}
}

// expectGeo runs the reference single-threaded compression of a track
// and converts it to quantized wire keys, the exact content the log
// must hold for that device.
func expectGeo(t *testing.T, comp string, tol float64, track []core.Point) []trajstore.GeoKey {
	t.Helper()
	c, err := stream.New(comp, tol)
	if err != nil {
		t.Fatal(err)
	}
	keys := stream.Compress(c, track)
	geo := trajstore.PointKeysToGeo(keys, trajstore.MetersPerDegree, trajstore.MetersPerDegree)
	for i := range geo {
		geo[i] = quantize(geo[i])
	}
	return geo
}

// TestEnginePersistDurableAcrossRestart is the end-to-end durability
// test: ingest a fleet, Close (flushing every session into the log),
// reopen the log directory cold, and check each device's persisted
// trajectory equals the single-threaded reference compression.
func TestEnginePersistDurableAcrossRestart(t *testing.T) {
	const (
		devices = 40
		perDev  = 120
		tol     = 10.0
	)
	dir := t.TempDir()
	lg, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Compressor: "fbqs",
		Tolerance:  tol,
		Shards:     4,
		Persister:  lg,
	})
	if err != nil {
		t.Fatal(err)
	}

	tracks := make([][]core.Point, devices)
	name := func(d int) string { return fmt.Sprintf("dev-%03d", d) }
	for d := range tracks {
		tracks[d] = deviceTrack(int64(d)+1, perDev)
	}
	for i := 0; i < perDev; i++ {
		var batch []Fix
		for d := range tracks {
			batch = append(batch, Fix{Device: name(d), Point: tracks[d][i]})
		}
		if err := e.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil { // flushes sessions, persists, closes the log
		t.Fatal(err)
	}
	if s := e.Stats(); s.Persisted != devices {
		t.Fatalf("Persisted = %d, want %d", s.Persisted, devices)
	}

	// Cold restart: reopen the directory and compare per-device content.
	lg2, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if s := lg2.Stats(); s.Records != devices || s.Truncated != 0 {
		t.Fatalf("reopened log stats = %+v", s)
	}
	for d := 0; d < devices; d++ {
		recs, err := lg2.Query(name(d), 0, ^uint32(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("device %d: %d records, want 1", d, len(recs))
		}
		want := expectGeo(t, "fbqs", tol, tracks[d])
		got := recs[0].Keys
		if len(got) != len(want) {
			t.Fatalf("device %d: %d keys, want %d", d, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("device %d key %d: got %+v, want %+v", d, i, got[i], want[i])
			}
		}
	}
}

// TestEnginePersistOnEviction checks the eviction path persists too, and
// that Sync is the durability barrier (queryable immediately after).
func TestEnginePersistOnEviction(t *testing.T) {
	var now atomic.Int64
	clock := func() time.Time { return time.Unix(now.Load(), 0) }

	dir := t.TempDir()
	lg, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Compressor:  "fbqs",
		Tolerance:   5,
		Shards:      2,
		IdleTimeout: 10 * time.Second,
		Clock:       clock,
		Persister:   lg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	track := deviceTrack(7, 90)
	for _, p := range track {
		if err := e.Ingest([]Fix{{Device: "roamer", Point: p}}); err != nil {
			t.Fatal(err)
		}
	}
	// Drain the queue before advancing the clock: lastSeen is stamped at
	// processing time, not enqueue time.
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	now.Store(100)
	if err := e.EvictIdle(); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Persisted != 1 {
		t.Fatalf("Persisted = %d after eviction, want 1", s.Persisted)
	}
	recs, err := lg.Query("roamer", 0, ^uint32(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records after eviction+sync, want 1", len(recs))
	}
	want := expectGeo(t, "fbqs", 5, track)
	if len(recs[0].Keys) != len(want) {
		t.Fatalf("evicted trajectory has %d keys, want %d", len(recs[0].Keys), len(want))
	}
	for i := range want {
		if recs[0].Keys[i] != want[i] {
			t.Fatalf("key %d: got %+v, want %+v", i, recs[0].Keys[i], want[i])
		}
	}
}

// TestEnginePersistTrailChunking checks that a long-lived session's
// trail is flushed in bounded chunks (MaxTrailKeys) that overlap by one
// key point, and that concatenating the chunks reproduces the reference
// compression exactly.
func TestEnginePersistTrailChunking(t *testing.T) {
	const tol = 5.0
	dir := t.TempDir()
	lg, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Compressor:   "fbqs",
		Tolerance:    tol,
		Shards:       1,
		Persister:    lg,
		MaxTrailKeys: 8, // tiny: force several chunks
	})
	if err != nil {
		t.Fatal(err)
	}
	track := deviceTrack(13, 2000)
	for _, p := range track {
		if err := e.Ingest([]Fix{{Device: "long", Point: p}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	lg2, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	recs, err := lg2.Query("long", 0, ^uint32(0))
	if err != nil {
		t.Fatal(err)
	}
	want := expectGeo(t, "fbqs", tol, track)
	if len(want) <= 8 {
		t.Fatalf("reference produced only %d keys; test needs > MaxTrailKeys", len(want))
	}
	wantRecords := (len(want) + 6) / 7 // 8-key chunks overlapping by 1 ⇒ 7 new keys each
	if len(recs) < 2 {
		t.Fatalf("expected chunked records, got %d (want about %d)", len(recs), wantRecords)
	}
	// Stitch: drop each subsequent record's first (overlap) key.
	var got []trajstore.GeoKey
	for i, r := range recs {
		if len(r.Keys) > 8 {
			t.Fatalf("record %d has %d keys, exceeding MaxTrailKeys", i, len(r.Keys))
		}
		keys := r.Keys
		if i > 0 {
			if keys[0] != got[len(got)-1] {
				t.Fatalf("record %d does not start with the previous chunk's last key", i)
			}
			keys = keys[1:]
		}
		got = append(got, keys...)
	}
	if len(got) != len(want) {
		t.Fatalf("stitched %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stitched key %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// failingPersister errors on every operation after n successful appends.
type failingPersister struct {
	left atomic.Int64
}

var errPersistBoom = errors.New("boom")

func (f *failingPersister) Append(string, []trajstore.GeoKey) error {
	if f.left.Add(-1) < 0 {
		return errPersistBoom
	}
	return nil
}
func (f *failingPersister) Sync() error  { return nil }
func (f *failingPersister) Close() error { return nil }

// TestEnginePersistErrorSurfaced checks an async persister failure in a
// shard worker is latched and reported by Sync/Close.
func TestEnginePersistErrorSurfaced(t *testing.T) {
	fp := &failingPersister{}
	e, err := New(Config{Compressor: "fbqs", Tolerance: 10, Shards: 2, Persister: fp})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		for i := 0; i < 3; i++ {
			if err := e.Ingest([]Fix{{Device: fmt.Sprintf("d%d", d), Point: core.Point{X: float64(i * 30), Y: float64(d), T: float64(i)}}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); !errors.Is(err, errPersistBoom) {
		t.Fatalf("Close = %v, want errPersistBoom", err)
	}
}

// TestEnginePersistValidation checks config validation of the persist
// path's one knob.
func TestEnginePersistValidation(t *testing.T) {
	if _, err := New(Config{Compressor: "fbqs", Tolerance: 10, MaxTrailKeys: -3}); err == nil {
		t.Fatal("negative MaxTrailKeys accepted")
	}
}

// closeFailPersister fails Append after n successes AND fails Close,
// to prove neither error masks the other.
type closeFailPersister struct {
	failingPersister
}

var errPersistClose = errors.New("close boom")

func (f *closeFailPersister) Close() error { return errPersistClose }

// TestEngineCloseJoinsErrors is the swallowed-error bugfix test: when a
// shard worker latched an async persist failure AND the persister's
// Close fails, Engine.Close must report both.
func TestEngineCloseJoinsErrors(t *testing.T) {
	fp := &closeFailPersister{}
	e, err := New(Config{Compressor: "fbqs", Tolerance: 10, Shards: 2, Persister: fp})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		for i := 0; i < 3; i++ {
			if err := e.Ingest([]Fix{{Device: fmt.Sprintf("d%d", d), Point: core.Point{X: float64(i * 30), Y: float64(d), T: float64(i)}}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = e.Close()
	if !errors.Is(err, errPersistBoom) {
		t.Fatalf("Close = %v, does not surface the latched append failure", err)
	}
	if !errors.Is(err, errPersistClose) {
		t.Fatalf("Close = %v, does not surface the close failure", err)
	}
}

// compactingPersister is a backend whose compaction pass fails.
type compactingPersister struct{ trajstore.Backend }

var errCompactBoom = errors.New("compact boom")

func (compactingPersister) CompactNow() error { return errCompactBoom }

// TestEngineCompactNowWrapsBackendError: the engine runs no compaction of
// its own — periodic passes are the log's — and CompactNow returns the
// backend's pass error, wrapped, without latching it: Sync and Close stay
// clean.
func TestEngineCompactNowWrapsBackendError(t *testing.T) {
	e, err := New(Config{Compressor: "fbqs", Tolerance: 10, Shards: 1, Persister: compactingPersister{trajstore.AppendOnly(nil)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompactNow(); !errors.Is(err, errCompactBoom) || err.Error() != "engine: compact: compact boom" {
		t.Fatalf("CompactNow = %v, want the backend's failure, wrapped", err)
	}
	if err := errors.Join(e.Sync(), e.Close()); err != nil {
		t.Fatalf("Sync, Close after a failed pass = %v, want nil", err)
	}
}

// TestEngineDurableCompaction is the end-to-end drain pass: a real
// segment log with a compaction policy, chunked sessions, and the
// engine's CompactNow shrinking it.
func TestEngineDurableCompaction(t *testing.T) {
	dir := t.TempDir()
	lg, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{
		MaxSegmentBytes: 256,
		Compaction:      &segmentlog.CompactionPolicy{MergeChunks: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Compressor:   "fbqs",
		Tolerance:    5,
		Shards:       1,
		Persister:    lg,
		MaxTrailKeys: 8, // force chunked records
	})
	if err != nil {
		t.Fatal(err)
	}
	track := deviceTrack(21, 3000)
	for _, p := range track {
		if err := e.Ingest([]Fix{{Device: "long", Point: p}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	before := lg.Stats()
	if before.Segments < 2 {
		t.Fatalf("no sealed segments to compact: %+v", before)
	}
	if err := e.CompactNow(); err != nil {
		t.Fatal(err)
	}
	after := lg.Stats()
	if after.Records >= before.Records || after.Bytes >= before.Bytes {
		t.Fatalf("compaction did not shrink the log: %+v → %+v", before, after)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// The merged log still reproduces the reference compression.
	lg2, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	recs, err := lg2.Query("long", 0, ^uint32(0))
	if err != nil {
		t.Fatal(err)
	}
	want := expectGeo(t, "fbqs", 5, track)
	var got []trajstore.GeoKey
	for i, r := range recs {
		keys := r.Keys
		if i > 0 && len(got) > 0 && len(keys) > 0 && keys[0] == got[len(got)-1] {
			keys = keys[1:]
		}
		got = append(got, keys...)
	}
	if len(got) != len(want) {
		t.Fatalf("stitched %d keys after compaction, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d diverged after compaction: %+v != %+v", i, got[i], want[i])
		}
	}
}
