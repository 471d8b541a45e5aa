package segmentlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// genKeys builds a deterministic trajectory of n key points. Coordinates
// are exact multiples of 1e-7 degrees, so encode→decode equality is
// exact and reflect.DeepEqual works.
func genKeys(seed, n int) []trajstore.GeoKey {
	keys := make([]trajstore.GeoKey, n)
	lat := int64(seed * 1001)
	lon := int64(-seed * 2003)
	t := uint32(seed * 10)
	for i := range keys {
		lat += int64((seed+i)%17 - 8)
		lon += int64((seed*3+i)%23 - 11)
		t += uint32(i%5 + 1)
		keys[i] = trajstore.GeoKey{Lat: float64(lat) / 1e7, Lon: float64(lon) / 1e7, T: t}
	}
	return keys
}

// memDir is where the tests that run on a vfs.FaultFS keep their log.
const memDir = "/log"

// writeFile creates (or replaces) name on fsys holding data.
func writeFile(fsys vfs.FS, name string, data []byte) error {
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	return errors.Join(err, f.Close())
}

func mustOpen(t testing.TB, dir string, opts Options) *shardLog {
	t.Helper()
	opts.cache = newRecordCache(opts.CacheBytes) // as OpenSharded does
	l, err := openShardLog(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// Append, Query, QueryWindowStats and Compact are ShardedLog's edges on
// one shard log, for the tests that drive a shardLog directly.
func (l *shardLog) Compact(p CompactionPolicy) (CompactionResult, error) {
	return l.compact(p, true)
}

func (l *shardLog) Append(device string, keys []trajstore.GeoKey) error {
	var tr trajstore.Trail
	if err := tr.Add(keys...); err != nil {
		return err
	}
	return l.AppendTrail(device, &tr)
}

func (l *shardLog) Query(device string, t0, t1 uint32) (out []Record, err error) {
	if err = l.deviceBlocks(device, t0, t1, decodeInto(&out)); err != nil {
		return nil, err
	}
	return out, nil
}

func (l *shardLog) QueryWindowStats(minX, minY, maxX, maxY float64, t0, t1 uint32) (out []Record, ws WindowStats, err error) {
	w, err := trajstore.LatticeWindow(minX, minY, maxX, maxY, t0, t1)
	if err == nil {
		err = l.windowBlocks(&w, &ws, decodeInto(&out))
	}
	if err != nil {
		return nil, ws, err
	}
	return out, ws, nil
}

// queryAll returns every record of a device.
func queryAll(t *testing.T, l *shardLog, device string) []Record {
	t.Helper()
	recs, err := l.Query(device, 0, ^uint32(0))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestAppendQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})

	want := map[string][][]trajstore.GeoKey{}
	for d := 0; d < 5; d++ {
		dev := fmt.Sprintf("dev-%d", d)
		for r := 0; r < 4; r++ {
			keys := genKeys(d*10+r+1, 20+r)
			if err := l.Append(dev, keys); err != nil {
				t.Fatal(err)
			}
			want[dev] = append(want[dev], keys)
		}
	}
	// Queries must see unsynced (buffered) records too.
	for dev, trajs := range want {
		recs := queryAll(t, l, dev)
		if len(recs) != len(trajs) {
			t.Fatalf("%s: %d records before sync, want %d", dev, len(recs), len(trajs))
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index is rebuilt by scanning, contents identical.
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if s := l2.Stats(); s.Records != 20 || s.Devices != 5 || s.Truncated != 0 {
		t.Fatalf("reopened stats = %+v", s)
	}
	for dev, trajs := range want {
		recs := queryAll(t, l2, dev)
		if len(recs) != len(trajs) {
			t.Fatalf("%s: %d records, want %d", dev, len(recs), len(trajs))
		}
		for i, rec := range recs {
			if rec.Device != dev {
				t.Fatalf("%s[%d]: device %q", dev, i, rec.Device)
			}
			if !reflect.DeepEqual(rec.Keys, trajs[i]) {
				t.Fatalf("%s[%d]: keys differ\nwant %v\ngot  %v", dev, i, trajs[i], rec.Keys)
			}
		}
	}

	// Time-range filtering: a window covering only the first trajectory.
	first := want["dev-0"][0]
	recs, err := l2.Query("dev-0", first[0].T, first[0].T)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("time-window query missed the covering record")
	}
	for _, r := range recs {
		if r.T0 > first[0].T || r.T1 < first[0].T {
			t.Fatalf("record [%d,%d] does not overlap %d", r.T0, r.T1, first[0].T)
		}
	}
	if _, err := l2.Query("dev-0", first[len(first)-1].T+1e6, first[len(first)-1].T+2e6); err != nil {
		t.Fatal(err)
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every append rotates.
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	const n = 12
	for i := 0; i < n; i++ {
		if err := l.Append("dev", genKeys(i+1, 30)); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Stats(); s.Segments < 3 {
		t.Fatalf("expected rotation to create several segments, got %d", s.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	defer l2.Close()
	recs := queryAll(t, l2, "dev")
	if len(recs) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if !reflect.DeepEqual(rec.Keys, genKeys(i+1, 30)) {
			t.Fatalf("record %d differs after rotation+reopen", i)
		}
	}
}

// copyDir clones a log directory so destructive edits don't touch the
// original.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashRecoveryArbitraryOffsets is the injected-failure test of the
// acceptance criteria: it builds a synced log, then simulates a crash
// that kills the write at EVERY possible byte offset of the final
// segment, reopens, and checks the prefix property — every record whose
// bytes fully precede the cut decodes byte-identically, the torn tail is
// dropped, and the recovered log accepts new appends.
func TestCrashRecoveryArbitraryOffsets(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	const n = 8
	trajs := make([][]trajstore.GeoKey, n)
	ends := make([]int64, n) // file size after each record: record i ends at ends[i]
	segPath := filepath.Join(dir, "seg-00000001.log")
	for i := range trajs {
		trajs[i] = genKeys(i+1, 10+i)
		if err := l.Append("dev", trajs[i]); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		ends[i] = fi.Size()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	total := ends[n-1]

	for cut := int64(0); cut <= total; cut++ {
		crashed := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(crashed, "seg-00000001.log"), cut); err != nil {
			t.Fatal(err)
		}
		rl, err := openShardLog(crashed, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		survive := 0
		for _, end := range ends {
			if end <= cut {
				survive++
			}
		}
		recs := queryAll(t, rl, "dev")
		if len(recs) != survive {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), survive)
		}
		for i, rec := range recs {
			if !reflect.DeepEqual(rec.Keys, trajs[i]) {
				t.Fatalf("cut %d: record %d corrupted by recovery", cut, i)
			}
		}
		if cut >= headerSize {
			// A cut mid-record drops exactly the bytes past the last
			// complete record.
			keep := int64(headerSize)
			if survive > 0 {
				keep = ends[survive-1]
			}
			if s := rl.Stats(); s.Truncated != cut-keep {
				t.Fatalf("cut %d: Truncated = %d, want %d", cut, s.Truncated, cut-keep)
			}
		}
		// Recovery leaves an appendable log: new records land after the
		// kept prefix and survive another reopen.
		extra := genKeys(99, 7)
		if err := rl.Append("dev", extra); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := rl.Close(); err != nil {
			t.Fatalf("cut %d: close after recovery: %v", cut, err)
		}
		rl2, err := openShardLog(crashed, Options{})
		if err != nil {
			t.Fatalf("cut %d: second reopen: %v", cut, err)
		}
		recs = queryAll(t, rl2, "dev")
		if len(recs) != survive+1 {
			t.Fatalf("cut %d: %d records after post-recovery append, want %d", cut, len(recs), survive+1)
		}
		if !reflect.DeepEqual(recs[len(recs)-1].Keys, extra) {
			t.Fatalf("cut %d: post-recovery append corrupted", cut)
		}
		rl2.Close()
	}
}

// TestCrashRecoveryBitFlip corrupts one byte inside an early record: the
// scan must drop that record and everything after it in the same file
// (sequential recovery cannot trust anything past the first bad CRC) but
// keep prior records.
func TestCrashRecoveryBitFlip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	var ends []int64
	segPath := filepath.Join(dir, "seg-00000001.log")
	for i := 0; i < 4; i++ {
		if err := l.Append("dev", genKeys(i+1, 12)); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	crashed := copyDir(t, dir)
	path := filepath.Join(crashed, "seg-00000001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[ends[1]+12] ^= 0x40 // inside record 2's body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rl := mustOpen(t, crashed, Options{})
	defer rl.Close()
	recs := queryAll(t, rl, "dev")
	if len(recs) != 2 {
		t.Fatalf("recovered %d records after bit flip, want 2", len(recs))
	}
	for i, rec := range recs {
		if !reflect.DeepEqual(rec.Keys, genKeys(i+1, 12)) {
			t.Fatalf("record %d corrupted", i)
		}
	}
	if s := rl.Stats(); s.Truncated == 0 {
		t.Fatalf("expected truncated bytes after bit flip, stats %+v", s)
	}
}

// TestTornHeader simulates a rotation where the new segment's manifest
// entry became durable but its header bytes did not (the header write is
// not fsync'd at creation): the referenced file is shorter than a
// header and recovery must reset it to an empty appendable segment.
func TestTornHeader(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.Append("dev", genKeys(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A second, manifest-referenced segment whose header write was cut
	// short.
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002.log"), []byte("BQS"), 0o644); err != nil {
		t.Fatal(err)
	}
	man, found, err := readManifest(vfs.OS, dir)
	if err != nil || !found {
		t.Fatalf("readManifest: %v found=%v", err, found)
	}
	man.Gen++
	man.Segs = append(man.Segs, manifestSeg{Name: "seg-00000002.log"})
	if err := writeManifest(vfs.OS, dir, man); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if s := l2.Stats(); s.Segments != 2 || s.Records != 1 {
		t.Fatalf("stats after torn-header recovery: %+v", s)
	}
	if recs := queryAll(t, l2, "dev"); len(recs) != 1 {
		t.Fatalf("lost the intact record: %d", len(recs))
	}
	// The rewritten file is appendable.
	if err := l2.Append("dev2", genKeys(2, 5)); err != nil {
		t.Fatal(err)
	}
	if recs := queryAll(t, l2, "dev2"); len(recs) != 1 {
		t.Fatal("append into recovered torn-header segment failed")
	}
}

func TestBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), []byte("NOTALOGFILE!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openShardLog(dir, Options{}); err == nil {
		t.Fatal("Open accepted a file with bad magic")
	}
}

func TestClosedSemantics(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("second Close should be a no-op, got", err)
	}
	if err := l.Append("d", genKeys(1, 3)); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if _, err := l.Query("d", 0, 1); err != ErrClosed {
		t.Fatalf("Query after Close = %v, want ErrClosed", err)
	}
}

func TestEmptyAppendIgnored(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	if err := l.Append("dev", nil); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Records != 0 {
		t.Fatalf("empty append stored a record: %+v", s)
	}
}

func TestDeviceSpan(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	if err := l.Append("dev", []trajstore.GeoKey{{Lat: 1e-7, Lon: 2e-7, T: 100}, {Lat: 3e-7, Lon: 4e-7, T: 200}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("dev", []trajstore.GeoKey{{Lat: 1e-7, Lon: 2e-7, T: 50}, {Lat: 3e-7, Lon: 4e-7, T: 80}}); err != nil {
		t.Fatal(err)
	}
	n, t0, t1, ok := l.DeviceSpan("dev")
	if !ok || n != 2 || t0 != 50 || t1 != 200 {
		t.Fatalf("DeviceSpan = (%d, %d, %d, %v)", n, t0, t1, ok)
	}
	if _, _, _, ok := l.DeviceSpan("nope"); ok {
		t.Fatal("DeviceSpan found an unknown device")
	}
}

// TestConcurrentAppendQuery exercises the locking under -race: many
// goroutines appending distinct devices while others query and sync.
func TestConcurrentAppendQuery(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{MaxSegmentBytes: 4096})
	defer l.Close()
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev := fmt.Sprintf("dev-%d", w)
			for i := 0; i < 25; i++ {
				if err := l.Append(dev, genKeys(w*100+i+1, 8)); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if i%10 == 0 {
					if _, err := l.Query(dev, 0, ^uint32(0)); err != nil {
						t.Errorf("Query: %v", err)
						return
					}
				}
				if i%7 == 0 {
					if err := l.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s := l.Stats(); s.Records != writers*25 {
		t.Fatalf("Records = %d, want %d", s.Records, writers*25)
	}
	for w := 0; w < writers; w++ {
		recs := queryAll(t, l, fmt.Sprintf("dev-%d", w))
		if len(recs) != 25 {
			t.Fatalf("dev-%d: %d records, want 25", w, len(recs))
		}
		for i, rec := range recs {
			if !reflect.DeepEqual(rec.Keys, genKeys(w*100+i+1, 8)) {
				t.Fatalf("dev-%d record %d corrupted", w, i)
			}
		}
	}
}

// TestRotationFailureKeepsOldActive is the failed-rotation bugfix test:
// when creating the next segment fails, the old segment must stay
// active and writable — previously the old handle was closed first,
// leaving every later Append/Sync failing on a closed fd while the
// record was already indexed. Rotation failures do not fail the append
// (the record is retained either way — see Append's contract), so the
// blocked state is observed through Stats: the log keeps accepting and
// serving records in a single segment until the blocker is removed.
func TestRotationFailureKeepsOldActive(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	defer l.Close()

	// Block the next segment's path with a directory: O_CREATE|O_EXCL
	// fails deterministically, even running as root.
	blocker := filepath.Join(dir, segName(2))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}

	var appended [][]trajstore.GeoKey
	for i := 0; i < 8; i++ {
		keys := genKeys(i+1, 12)
		if err := l.Append("dev", keys); err != nil {
			t.Fatalf("append %d: %v (rotation failures must not fail the append)", i, err)
		}
		appended = append(appended, keys)
		// The log must remain fully usable after each blocked rotation
		// attempt: the old segment is still active, so Sync keeps working.
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync after failed rotation: %v", err)
		}
	}
	// 8 records × ~12 keys each far exceed MaxSegmentBytes=256, so
	// rotation was attempted and blocked: everything is still in the
	// one writable segment.
	if s := l.Stats(); s.Segments != 1 {
		t.Fatalf("Segments = %d while rotation is blocked, want 1", s.Segments)
	}
	recs := queryAll(t, l, "dev")
	if len(recs) != len(appended) {
		t.Fatalf("%d records after failed rotations, want %d", len(recs), len(appended))
	}
	for i, rec := range recs {
		if !reflect.DeepEqual(rec.Keys, appended[i]) {
			t.Fatalf("record %d corrupted across failed rotation", i)
		}
	}

	// Unblock: the next append retries rotation and succeeds.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	extra := genKeys(99, 12)
	if err := l.Append("dev", extra); err != nil {
		t.Fatalf("append after unblocking: %v", err)
	}
	if s := l.Stats(); s.Segments < 2 {
		t.Fatalf("rotation did not resume after unblocking: %+v", s)
	}

	// Everything survives a reopen.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	defer l2.Close()
	if recs := queryAll(t, l2, "dev"); len(recs) != len(appended)+1 {
		t.Fatalf("recovered %d records, want %d", len(recs), len(appended)+1)
	}
}

// TestReadOnlySemantics: a read-only open never modifies the directory
// — a torn tail is detected but left in place — and mutating operations
// return ErrReadOnly.
func TestReadOnlySemantics(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.Append("dev", genKeys(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("dev", genKeys(2, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := fi.Size() - 3
	if err := os.Truncate(seg, torn); err != nil {
		t.Fatal(err)
	}

	ro := mustOpen(t, dir, Options{ReadOnly: true})
	if s := ro.Stats(); s.Truncated == 0 || s.Records != 1 {
		t.Fatalf("read-only stats on torn log: %+v", s)
	}
	if recs := queryAll(t, ro, "dev"); len(recs) != 1 {
		t.Fatalf("read-only query saw %d records, want the intact one", len(recs))
	}
	if err := ro.Append("dev", genKeys(3, 4)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Append = %v, want ErrReadOnly", err)
	}
	if err := ro.Sync(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Sync = %v, want ErrReadOnly", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	// Nothing on disk changed: same size, torn tail still present.
	if fi, err := os.Stat(seg); err != nil || fi.Size() != torn {
		t.Fatalf("read-only open modified the segment (size %d, want %d): %v", fi.Size(), torn, err)
	}

	// A read-only open of a missing directory errors instead of
	// creating it.
	missing := filepath.Join(t.TempDir(), "nope")
	if _, err := openShardLog(missing, Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open conjured a missing directory")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("read-only open created the directory")
	}
}
