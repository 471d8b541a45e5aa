package segmentlog

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

func mustOpenSharded(t *testing.T, dir string, shards int, opts Options) *ShardedLog {
	t.Helper()
	s, err := OpenSharded(dir, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sortRecs orders records canonically so results from the sharded log
// (shard-order concatenation) compare equal to single-log (log-order)
// results as multisets.
func sortRecs(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.T0 != b.T0 {
			return a.T0 < b.T0
		}
		return a.T1 < b.T1
	})
}

func TestShardedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenSharded(t, dir, 3, Options{})
	if s.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", s.NumShards())
	}

	want := map[string][]trajstore.GeoKey{}
	for d := 0; d < 12; d++ {
		dev := fmt.Sprintf("dev-%02d", d)
		keys := genKeys(d+1, 15)
		want[dev] = keys
		if err := s.Append(dev, keys); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A different shards argument must not re-shard: the persisted
	// SHARDS count is authoritative.
	s2 := mustOpenSharded(t, dir, 7, Options{})
	defer s2.Close()
	if s2.NumShards() != 3 {
		t.Fatalf("reopen NumShards = %d, want persisted 3", s2.NumShards())
	}
	devs := s2.Devices()
	if len(devs) != 12 || !sort.StringsAreSorted(devs) {
		t.Fatalf("Devices() = %v", devs)
	}
	if st := s2.Stats(); st.Records != 12 || st.Devices != 12 {
		t.Fatalf("Stats = %+v", st)
	}
	for dev, keys := range want {
		recs, err := s2.Query(dev, 0, math.MaxUint32)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || !reflect.DeepEqual(recs[0].Keys, keys) {
			t.Fatalf("%s: round trip mismatch (%d records)", dev, len(recs))
		}
		n, lo, hi, ok := s2.DeviceSpan(dev)
		if !ok || n != 1 || lo != keys[0].T || hi != keys[len(keys)-1].T {
			t.Fatalf("%s: DeviceSpan = (%d, %d, %d, %v)", dev, n, lo, hi, ok)
		}
	}
}

// TestShardedRefusesSingleLogRoot: a root in the single-log layout — a
// MANIFEST and/or seg-*.log files directly in it and no SHARDS — is
// refused, writable and read-only, with an ErrCorrupt that names the
// layout, and the refusal leaves the directory byte-for-byte untouched:
// never migrated, never swept, never treated as empty. Once SHARDS
// exists the shards hold the data and stray root files are ignored —
// but still not swept.
func TestShardedRefusesSingleLogRoot(t *testing.T) {
	// A shard log opened directly on a root writes exactly the old
	// single-log layout there.
	single := func(t *testing.T) string {
		dir := t.TempDir()
		l := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
		for i := 0; i < 6; i++ {
			if err := l.Append("alpha", genKeys(i+1, 12)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, lockName), []byte("4242\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	refused := func(t *testing.T, dir string) {
		t.Helper()
		before := treeFiles(t, dir)
		for _, ro := range []bool{false, true} {
			_, err := OpenSharded(dir, 2, Options{ReadOnly: ro})
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "single-log layout") {
				t.Fatalf("ReadOnly=%v: OpenSharded = %v, want ErrCorrupt naming the single-log layout", ro, err)
			}
			if after := treeFiles(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("ReadOnly=%v: refused open modified the directory", ro)
			}
		}
	}
	t.Run("manifest and segments", func(t *testing.T) {
		refused(t, single(t))
	})
	t.Run("segments only", func(t *testing.T) {
		dir := single(t)
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
		refused(t, dir)
	})
	t.Run("with shard-dir debris", func(t *testing.T) {
		// Half-built shard dirs beside a single log must not tip the
		// open into the rebuild-from-scratch path.
		dir := single(t)
		mustOpen(t, filepath.Join(dir, shardDirName(0)), Options{}).Close()
		refused(t, dir)
	})
	t.Run("stray files beside SHARDS", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpenSharded(t, dir, 2, Options{})
		if err := s.Append("alpha", genKeys(1, 20)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		stale := filepath.Join(dir, "seg-99999999.log")
		for _, p := range []string{stale, filepath.Join(dir, manifestName)} {
			if err := os.WriteFile(p, []byte("stale"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s2 := mustOpenSharded(t, dir, 0, Options{})
		defer s2.Close()
		if recs, err := s2.Query("alpha", 0, math.MaxUint32); err != nil || len(recs) != 1 {
			t.Fatalf("alpha beside stray root files: %d records, err %v", len(recs), err)
		}
		if _, err := os.Stat(stale); err != nil {
			t.Fatalf("stray root segment was swept: %v", err)
		}
	})
}

// TestShardedCrashedCreationRebuilt: shard directories without a SHARDS
// file are debris of a creation that crashed before its commit point —
// whatever they hold was never acknowledged — so a writable open
// discards them and builds the root from scratch, and a read-only open
// (which may not modify anything) reports that no log is there.
func TestShardedCrashedCreationRebuilt(t *testing.T) {
	dir := t.TempDir()
	bl := mustOpen(t, filepath.Join(dir, shardDirName(0)), Options{})
	if err := bl.Append("ghost", genKeys(9, 5)); err != nil {
		t.Fatal(err)
	}
	if err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, shardDirName(7)), 0o755); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSharded(dir, 2, Options{ReadOnly: true}); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("read-only open of an uncommitted root = %v, want a plain no-log error", err)
	}
	s := mustOpenSharded(t, dir, 2, Options{})
	if devs := s.Devices(); len(devs) != 0 {
		t.Fatalf("Devices after rebuild = %v, want none", devs)
	}
	if err := s.Append("alpha", genKeys(1, 20)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, shardDirName(7))); !os.IsNotExist(err) {
		t.Fatalf("debris shard dir survived the rebuild: %v", err)
	}
	s2 := mustOpenSharded(t, dir, 0, Options{ReadOnly: true})
	defer s2.Close()
	if s2.NumShards() != 2 || !reflect.DeepEqual(s2.Devices(), []string{"alpha"}) {
		t.Fatalf("rebuilt root: %d shards, devices %v", s2.NumShards(), s2.Devices())
	}
}

// TestMissingManifestRefused: a shard's segment list comes only from its
// MANIFEST. A compaction's outputs carry higher file numbers than the
// newer data behind them, so file-name order would serve a compacted
// shard out of order: a shard directory holding segments but no MANIFEST
// is refused, writable and read-only, and the refusal touches no file.
func TestMissingManifestRefused(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenSharded(t, dir, 1, Options{MaxSegmentBytes: 256})
	for i := range 12 {
		for range 2 {
			if err := s.Append("dev", genKeys(i+1, 6)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if res, err := s.Compact(CompactionPolicy{}); err != nil || res.Deduped == 0 || res.Gen == 0 {
		t.Fatalf("Compact = %+v, %v; want duplicates dropped and a publish", res, err)
	}
	for i := 12; i < 14; i++ {
		if err := s.Append("dev", genKeys(i+1, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, shardDirName(0))
	if err := os.Remove(filepath.Join(shard, manifestName)); err != nil {
		t.Fatal(err)
	}
	before := treeFiles(t, shard)
	for _, ro := range []bool{false, true} {
		if lg, err := OpenSharded(dir, 1, Options{ReadOnly: ro}); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				lg.Close()
			}
			t.Fatalf("open (read-only %v) of a shard without its MANIFEST = %v, want ErrCorrupt", ro, err)
		}
		if after := treeFiles(t, shard); !reflect.DeepEqual(after, before) {
			t.Fatalf("a refused open (read-only %v) changed the shard's files", ro)
		}
	}
}

// TestShardedCloseIdempotent: Close is nil on repeat (engine.Close
// closes the persister it was given, and the caller's own deferred
// Close must not then report a spurious error), and every operation
// after Close — whether or not a compaction policy is configured —
// reports ErrClosed.
func TestShardedCloseIdempotent(t *testing.T) {
	for _, policy := range []*CompactionPolicy{nil, {MergeChunks: true}} {
		s := mustOpenSharded(t, t.TempDir(), 2, Options{Compaction: policy})
		if err := s.Append("alpha", genKeys(1, 20)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.Close(); err != nil {
				t.Fatalf("Close #%d = %v, want nil", i+1, err)
			}
		}
		_, qerr := s.Query("alpha", 0, math.MaxUint32)
		_, werr := s.QueryWindow(-1, -1, 1, 1, 0, math.MaxUint32)
		_, _, wserr := s.QueryWindowStats(-1, -1, 1, 1, 0, math.MaxUint32)
		_, cerr := s.Compact(CompactionPolicy{})
		for op, err := range map[string]error{
			"Append": s.Append("alpha", genKeys(2, 5)), "Sync": s.Sync(),
			"Compact": cerr, "CompactNow": s.CompactNow(),
			"Query": qerr, "QueryWindow": werr, "QueryWindowStats": wserr,
		} {
			if err != ErrClosed {
				t.Errorf("policy %v: %s after Close = %v, want ErrClosed", policy != nil, op, err)
			}
		}
	}
}

// TestLockExcludesSecondWriter: the root LOCK is the only lock in the
// tree. A second writable open fails with ErrLocked naming the holder's
// pid while the first holds the root — on the disk, and on a FaultFS,
// whose handles lock in its own table — a read-only open alongside the
// writer succeeds, and the lock is released by Close and by every
// failed-open unwind path.
func TestLockExcludesSecondWriter(t *testing.T) {
	ffs := vfs.NewFaultFS(1)
	for _, c := range []struct {
		name, dir string
		fs        vfs.FS
	}{{"disk", t.TempDir(), nil}, {"faultfs", memDir, ffs}} {
		t.Run(c.name, func(t *testing.T) {
			s := mustOpenSharded(t, c.dir, 2, Options{FS: c.fs})
			if err := s.Append("dev", genKeys(1, 6)); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			_, err := OpenSharded(c.dir, 2, Options{FS: c.fs})
			if !errors.Is(err, ErrLocked) || !strings.Contains(err.Error(), fmt.Sprintf("held by pid %d", os.Getpid())) {
				t.Fatalf("second writable open = %v, want ErrLocked naming pid %d", err, os.Getpid())
			}
			ro := mustOpenSharded(t, c.dir, 0, Options{ReadOnly: true, FS: c.fs})
			if recs, err := ro.Query("dev", 0, math.MaxUint32); err != nil || len(recs) != 1 {
				t.Fatalf("read-only open of a locked root saw %d records, err %v", len(recs), err)
			}
			ro.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			mustOpenSharded(t, c.dir, 0, Options{FS: c.fs}).Close()
		})
	}

	// Every failed-open unwind path must drop the lock: after the
	// injected failure a plain open of the same root has to succeed.
	for _, c := range []struct {
		name  string
		fresh bool // open a root that does not exist yet
		rule  vfs.Rule
	}{
		{"reading SHARDS", false, vfs.Rule{Op: vfs.OpReadFile, Path: shardsName, Fault: vfs.FaultEIO}},
		{"clearing creation debris", true, vfs.Rule{Op: vfs.OpReadDir, Fault: vfs.FaultEIO}},
		{"opening the second shard", false, vfs.Rule{Op: vfs.OpMkdirAll, Path: shardDirName(1), Fault: vfs.FaultEIO}},
		{"recovering a shard", false, vfs.Rule{Op: vfs.OpReadFile, Path: manifestName, Fault: vfs.FaultEIO, After: 1}},
		{"publishing a shard manifest", false, vfs.Rule{Op: vfs.OpRename, Path: manifestName, Fault: vfs.FaultEIO, After: 1}},
		{"publishing SHARDS", true, vfs.Rule{Op: vfs.OpRename, Path: shardsName, Fault: vfs.FaultENOSPC}},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := memDir
			if c.fresh {
				root = filepath.Join("/fresh", c.name)
			}
			ffs.AddRule(c.rule)
			if s, err := OpenSharded(root, 2, Options{FS: ffs}); err == nil {
				s.Close()
				t.Fatal("fault rule never fired: open succeeded")
			} else if errors.Is(err, ErrLocked) {
				t.Fatalf("open failed on the lock itself: %v", err)
			}
			ffs.ClearRules()
			s, err := OpenSharded(root, 2, Options{FS: ffs})
			if err != nil {
				t.Fatalf("open after a failed open: %v (lock leaked?)", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// differentialWindows are the windows the sharded/single comparison
// runs; genKeys trajectories live within ~±0.01° of the origin.
var differentialWindows = []struct {
	name                   string
	minX, minY, maxX, maxY float64
	t0, t1                 uint32
}{
	{"all", -180, -90, 180, 90, 0, math.MaxUint32},
	{"all-early", -180, -90, 180, 90, 0, 300},
	{"ne", 0, 0, 1, 1, 0, math.MaxUint32},
	{"sw", -1, -1, 0, 0, 0, math.MaxUint32},
	{"empty", 50, 50, 60, 60, 0, math.MaxUint32},
}

// diffCompare asserts the sharded and single logs answer every
// per-device Query and every differential window identically at wire
// resolution (decoded records compare exactly; coordinates survive the
// 1e-7 quantization unchanged because genKeys emits exact multiples).
func diffCompare(t *testing.T, stage string, s *ShardedLog, single *shardLog, devices []string) {
	t.Helper()
	for _, dev := range devices {
		got, err := s.Query(dev, 0, math.MaxUint32)
		if err != nil {
			t.Fatal(err)
		}
		want := queryAll(t, single, dev)
		sortRecs(got)
		sortRecs(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s: sharded %d records, single %d", stage, dev, len(got), len(want))
		}
	}
	for _, w := range differentialWindows {
		got, err := s.QueryWindow(w.minX, w.minY, w.maxX, w.maxY, w.t0, w.t1)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := single.QueryWindowStats(w.minX, w.minY, w.maxX, w.maxY, w.t0, w.t1)
		if err != nil {
			t.Fatal(err)
		}
		sortRecs(got)
		sortRecs(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: window %s: sharded %d records, single %d", stage, w.name, len(got), len(want))
		}
	}
}

// TestShardedDifferential drives the same fleet through a 4-shard log
// and a single log and asserts identical answers — after ingest, after
// a torn-tail crash in one shard's log, and after compaction.
func TestShardedDifferential(t *testing.T) {
	sDir, lDir := t.TempDir(), t.TempDir()
	s := mustOpenSharded(t, sDir, 4, Options{MaxSegmentBytes: 4 << 10})
	single := mustOpen(t, lDir, Options{MaxSegmentBytes: 4 << 10})

	var devices []string
	for d := 0; d < 40; d++ {
		dev := fmt.Sprintf("fleet-%03d", d)
		devices = append(devices, dev)
		for r := 0; r < 3; r++ {
			keys := genKeys(d*7+r+1, 20)
			if err := s.Append(dev, keys); err != nil {
				t.Fatal(err)
			}
			if err := single.Append(dev, keys); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	diffCompare(t, "ingest", s, single, devices)

	// Crash one shard with a torn tail: a record appended only to the
	// sharded log, then cut mid-record. Recovery must drop exactly that
	// record, restoring equality with the single log.
	victim := devices[0]
	shardIdx := trajstore.ShardIndex(victim, 4)
	if err := s.Append(victim, genKeys(999, 30)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(sDir, shardDirName(shardIdx))
	segs, err := filepath.Glob(filepath.Join(shardDir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in crashed shard: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	s = mustOpenSharded(t, sDir, 0, Options{MaxSegmentBytes: 4 << 10})
	if st := s.Stats(); st.Truncated == 0 {
		t.Fatalf("torn tail not detected: %+v", st)
	}
	diffCompare(t, "post-crash", s, single, devices)

	// Compaction on both sides preserves the differential.
	if _, err := s.Compact(CompactionPolicy{MergeChunks: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Compact(CompactionPolicy{MergeChunks: true}); err != nil {
		t.Fatal(err)
	}
	diffCompare(t, "post-compact", s, single, devices)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCompactCrashAtEveryStep reruns the compaction crash matrix
// against one shard of a sharded log: a crash at any hook point leaves
// that shard consistent and the sharded open recovers the full fleet.
func TestShardedCompactCrashAtEveryStep(t *testing.T) {
	build := func(t *testing.T, seed int64) (*vfs.FaultFS, map[string][]trajstore.GeoKey) {
		fs := vfs.NewFaultFS(seed)
		s := mustOpenSharded(t, memDir, 2, Options{MaxSegmentBytes: crashSegBytes, FS: fs})
		want := map[string][]trajstore.GeoKey{}
		for d := 0; d < 8; d++ {
			dev := fmt.Sprintf("dev-%d", d)
			keys := genKeys(d*11+1, 90)
			want[dev] = keys
			for _, chunk := range chunkKeys(keys, 8) {
				if err := s.Append(dev, chunk); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return fs.Restart(), want
	}

	// Observer pass: count the ops of the open (n0 — the index reads a
	// compaction works from are the open's) and through one shard's
	// compaction (n1). Shard opens are sequential and the fixture is
	// deterministic, so op k is the same operation in every run; the
	// crash is driven through shards[0].Compact directly because the
	// sharded Compact fans out in parallel, which would scramble the
	// global op counter.
	obs, _ := build(t, 0)
	probe := mustOpenSharded(t, memDir, 0, Options{MaxSegmentBytes: crashSegBytes, FS: obs})
	n0 := obs.Ops()
	if _, err := probe.shards[0].Compact(CompactionPolicy{MergeChunks: true}); err != nil {
		t.Fatal(err)
	}
	n1 := obs.Ops()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	if n1-n0 < 10 {
		t.Fatalf("shard compaction spanned only %d fs ops; observer pass broken?", n1-n0)
	}

	for k := 1; k <= n1; k++ {
		k := k
		t.Run(fmt.Sprintf("op-%03d", k), func(t *testing.T) {
			t.Parallel()
			fs, want := build(t, int64(k)) // seed varies the torn-rename coin flips
			fs.AddRule(vfs.Rule{Fault: vfs.FaultCrash, After: k - 1, Count: 1})
			// An open the crash kills (k ≤ n0) is a legal outcome; past it
			// the pass usually dies at op k — a crash inside the
			// best-effort delete sweep can still report success.
			if s, err := OpenSharded(memDir, 0, Options{MaxSegmentBytes: crashSegBytes, FS: fs}); err == nil {
				_, _ = s.shards[0].Compact(CompactionPolicy{MergeChunks: true})
				s.Close()
			} else if k > n0 {
				t.Fatalf("open died before the crash point: %v", err)
			}
			if !fs.Crashed() {
				t.Fatalf("schedule never crashed: %s", fs)
			}

			r := mustOpenSharded(t, memDir, 0, Options{MaxSegmentBytes: 512, FS: fs.Restart()})
			defer r.Close()
			if st := r.Stats(); st.Devices != 8 {
				t.Fatalf("crash at op %d lost devices: %+v", k, st)
			}
			for _, sh := range r.shards {
				checkView(t, sh)
			}
			for dev, keys := range want {
				recs, err := r.Query(dev, 0, math.MaxUint32)
				if err != nil {
					t.Fatal(err)
				}
				if got := stitch(recs); !reflect.DeepEqual(got, keys) {
					t.Fatalf("crash at op %d: %s polyline diverged after recovery", k, dev)
				}
			}
		})
	}
}

// TestCompactBoundedMemory pins the compactor's memory bound: a pass
// holds one device's records at a time — the high-water mark is one
// device's records, far under the whole log's record count.
func TestCompactBoundedMemory(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 1 << 10})
	const devices, perDev = 40, 10
	for d := 0; d < devices; d++ {
		dev := fmt.Sprintf("dev-%02d", d)
		for r := 0; r < perDev; r++ {
			if err := l.Append(dev, genKeys(d*perDev+r+1, 20)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	res, err := l.compact(CompactionPolicy{MergeChunks: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsIn < devices*perDev/2 {
		t.Fatalf("compaction saw only %d records; fixture did not seal enough segments", res.RecordsIn)
	}
	if hwm := l.compactLiveHWM; hwm == 0 {
		t.Fatal("compaction decoded nothing (high-water mark 0)")
	} else if hwm > perDev {
		t.Fatalf("decoded-record high-water mark %d exceeds one device's %d records (of %d total records)",
			hwm, perDev, res.RecordsIn)
	}
	if live := l.compactLive; live != 0 {
		t.Fatalf("live decoded-record count %d after compaction, want 0", live)
	}
}
