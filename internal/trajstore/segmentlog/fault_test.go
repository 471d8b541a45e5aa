// Fault-injection tests: the log driven over vfs.FaultFS. Two shapes
// live here — targeted schedules for the fsync-poison/salvage machinery,
// and TestFaultMatrix, the seeded-schedule acceptance sweep: whatever a
// schedule injects (ENOSPC, EIO, short writes, power loss), the log must
// reopen on the FaultFS's Restart (what a power loss leaves) to exactly
// one consistent generation in which every indexed record is servable and
// every record the API rejected is absent.
package segmentlog

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"syscall"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// TestFsyncPoisonSalvage: a failed fsync must poison the active segment
// — never be retried against the same file (fsyncgate) — and the next
// Sync salvages the at-risk records into a fresh file and reports
// success, because after the salvage everything appended IS durable.
func TestFsyncPoisonSalvage(t *testing.T) {
	const dir = "/log"
	fs := vfs.NewFaultFS(1)
	l := mustOpen(t, dir, Options{FS: fs})

	var want [][]trajstore.GeoKey
	for i := 0; i < 3; i++ {
		keys := genKeys(i+1, 10)
		if err := l.Append("dev", keys); err != nil {
			t.Fatal(err)
		}
		want = append(want, keys)
	}
	// The first fsync of the segment fails; FaultFS drops the un-synced
	// bytes on the spot, so only the in-process salvage copy can save
	// the records.
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "seg-*.log", Fault: vfs.FaultEIO, Count: 1})
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync = %v, want nil: the salvage rewrote everything into a durable fresh file", err)
	}
	for i, keys := range want {
		_ = i
		recs := queryAll(t, l, "dev")
		if len(recs) != len(want) {
			t.Fatalf("query after salvage: %d records, want %d", len(recs), len(want))
		}
		if !reflect.DeepEqual(recs[i].Keys, keys) {
			t.Fatalf("record %d corrupted by salvage", i)
		}
	}
	// The poisoned file must get no further appends: new records land in
	// the salvage segment and another clean cycle works.
	extra := genKeys(99, 10)
	if err := l.Append("dev", extra); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{FS: fs.Restart()})
	defer l2.Close()
	recs := queryAll(t, l2, "dev")
	if len(recs) != len(want)+1 {
		t.Fatalf("reopen: %d records, want %d", len(recs), len(want)+1)
	}
	for i, keys := range append(want, extra) {
		if !reflect.DeepEqual(recs[i].Keys, keys) {
			t.Fatalf("reopen: record %d corrupted", i)
		}
	}
}

// TestFsyncPoisonSealedWatermark drives the salvage's other path: when
// a previous fsync succeeded, the poisoned file is sealed (truncated)
// at the durable watermark and only the at-risk tail moves to the fresh
// segment — nothing below the watermark is rewritten or duplicated.
func TestFsyncPoisonSealedWatermark(t *testing.T) {
	const dir = "/log"
	fs := vfs.NewFaultFS(2)
	l := mustOpen(t, dir, Options{FS: fs})

	durable := genKeys(1, 12)
	if err := l.Append("dev", durable); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // establishes a watermark > header
		t.Fatal(err)
	}
	atRisk := genKeys(2, 12)
	if err := l.Append("dev", atRisk); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "seg-*.log", Fault: vfs.FaultENOSPC, Count: 1})
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync = %v, want nil via salvage", err)
	}
	if s := l.Stats(); s.Segments != 2 {
		t.Fatalf("Segments = %d after sealed-watermark salvage, want 2 (sealed + fresh)", s.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{FS: fs.Restart()})
	defer l2.Close()
	recs := queryAll(t, l2, "dev")
	if len(recs) != 2 {
		t.Fatalf("reopen: %d records, want 2", len(recs))
	}
	if !reflect.DeepEqual(recs[0].Keys, durable) || !reflect.DeepEqual(recs[1].Keys, atRisk) {
		t.Fatal("records corrupted or duplicated across sealed-watermark salvage")
	}
}

// TestPoisonedAppendHeals: while the disk stays sick the poisoned log
// rejects appends cleanly (error ⇒ record not in the log); once it
// recovers, the very next Append heals into a fresh file first — the
// poisoned segment never takes another byte.
func TestPoisonedAppendHeals(t *testing.T) {
	const dir = "/log"
	fs := vfs.NewFaultFS(3)
	l := mustOpen(t, dir, Options{FS: fs})

	first := genKeys(1, 10)
	if err := l.Append("dev", first); err != nil {
		t.Fatal(err)
	}
	// Sustained failure: the active file's fsync AND the salvage file's
	// fsync both fail, so the heal inside Sync cannot complete.
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "seg-*.log", Fault: vfs.FaultEIO})
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded while every fsync fails")
	}
	rejected := genKeys(2, 10)
	if err := l.Append("dev", rejected); err == nil {
		t.Fatal("Append on a poisoned log with a sick disk must fail")
	}
	checkView(t, l) // poisoned: the withdrawn record is out of every figure
	// Disk recovers: the next append heals first, then lands.
	fs.ClearRules()
	second := genKeys(3, 10)
	if err := l.Append("dev", second); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	checkView(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{FS: fs.Restart()})
	defer l2.Close()
	recs := queryAll(t, l2, "dev")
	if len(recs) != 2 {
		t.Fatalf("reopen: %d records, want 2 (the rejected append must be absent)", len(recs))
	}
	if !reflect.DeepEqual(recs[0].Keys, first) || !reflect.DeepEqual(recs[1].Keys, second) {
		t.Fatal("surviving records corrupted")
	}
}

// TestPoisonWithdrawsTheDevice: a device whose only records sit above the
// durable watermark when an fsync fails leaves the view with them — while
// the log is poisoned it is not in Devices, not counted in Stats().Devices
// and not found by DeviceSpan, though the shard's name table still numbers
// it — and a heal brings it back.
func TestPoisonWithdrawsTheDevice(t *testing.T) {
	fs := vfs.NewFaultFS(4)
	l := mustOpen(t, "/log", Options{FS: fs})
	defer l.Close()
	if err := l.Append("durable", genKeys(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("fresh", genKeys(2, 10)); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "seg-*.log", Fault: vfs.FaultEIO})
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded while every fsync fails")
	}
	if devs := l.Devices(); !reflect.DeepEqual(devs, []string{"durable"}) {
		t.Fatalf("poisoned: Devices() = %q, want only the durable device", devs)
	}
	if n := l.Stats().Devices; n != 1 {
		t.Fatalf("poisoned: Stats().Devices = %d, want 1", n)
	}
	if _, _, _, ok := l.DeviceSpan("fresh"); ok {
		t.Fatal("poisoned: DeviceSpan found the withdrawn device")
	}
	checkView(t, l)

	fs.ClearRules()
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after the disk recovered: %v", err)
	}
	if devs := l.Devices(); !reflect.DeepEqual(devs, []string{"durable", "fresh"}) {
		t.Fatalf("healed: Devices() = %q, want both devices", devs)
	}
	if n, _, _, ok := l.DeviceSpan("fresh"); !ok || n != 1 || l.Stats().Devices != 2 {
		t.Fatalf("healed: DeviceSpan(fresh) = (%d, %v), Stats().Devices = %d; want its record back and 2 devices", n, ok, l.Stats().Devices)
	}
	checkView(t, l)
}

// TestFailedFirstOpenReopens: a fresh shard's first open that fails to
// publish its MANIFEST leaves a header-only segment behind. That file holds
// no record, so the next open treats the directory as fresh — where segment
// files with records and no MANIFEST are refused (TestMissingManifestRefused)
// — sweeps it and takes appends. (Seeds 39 and 155 of a 256-seed
// TestFaultMatrix found it.)
func TestFailedFirstOpenReopens(t *testing.T) {
	const dir = "/log"
	fs := vfs.NewFaultFS(5)
	fs.AddRule(vfs.Rule{Op: vfs.OpRename, Fault: vfs.FaultEIO, Count: 1})
	if _, err := openShardLog(dir, Options{FS: fs}); err == nil {
		t.Fatal("first open published its MANIFEST through a failing rename")
	}
	fs = fs.Restart()
	if _, err := fs.Stat(filepath.Join(dir, segName(1))); err != nil {
		t.Fatalf("fixture: the failed open left no segment behind: %v", err)
	}
	l := mustOpen(t, dir, Options{FS: fs})
	defer l.Close()
	if err := l.Append("dev", genKeys(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("the failed open's segment was not swept: %v", err)
	}
	checkView(t, l)
}

// faultSeeds returns how many seeded schedules TestFaultMatrix runs:
// BQS_FAULT_SEEDS overrides (CI runs 32, nightly 256), -short trims.
func faultSeeds(t *testing.T) int {
	t.Helper()
	n := 32
	if s := os.Getenv("BQS_FAULT_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("BQS_FAULT_SEEDS = %q: want a positive integer", s)
		}
		n = v
	}
	if testing.Short() && n > 8 {
		n = 8
	}
	return n
}

// faultRec tracks one appended record through a schedule: accepted
// means Append returned nil (the record is in the log per its
// contract); durable means a later Sync/Close succeeded, guaranteeing
// it survives anything, including power loss.
type faultRec struct {
	dev      string
	keys     []trajstore.GeoKey
	accepted bool
	durable  bool
}

// TestFaultMatrix is the seeded-schedule acceptance sweep. Each seed
// derives a fault schedule (which ops fail, how, when — including
// crash-after-partial-rename power loss) and drives the same scripted
// ingest→sync→compact→query workload through it, tolerating whatever
// errors surface. The invariants checked are absolute:
//
//   - the directory reopens after a power loss (Restart) to one
//     consistent generation;
//   - every record covered by a successful Sync is served exactly once,
//     bit-identical;
//   - every record whose Append returned nil appears at most once,
//     bit-identical if at all;
//   - every record whose Append returned an error is absent;
//   - while the filesystem has not crashed, live queries never error
//     (no indexed-but-unservable records).
func TestFaultMatrix(t *testing.T) {
	for seed := 0; seed < faultSeeds(t); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%03d", seed), func(t *testing.T) {
			t.Parallel()
			runFaultSchedule(t, int64(seed))
		})
	}
}

func runFaultSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	const dir = "/log"
	fs := vfs.NewFaultFS(seed)
	faults := []vfs.Fault{vfs.FaultEIO, vfs.FaultENOSPC, vfs.FaultShortWrite, vfs.FaultCrash}
	ops := []vfs.Op{"", vfs.OpWrite, vfs.OpSync, vfs.OpRename, vfs.OpOpenFile, vfs.OpTruncate, vfs.OpRemove}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		fs.AddRule(vfs.Rule{
			Op:    ops[rng.Intn(len(ops))],
			Fault: faults[rng.Intn(len(faults))],
			After: 10 + rng.Intn(500),
			Count: 1 + rng.Intn(3),
		})
	}

	var recs []faultRec
	markDurable := func() {
		for i := range recs {
			if recs[i].accepted {
				recs[i].durable = true
			}
		}
	}
	l, err := openShardLog(dir, Options{MaxSegmentBytes: 600, FS: fs})
	if err != nil {
		// The schedule killed the open itself — a legal outcome; the
		// acceptance below still demands a clean reopen.
		l = nil
	}
	if l != nil {
		step := 0
		for phase := 0; phase < 3; phase++ {
			for i := 0; i < 12; i++ {
				r := faultRec{dev: fmt.Sprintf("dev-%02d", step), keys: genKeys(step+1, 10)}
				r.accepted = l.Append(r.dev, r.keys) == nil
				recs = append(recs, r)
				step++
			}
			if l.Sync() == nil {
				markDurable()
			}
			if phase == 1 {
				l.Compact(CompactionPolicy{}) // a failed pass must leave the published generation intact
			}
			if !fs.Crashed() {
				for _, r := range recs {
					_, err := l.Query(r.dev, 0, math.MaxUint32)
					// An injected errno on the read path is the disk
					// being sick, not the log lying; what must never
					// surface while healthy is corruption or a missing
					// indexed record.
					if err != nil && !fs.Crashed() &&
						!errors.Is(err, syscall.EIO) && !errors.Is(err, syscall.ENOSPC) {
						t.Fatalf("live query %s errored mid-schedule: %v", r.dev, err)
					}
				}
			}
		}
		if closeErr := l.Close(); closeErr == nil && !fs.Crashed() {
			markDurable() // a clean Close is a durability barrier too
		}
	}

	// Acceptance: reopen what survived a power loss.
	l2, err := openShardLog(dir, Options{MaxSegmentBytes: 600, FS: fs.Restart()})
	if err != nil {
		t.Fatalf("reopen after schedule %s: %v", fs, err)
	}
	defer l2.Close()
	for _, r := range recs {
		got, err := l2.Query(r.dev, 0, math.MaxUint32)
		if err != nil {
			t.Fatalf("%s: query %s after reopen: %v", fs, r.dev, err)
		}
		switch {
		case !r.accepted:
			if len(got) != 0 {
				t.Fatalf("%s: rejected append %s present after reopen", fs, r.dev)
			}
		case r.durable:
			if len(got) != 1 {
				t.Fatalf("%s: synced record %s: %d copies after reopen, want 1", fs, r.dev, len(got))
			}
		default:
			if len(got) > 1 {
				t.Fatalf("%s: record %s duplicated after reopen (%d copies)", fs, r.dev, len(got))
			}
		}
		if len(got) == 1 && !reflect.DeepEqual(got[0].Keys, r.keys) {
			t.Fatalf("%s: record %s corrupted after reopen", fs, r.dev)
		}
	}
	checkView(t, l2)
}

// TestWriteBehindBound: with no Sync from the caller at all, the log
// fsyncs on its own whenever maxUnsynced bytes wait, so what it holds in
// memory (and a SIGKILL would lose) stays under the bound however much is
// appended — here 8 MiB into one default-sized segment — every record
// stays servable throughout, and a Sync leaves nothing behind.
func TestWriteBehindBound(t *testing.T) {
	fs := vfs.NewFaultFS(3)
	const dir = "/log"
	l := mustOpen(t, dir, Options{FS: fs})
	keys := genKeys(1, 4000) // ≈ 12 KiB a record
	records, appended := 0, int64(0)
	for ; appended < 8<<20; records++ {
		if err := l.Append(fmt.Sprintf("dev-%d", records%7), keys); err != nil {
			t.Fatal(err)
		}
		st := l.Stats()
		if st.Unsynced >= maxUnsynced {
			t.Fatalf("after %d records: %d B unsynced, bound %d", records+1, st.Unsynced, maxUnsynced)
		}
		if c := cap(l.unsynced); c > 2*maxUnsynced {
			t.Fatalf("after %d records: write-behind buffer holds %d B of capacity", records+1, c)
		}
		appended = st.Bytes
	}
	if got := len(queryAll(t, l, "dev-3")); got != (records+3)/7 {
		t.Fatalf("dev-3: %d records before any Sync, want %d", got, (records+3)/7)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Unsynced != 0 || st.Records != records {
		t.Fatalf("after Sync: %+v, want 0 unsynced and %d records", st, records)
	}
	// One record larger than the bound passes through, and the capacity
	// it forced is dropped by the fsync that empties it.
	big := genKeys(2, 300_000)
	if err := l.Append("big", big); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Unsynced != 0 || cap(l.unsynced) > 2*maxUnsynced {
		t.Fatalf("after an oversized record: %d B unsynced, %d B of capacity kept", st.Unsynced, cap(l.unsynced))
	}
	// Power loss now: everything an fsync covered is on disk.
	l2 := mustOpen(t, dir, Options{FS: fs.Restart()})
	defer l2.Close()
	if st := l2.Stats(); st.Records != records+1 {
		t.Fatalf("after the crash: %d records, want %d", st.Records, records+1)
	}
	if recs := queryAll(t, l2, "big"); len(recs) != 1 || !reflect.DeepEqual(recs[0].Keys, big) {
		t.Fatal("the oversized record did not survive the crash intact")
	}
}

// TestWriteBehindFsyncFailsInsideAppend: the fsync the bound triggers runs
// inside AppendTrail, after the record was accepted, so its failure must
// not fail the append (rotation's contract): the segment is poisoned, and
// when the salvage cannot run either the failure resurfaces from the next
// Append or Sync; once the disk recovers, Sync heals and every accepted
// record is there exactly once.
func TestWriteBehindFsyncFailsInsideAppend(t *testing.T) {
	fs := vfs.NewFaultFS(4)
	const dir = "/log"
	l := mustOpen(t, dir, Options{FS: fs})
	keys := genKeys(1, 4000)
	if err := l.Append("dev", keys); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // a durable watermark above the header
		t.Fatal(err)
	}
	// Every fsync and every new file fails: the threshold fsync poisons
	// and its salvage cannot start.
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "seg-*.log", Fault: vfs.FaultEIO})
	fs.AddRule(vfs.Rule{Op: vfs.OpOpenFile, Path: "seg-*.log", Fault: vfs.FaultENOSPC})
	accepted := 1
	for !l.poisoned {
		if err := l.Append("dev", keys); err != nil {
			t.Fatalf("append %d = %v: the fsync at the threshold must not un-accept a record", accepted, err)
		}
		if accepted++; accepted > 100 {
			t.Fatal("the write-behind bound never triggered an fsync")
		}
	}
	if st := l.Stats(); st.Unsynced < maxUnsynced {
		t.Fatalf("poisoned with %d B in the salvage copy, want the %d B that triggered the fsync", st.Unsynced, maxUnsynced)
	}
	// Poisoned: the durable prefix still answers, the rest is withheld.
	if got := len(queryAll(t, l, "dev")); got != 1 {
		t.Fatalf("poisoned log serves %d records, want the 1 below the watermark", got)
	}
	if err := l.Append("dev", keys); err == nil {
		t.Fatal("Append on a poisoned log with a sick disk must fail")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync on a poisoned log with a sick disk must fail")
	}
	fs.ClearRules()
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after the disk recovered = %v, want nil via salvage", err)
	}
	if st := l.Stats(); st.Unsynced != 0 || st.Records != accepted {
		t.Fatalf("after the heal: %+v, want 0 unsynced and %d records", st, accepted)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{FS: fs.Restart()})
	defer l2.Close()
	recs := queryAll(t, l2, "dev")
	if len(recs) != accepted {
		t.Fatalf("reopen: %d records, want %d (each accepted record exactly once)", len(recs), accepted)
	}
	for i, r := range recs {
		if !reflect.DeepEqual(r.Keys, keys) {
			t.Fatalf("reopen: record %d corrupted", i)
		}
	}
}
