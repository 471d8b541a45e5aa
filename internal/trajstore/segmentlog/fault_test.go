// Fault-injection tests: the log driven over vfs.FaultFS. Two shapes
// live here — targeted schedules for the fsync-poison/salvage machinery,
// and TestFaultMatrix, the seeded-schedule acceptance sweep: whatever a
// schedule injects (ENOSPC, EIO, short writes, power loss), the log must
// reopen through a clean filesystem to exactly one consistent generation
// in which every indexed record is servable and every record the API
// rejected is absent.
package segmentlog

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
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
	dir := t.TempDir()
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
	l2 := mustOpen(t, dir, Options{})
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
	dir := t.TempDir()
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
	l2 := mustOpen(t, dir, Options{})
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
	dir := t.TempDir()
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
	// Disk recovers: the next append heals first, then lands.
	fs.ClearRules()
	second := genKeys(3, 10)
	if err := l.Append("dev", second); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	recs := queryAll(t, l2, "dev")
	if len(recs) != 2 {
		t.Fatalf("reopen: %d records, want 2 (the rejected append must be absent)", len(recs))
	}
	if !reflect.DeepEqual(recs[0].Keys, first) || !reflect.DeepEqual(recs[1].Keys, second) {
		t.Fatal("surviving records corrupted")
	}
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
//   - the directory reopens through a clean filesystem to one
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
	dir := t.TempDir()
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

	// Acceptance: reopen through the real filesystem.
	l2, err := openShardLog(dir, Options{MaxSegmentBytes: 600})
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
}
