// Tests of the compaction selection: a periodic pass consumes the run
// sealed since the last one and the older tiers tierRatio trips, an
// explicit pass every tier, and the two agree on what the log holds.
package segmentlog

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// deviceBlocksOf copies out every stored block of every device, in the
// order the log serves them.
func deviceBlocksOf(t *testing.T, l *shardLog) map[string][]Block {
	t.Helper()
	out := make(map[string][]Block)
	for _, dev := range l.Devices() {
		err := l.deviceBlocks(dev, 0, math.MaxUint32, func(b Block) error {
			b.Payload = append([]byte(nil), b.Payload...)
			out[dev] = append(out[dev], b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestTickedLogMatchesExplicitTwin is the differential test of the selection:
// a seeded random schedule of appends (each device's chained chunks), seals,
// ticks, explicit passes, poison → heal and reopen runs against a log
// and its twin, which is handed the same records and never ticks. After every
// step each log serves what it says it holds (checkView) and both spell the
// same polylines; after a final seal and explicit pass on both, every device
// holds the same blocks in the same order — whatever runs the ticks replaced
// in place on the way. With ageing on as well, the ticks age what they
// select sooner than the twin's passes do, and FBQS's key points depend on
// where its run starts, so the two polylines differ: then each must hold
// every appended key within CoarseTolerance after every step, and after the
// final pass a further one ages nothing on either.
func TestTickedLogMatchesExplicitTwin(t *testing.T) {
	for _, ageing := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			name := fmt.Sprintf("seed-%d", seed)
			if ageing {
				name = "ageing-" + name
			}
			t.Run(name, func(t *testing.T) { tickedAndTwin(t, seed, ageing) })
		}
	}
}

func tickedAndTwin(t *testing.T, seed int64, ageing bool) {
	const devices, steps, coarse = 5, 160, 0.3
	policy := CompactionPolicy{MergeChunks: true}
	if ageing {
		policy.CoarseTolerance, policy.Now = coarse, func() time.Time { return time.Unix(1<<40, 0) }
	}
	t.Parallel()
	rng := rand.New(rand.NewSource(seed))
	var logs [2]*shardLog // the ticked one, its twin
	var fss [2]*vfs.FaultFS
	dirs := [2]string{t.TempDir(), t.TempDir()}
	open := func() {
		for i := range logs {
			fss[i] = vfs.NewFaultFS(seed)
			logs[i] = mustOpen(t, dirs[i], Options{MaxSegmentBytes: 700, FS: fss[i]})
		}
	}
	open()
	defer func() { logs[0].Close(); logs[1].Close() }()
	both := func(what string, f func(l *shardLog) error) {
		t.Helper()
		for i, l := range logs {
			if err := f(l); err != nil {
				t.Fatalf("%s on log %d: %v", what, i, err)
			}
		}
	}
	tracks := make([][][]trajstore.GeoKey, devices)
	next := make([]int, devices)
	for d := range tracks {
		tracks[d] = chunkKeys(genKeys(int(seed)*10+d, 8*steps), 8)
	}
	ticks, runs, aged := 0, 0, 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op < 11: // a device's next chunk
			d := rng.Intn(devices)
			both("append", func(l *shardLog) error { return l.Append(fmt.Sprintf("dev-%d", d), tracks[d][next[d]]) })
			next[d]++
		case op < 13:
			both("seal", (*shardLog).seal)
		case op < 17:
			sealed := logs[0].Stats().Segments - 1
			res, err := logs[0].compact(policy, false, 2)
			if err != nil {
				t.Fatalf("tick: %v", err)
			}
			if ticks++; res.Gen != 0 && res.SegmentsIn < sealed {
				runs++ // published behind segments it left alone
			}
			aged += res.Aged
		case op < 18:
			both("explicit pass", func(l *shardLog) error { _, err := l.compact(policy, true, 2); return err })
		case op < 19: // every fsync fails: the un-synced tail leaves the index, then heals back in
			for i, l := range logs {
				l.mu.Lock()
				dirty := len(l.unsynced) > 0
				l.mu.Unlock()
				fss[i].AddRule(vfs.Rule{Op: vfs.OpSync, Path: "seg-*.log", Fault: vfs.FaultEIO})
				if err := l.Sync(); dirty && err == nil {
					t.Fatalf("log %d: Sync succeeded while every fsync fails", i)
				}
				checkView(t, l)
				fss[i].ClearRules()
			}
			both("heal", (*shardLog).Sync)
		default:
			both("close", (*shardLog).Close)
			open()
		}
		for _, l := range logs {
			checkView(t, l)
		}
		for d := 0; d < devices; d++ {
			dev := fmt.Sprintf("dev-%d", d)
			a, b := stitch(queryAll(t, logs[0], dev)), stitch(queryAll(t, logs[1], dev))
			if ageing {
				var orig []trajstore.GeoKey
				for i, chunk := range tracks[d][:next[d]] {
					orig = append(orig, chunk[min(i, 1):]...) // chunks share their end keys
				}
				withinCoarse(t, dev, orig, a, coarse)
				withinCoarse(t, dev, orig, b, coarse)
			} else if !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d: %s spells %d key points on the ticked log, %d on its twin", step, dev, len(a), len(b))
			}
		}
	}
	if ticks == 0 || runs == 0 || ageing && aged == 0 {
		t.Fatalf("%d ticks, %d of them replacing a run behind older segments, %d records aged: the schedule proved nothing", ticks, runs, aged)
	}
	both("final seal", (*shardLog).seal)
	both("final pass", func(l *shardLog) error { _, err := l.compact(policy, true, 2); return err })
	if ageing {
		both("a pass after the last", func(l *shardLog) error {
			if res, err := l.compact(policy, true, 2); err != nil || res.Aged != 0 {
				return fmt.Errorf("%+v, %v; want nothing aged", res, err)
			}
			return nil
		})
		return
	}
	a, b := deviceBlocksOf(t, logs[0]), deviceBlocksOf(t, logs[1])
	if !reflect.DeepEqual(a, b) {
		for dev := range b {
			if !reflect.DeepEqual(a[dev], b[dev]) {
				t.Errorf("%s: %d blocks on the ticked log, %d on its twin, or not the same ones", dev, len(a[dev]), len(b[dev]))
			}
		}
		t.Fatal("the ticked log and its twin differ after a final explicit pass on both")
	}
	for _, l := range logs {
		checkView(t, l)
	}
}

// withinCoarse fails unless every key of orig lies within coarse — plus
// lattice slack — of the polyline served, its time-matched segment, as the
// ageing compressor bounds it.
func withinCoarse(t *testing.T, dev string, orig, served []trajstore.GeoKey, coarse float64) {
	t.Helper()
	plane := func(keys []trajstore.GeoKey) []core.Point {
		pts := make([]core.Point, len(keys))
		for i, k := range keys {
			pts[i] = trajstore.PlanePoint(k)
		}
		return pts
	}
	if worst, err := stream.Deviation(ageCompressor, plane(orig), plane(served)); err != nil || worst > coarse*(1+1e-9) {
		t.Fatalf("%s: an appended key lies %.3f m from the served polyline of %d keys (of %d), bound %g: %v",
			dev, worst, len(served), len(orig), coarse, err)
	}
}

// countFS counts the bytes written to segment files.
type countFS struct {
	vfs.FS
	written atomic.Int64
}

type countFile struct {
	vfs.File
	n *atomic.Int64
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "seg-") {
		return f, err
	}
	return &countFile{File: f, n: &c.written}, nil
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

// TestTickCostFollowsWhatChanged holds compaction to its budget: over N ticks
// of a log that seals k segments between them, the passes together write no
// more segment bytes than the appends did times log2(N) — a byte is
// rewritten when the tier it lives in grows by half or more, not at every
// tick. The same schedule with every pass explicit, what a tick was before
// the selection, writes N/2 times what was appended and must blow the same
// budget, or the bound proves nothing. (The MANIFEST is outside the count: a
// publish rewrites it whole, a rotation's as a pass's.)
func TestTickCostFollowsWhatChanged(t *testing.T) {
	const ticks, perTick, devices = 64, 2, 8
	cost := func(all bool) (appended, compacted int64, segments int) {
		fs := &countFS{FS: vfs.OS}
		l := mustOpen(t, t.TempDir(), Options{MaxSegmentBytes: 4 << 10, FS: fs})
		defer l.Close()
		for tick, c := 0, 0; tick < ticks; tick++ {
			before := fs.written.Load()
			for sealed := l.Stats().Segments + perTick; l.Stats().Segments < sealed; c++ {
				if err := l.Append(fmt.Sprintf("dev-%d", c%devices), chunkAt(c%devices, c/devices, 16)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			mid := fs.written.Load()
			if _, err := l.compact(CompactionPolicy{MergeChunks: true}, all, 2); err != nil {
				t.Fatal(err)
			}
			appended += mid - before
			compacted += fs.written.Load() - mid
		}
		checkView(t, l)
		return appended, compacted, l.Stats().Segments
	}
	budget := func(appended int64) int64 { return int64(float64(appended) * math.Log2(ticks)) }
	appended, compacted, segments := cost(false)
	t.Logf("ticks: appended %d B, compaction wrote %d B (%.2f×) into %d segments", appended, compacted, float64(compacted)/float64(appended), segments)
	if compacted > budget(appended) {
		t.Fatalf("%d ticks wrote %d bytes for %d appended: over appended × log2(N) = %d", ticks, compacted, appended, budget(appended))
	}
	appended, compacted, _ = cost(true)
	t.Logf("explicit passes: appended %d B, compaction wrote %d B (%.2f×)", appended, compacted, float64(compacted)/float64(appended))
	if compacted <= budget(appended) {
		t.Fatalf("full rewrites stayed within the budget (%d ≤ %d): the schedule is too short to tell them from ticks", compacted, budget(appended))
	}
}

// TestLogTicks: a writable log whose policy sets Every compacts on its own.
// Its ticks merge a chunked device with no explicit call; a failing pass is
// counted, returned by Close while it stands and cleared by the next good
// pass; a read-only open starts no ticker, and a negative Every is refused
// before anything is created.
func TestLogTicks(t *testing.T) {
	dir := t.TempDir()
	fs := vfs.NewFaultFS(1)
	opts := Options{MaxSegmentBytes: 256, FS: fs, Compaction: &CompactionPolicy{MergeChunks: true, Every: 2 * time.Millisecond}}
	appendChunked := func(s *ShardedLog, dev string, seed int) int {
		chunks := chunkKeys(genKeys(seed, 80), 8)
		for _, c := range chunks {
			if err := s.Append(dev, c); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		return len(chunks)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("no tick %s within 10 s", what)
			}
		}
	}
	failReads := vfs.Rule{Op: vfs.OpReadAt, Path: "seg-*.log", Fault: vfs.FaultEIO}

	s := mustOpenSharded(t, dir, 1, opts)
	chunks := appendChunked(s, "a", 1)
	waitFor("merged the chunks", func() bool { n, _, _, _ := s.DeviceSpan("a"); return n < chunks })
	fs.AddRule(failReads)
	appendChunked(s, "b", 2) // seals segments the failing ticks cannot read
	waitFor("failed", func() bool { return s.Stats().CompactFailures > 0 })
	gen := s.Stats().Gen
	fs.ClearRules()
	waitFor("succeeded after the failure", func() bool { return s.Stats().Gen > gen })
	if err := s.Close(); err != nil {
		t.Fatalf("Close after a good pass = %v, want nil", err)
	}

	s = mustOpenSharded(t, dir, 1, opts)
	fs.AddRule(failReads)
	appendChunked(s, "c", 3)
	waitFor("failed", func() bool { return s.Stats().CompactFailures > 0 })
	if err := s.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close under a standing failure = %v, want the pass's EIO", err)
	}
	fs.ClearRules()

	ro := mustOpenSharded(t, dir, 1, Options{ReadOnly: true, Compaction: opts.Compaction})
	time.Sleep(20 * time.Millisecond) // ticks on a read-only log would fail, and count
	if ro.stopTick != nil || ro.Stats().CompactFailures != 0 {
		t.Fatalf("a read-only open ticks: %d failed passes", ro.Stats().CompactFailures)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := filepath.Join(t.TempDir(), "fresh")
	if _, err := OpenSharded(fresh, 1, Options{Compaction: &CompactionPolicy{Every: -time.Second}}); err == nil {
		t.Fatal("a negative Every was accepted")
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Fatalf("a refused open left %s behind (%v)", fresh, err)
	}
}
