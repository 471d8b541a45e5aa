// Tests of the log's one in-memory view: every segment is loaded when
// the open returns, Stats, the device index and the spans are read off
// that list without touching the disk, a reopened log answers exactly as
// the live one did, and damage in a sealed segment is found by the open.
package segmentlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// checkView asserts that what a shard log reports about itself is what it
// serves: Stats().Records is the sum of what every device's Query returns,
// Stats().Devices the length of Devices(), each DeviceSpan the count and
// time hull of that device's records — while poisoned too — and, once
// everything accepted is on disk (nothing un-synced), Stats().Bytes the
// size of the files the MANIFEST references.
func checkView(t *testing.T, l *shardLog) {
	t.Helper()
	st, devs := l.Stats(), l.Devices()
	if st.Devices != len(devs) {
		t.Fatalf("view: Stats().Devices = %d, Devices() lists %d", st.Devices, len(devs))
	}
	served := 0
	for _, dev := range devs {
		recs := queryAll(t, l, dev)
		served += len(recs)
		t0, t1 := uint32(math.MaxUint32), uint32(0)
		for _, r := range recs {
			t0, t1 = min(t0, r.T0), max(t1, r.T1)
		}
		if n, s0, s1, ok := l.DeviceSpan(dev); !ok || n != len(recs) || s0 != t0 || s1 != t1 {
			t.Fatalf("view: DeviceSpan(%s) = (%d, %d, %d, %v), its %d records span [%d, %d]", dev, n, s0, s1, ok, len(recs), t0, t1)
		}
	}
	if st.Records != served {
		t.Fatalf("view: Stats().Records = %d, the devices' queries serve %d", st.Records, served)
	}
	l.mu.Lock()
	settled := !l.poisoned && len(l.unsynced) == 0 && (!l.ro || l.truncated == 0)
	l.mu.Unlock()
	if !settled {
		return // the active file's size on disk is not the log's to state yet
	}
	man, found, err := readManifest(l.fs, l.dir)
	if err != nil || !found {
		t.Fatalf("view: reading the manifest: %v (found %v)", err, found)
	}
	var onDisk int64
	for _, ms := range man.Segs {
		fi, err := l.fs.Stat(filepath.Join(l.dir, ms.Name))
		if err != nil {
			t.Fatalf("view: %v", err)
		}
		onDisk += fi.Size()
	}
	if len(man.Segs) != st.Segments || st.Bytes != onDisk {
		t.Fatalf("view: Stats() = %d segments, %d bytes; the manifest references %d files of %d bytes", st.Segments, st.Bytes, len(man.Segs), onDisk)
	}
}

// answers is everything a handle says about a log without being told
// which device to look at.
type answers struct {
	Stats   Stats
	Devices []string
	Spans   map[string][3]uint32
	Windows map[string][]Record
	Pruning map[string]WindowStats
}

func snapshotAnswers(t *testing.T, l *shardLog, windows map[string][4]float64) answers {
	t.Helper()
	a := answers{Stats: l.Stats(), Devices: l.Devices(), Spans: map[string][3]uint32{},
		Windows: map[string][]Record{}, Pruning: map[string]WindowStats{}}
	a.Stats.Gen, a.Stats.Rewritten, a.Stats.Reclaimed = 0, 0, 0 // every writable open publishes, and compaction is counted per handle: none is content
	for _, dev := range a.Devices {
		n, t0, t1, _ := l.DeviceSpan(dev)
		a.Spans[dev] = [3]uint32{uint32(n), t0, t1}
	}
	for name, w := range windows {
		recs, ws, err := l.QueryWindowStats(w[0], w[1], w[2], w[3], 0, math.MaxUint32)
		if err != nil {
			t.Fatal(err)
		}
		a.Windows[name], a.Pruning[name] = recs, ws
	}
	return a
}

// TestReopenAnswersIdentically: after appends, rotations and a compaction
// that rewrote the sealed prefix, Stats, Devices, every DeviceSpan and a
// fixed set of windows — pruning statistics included, the selective one
// skipping whole segments on their summaries — are the same on
// the live log, on a read-only handle beside it, after a writable reopen
// and on a read-only handle after that.
func TestReopenAnswersIdentically(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MaxSegmentBytes: 2 << 10}
	l := mustOpen(t, dir, opts)
	// Spatially separated devices (cellKeys cells), device-major so sealed
	// segments cover distinct regions; the repeated record is dedup's input.
	fill := func(r0, r1 int) {
		for d := 0; d < 6; d++ {
			for r := r0; r < r1; r++ {
				if err := l.Append(fmt.Sprintf("dev-%d", d), cellKeys(d, r, 16)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Append(fmt.Sprintf("dev-%d", d), cellKeys(d, r0, 16)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(0, 20)
	if res, err := l.Compact(CompactionPolicy{MergeChunks: true}); err != nil || res.Deduped == 0 || res.Gen == 0 {
		t.Fatalf("compaction rewrote nothing: %+v, %v", res, err)
	}
	fill(20, 26) // sealed-since-compaction segments and a live tail
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	minX, minY, maxX, maxY := cellWindow(2, 2)
	windows := map[string][4]float64{
		"selective": {minX, minY, maxX, maxY},
		"all":       {-10, -10, 10, 10},
		"empty":     {50, 50, 60, 60},
	}
	want := snapshotAnswers(t, l, windows)
	if st := want.Stats; st.Segments < 4 || st.Devices != 6 {
		t.Fatalf("fixture too small: %+v", st)
	}
	if ws := want.Pruning["selective"]; ws.SegmentsPruned == 0 || ws.RecordsMatched == 0 {
		t.Fatalf("selective window pruned no segment or matched nothing: %+v", ws)
	}
	checkView(t, l)

	same := func(stage string, h *shardLog) {
		t.Helper()
		if got := snapshotAnswers(t, h, windows); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s answers differently:\n got %+v\nwant %+v", stage, got.Stats, want.Stats)
		}
		checkView(t, h)
	}
	roOpts := opts
	roOpts.ReadOnly = true
	ro := mustOpen(t, dir, roOpts)
	same("read-only handle beside the writer", ro)
	ro.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, opts)
	defer l2.Close()
	same("writable reopen", l2)
	ro = mustOpen(t, dir, roOpts)
	defer ro.Close()
	same("read-only handle after the reopen", ro)
}

// TestStatsDoesNoIO: a reopened log's view is complete when the open
// returns — Stats (every /metrics scrape), Devices and DeviceSpan perform
// no filesystem operation, the first time or any other.
func TestStatsDoesNoIO(t *testing.T) {
	fs := vfs.NewFaultFS(0) // ruleless: pure op observer
	l := mustOpen(t, memDir, Options{MaxSegmentBytes: 384, FS: fs})
	fillCells(t, l, 4, 8, 12)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	want := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if want.Segments < 4 {
		t.Fatalf("fixture sealed too few segments: %+v", want)
	}
	fs = fs.Restart()
	l2 := mustOpen(t, memDir, Options{MaxSegmentBytes: 384, FS: fs})
	defer l2.Close()
	before := fs.Ops()
	st := l2.Stats()
	devs := l2.Devices()
	n, _, _, ok := l2.DeviceSpan("dev-002")
	if d := fs.Ops() - before; d != 0 {
		t.Fatalf("Stats, Devices and DeviceSpan performed %d fs ops on a reopened log, want 0", d)
	}
	if st.Records != want.Records || st.Bytes != want.Bytes || st.Devices != 4 || len(devs) != 4 || !ok || n != 8 {
		t.Fatalf("reopened view: %+v, %d devices, dev-002 has %d records (%v); was %+v", st, len(devs), n, ok, want)
	}
}

// indexFixture appends 50 000 four-key records, 100 for each of 500
// devices round-robin, to l, sealing the last segment when seal says so;
// it returns the record count.
func indexFixture(tb testing.TB, l *shardLog, seal bool) int {
	tb.Helper()
	const devices, perDevice = 500, 100
	names := make([]string, devices)
	for d := range names {
		names[d] = fmt.Sprintf("dev-%03d", d)
	}
	for c := 0; c < perDevice; c++ {
		for d, name := range names {
			if err := l.Append(name, chunkAt(d, c, 4)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	err := l.Sync()
	if seal && err == nil {
		err = l.seal()
	}
	if err != nil {
		tb.Fatal(err)
	}
	return devices * perDevice
}

// heapAfterGC is the live heap, collected first.
func heapAfterGC() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIndexBytesPerRecord holds the resident cost of the one view: the heap
// a shard log keeps per record — its recordMeta, its index entry, what the
// index lists' growth leaves spare, the salvage buffer and the segments'
// share — after 50 000 appends over 500 devices and 64 KiB segments, and
// after a reopen of that log, which scans every segment. Appended, it holds
// too that a sealed segment's record list sheds append's spare room.
func TestIndexBytesPerRecord(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MaxSegmentBytes: 64 << 10}
	perRecord := func(open func() (*shardLog, int)) float64 {
		base := heapAfterGC()
		l, n := open()
		held := heapAfterGC() - base
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return float64(held) / float64(n)
	}
	appended := perRecord(func() (*shardLog, int) {
		l := mustOpen(t, dir, opts)
		return l, indexFixture(t, l, false)
	})
	reopened := perRecord(func() (*shardLog, int) {
		l := mustOpen(t, dir, opts)
		return l, l.Stats().Records
	})
	t.Logf("heap per record: %.1f B appended, %.1f B reopened", appended, reopened)
	if appended > 56 || reopened > 56 {
		t.Fatalf("heap per record: %.1f B appended, %.1f B reopened; at most 56 each", appended, reopened)
	}
}

// BenchmarkOpen reopens a sealed 50 000-record, 500-device log read-only:
// every segment scanned, nothing written. B/op and
// allocs/op are what building the one view costs.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	opts := Options{MaxSegmentBytes: 64 << 10}
	l := mustOpen(b, dir, opts)
	n := indexFixture(b, l, true)
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	opts.ReadOnly = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := openShardLog(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		if st := l.Stats(); st.Records != n {
			b.Fatalf("reopened %+v, want %d records", st, n)
		}
		l.Close()
	}
}

// TestSealedDamageAtOpen: whatever is wrong with a sealed segment is dealt
// with by OpenSharded's scan — never by whichever scrape or query touches the
// segment first — writable and read-only. A segment that cannot be read as
// this format, or whose damage sits in front of valid records, is refused
// with ErrCorrupt; only a read-only handle salvages the prefix, counting the
// rest in Stats.Truncated. A torn tail (nothing valid after the cut) is
// truncated, or skipped read-only. What the open did not see — bytes that
// rot after it — fails loudly at the read instead (the per-read CRC check).
func TestSealedDamageAtOpen(t *testing.T) {
	const sealed, tail = 5, 2 // records in sealed segment 1 and in the active segment 2
	build := func(t *testing.T) (root, seg string, metas []recordMeta) {
		root = t.TempDir()
		s := mustOpenSharded(t, root, 1, Options{MaxSegmentBytes: 1 << 20})
		for i := 0; i < 4; i++ {
			if err := s.Append("dev", genKeys(i+1, 12)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seg = filepath.Join(root, shardDirName(0), segName(1))
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		// The next append fills segment 1 past the threshold and rotates.
		s = mustOpenSharded(t, root, 0, Options{MaxSegmentBytes: fi.Size() + 1})
		for i := 4; i < sealed+tail; i++ {
			if err := s.Append("dev", genKeys(i+1, 12)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		sf, err := (&shardLog{fs: vfs.OS, ro: true, ids: map[string]uint32{}}).loadSegment(seg, false)
		if err != nil || len(sf.recs) != sealed {
			t.Fatalf("fixture: segment 1 sealed %d records: %v", len(sf.recs), err)
		}
		return root, seg, sf.recs
	}
	rewrite := func(t *testing.T, path string, mutate func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(path, mutate(data), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	type outcome int
	const (
		refused  outcome = iota // OpenSharded = ErrCorrupt
		salvaged                // opens with Stats.Truncated > 0 serving the valid prefix
	)
	for _, c := range []struct {
		name     string
		damage   func(t *testing.T, seg string, metas []recordMeta)
		writable outcome
		readOnly outcome
		prefix   int // records a salvage keeps
	}{
		{"v1-header", func(t *testing.T, seg string, _ []recordMeta) {
			rewrite(t, seg, func(b []byte) []byte { b[6] = 1; return b })
		}, refused, refused, 0},
		{"mid-file", func(t *testing.T, seg string, metas []recordMeta) {
			rewrite(t, seg, func(b []byte) []byte { b[metas[2].off+4] ^= 0x40; return b })
		}, refused, salvaged, 2},
		{"packed-payload-resealed", func(t *testing.T, seg string, metas []recordMeta) {
			rewrite(t, seg, func(b []byte) []byte { breakPacked(t, b, metas[2]); return b })
		}, refused, salvaged, 2},
		{"torn-tail", func(t *testing.T, seg string, metas []recordMeta) {
			// An unsynced-rotation crash: cut mid-record, nothing valid after.
			if err := os.Truncate(seg, int64(metas[3].off)+5); err != nil {
				t.Fatal(err)
			}
		}, salvaged, salvaged, 3},
	} {
		for _, ro := range []bool{false, true} {
			mode, want := "writable", c.writable
			if ro {
				mode, want = "read-only", c.readOnly
			}
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				root, seg, metas := build(t)
				c.damage(t, seg, metas)
				before := treeFiles(t, root)
				s, err := OpenSharded(root, 0, Options{ReadOnly: ro})
				if want == refused {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("OpenSharded = %v, want ErrCorrupt", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("OpenSharded = %v", err)
				}
				defer s.Close()
				st := s.Stats()
				recs, err := s.Query("dev", 0, math.MaxUint32)
				if keep := c.prefix + tail; err != nil || len(recs) != keep || st.Truncated == 0 {
					t.Fatalf("%d records served (%v), %+v; want the %d-record prefix and the loss counted", len(recs), err, st, keep)
				}
				checkView(t, s.shards[0])
				if ro {
					if after := treeFiles(t, root); !reflect.DeepEqual(after, before) {
						t.Fatal("read-only open modified the directory")
					}
				}
			})
		}
	}
	for _, ro := range []bool{false, true} {
		mode := "writable"
		if ro {
			mode = "read-only"
		}
		t.Run("rot-after-open/"+mode, func(t *testing.T) {
			root, seg, metas := build(t)
			s, err := OpenSharded(root, 0, Options{ReadOnly: ro})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rewrite(t, seg, func(b []byte) []byte { b[metas[2].off+4] ^= 0x40; return b })
			if _, err := s.Query("dev", 0, math.MaxUint32); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Query over the rotten record = %v, want ErrCorrupt", err)
			}
		})
	}
}

// breakPacked damages the packed payload of record m in segment bytes b —
// its first Rice parameter set past 24 — and re-seals the record's CRC:
// bytes only decoding can refuse.
func breakPacked(t testing.TB, b []byte, m recordMeta) {
	t.Helper()
	body := b[m.off : m.off+m.bodyLen]
	_, payload, err := splitBody(body)
	if err != nil {
		t.Fatal(err)
	}
	k := packedHeadOffset(payload)
	if _, _, err := trajstore.UnpackBlock(nil, payload); err != nil || k+3 > len(payload) {
		t.Fatalf("fixture: record at %d holds no packed deltas to break (%v)", m.off, err)
	}
	payload[k] = 25
	binary.LittleEndian.PutUint32(b[m.off-4:], crc32.Checksum(body, castagnoli))
}

// packedHeadOffset is where a packed payload's head starts, past the count
// and the first key's lat, lon and t; a block of two keys or more has one.
func packedHeadOffset(payload []byte) int {
	k := 0
	for f := 0; f < 4; f++ {
		_, n := binary.Uvarint(payload[k:])
		k += n
	}
	return k
}

// flagGrid is the packed head's divisor flag (trajstore's packed.go), on
// its first byte, and flagPace its pace flag, on its third; tableK, under a
// head byte's flags, says a field's codes are its table's.
const (
	flagGrid = 1 << 6
	flagPace = 1 << 6
	tableK   = 31
)

// TestActivePackedDamageIsTorn: the damage breakPacked does to the last
// record of the active segment is a torn tail — the open truncates it,
// writable, and keeps every record before it.
func TestActivePackedDamageIsTorn(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := l.Append("dev", genKeys(i+1, 12)); err != nil {
			t.Fatal(err)
		}
	}
	last := l.segs[0].recs[2]
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	breakPacked(t, b, last)
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, dir, Options{})
	defer l.Close()
	recs := queryAll(t, l, "dev")
	if st := l.Stats(); len(recs) != 2 || st.Truncated != int64(recordHeaderSize+last.bodyLen) {
		t.Fatalf("%d records served, %+v; want 2 and the broken record truncated", len(recs), st)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(last.off)-recordHeaderSize {
		t.Fatalf("segment not cut where the broken record began: %v, %v", fi.Size(), err)
	}
}
