package segmentlog

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// windowMatch is the reference predicate the block walk (window.check) is
// held to, on decoded keys and in degrees as the in-memory trajstore
// ground truth (Query ∩ QueryTime) applies it: the polyline has at least
// one consecutive key-point pair whose bounding box intersects the window
// and whose time span overlaps [t0, t1]. Records with fewer than two keys
// never match.
func windowMatch(keys []trajstore.GeoKey, minX, minY, maxX, maxY float64, t0, t1 uint32) bool {
	for i := 0; i+1 < len(keys); i++ {
		a, b := &keys[i], &keys[i+1]
		loX, hiX := a.Lon, b.Lon
		if loX > hiX {
			loX, hiX = hiX, loX
		}
		if loX > maxX || hiX < minX {
			continue
		}
		loY, hiY := a.Lat, b.Lat
		if loY > hiY {
			loY, hiY = hiY, loY
		}
		if loY > maxY || hiY < minY {
			continue
		}
		loT, hiT := a.T, b.T
		if loT > hiT {
			loT, hiT = hiT, loT
		}
		if loT > t1 || hiT < t0 {
			continue
		}
		return true
	}
	return false
}

// cellKeys builds record r of device d: a small trajectory confined to
// the 0.01°-wide cell at (0.1·d, 0.1·d) degrees, with timestamps
// 1000+100·r onward shared across devices (so purely spatial windows
// are not accidentally time-pruned). Coordinates are exact multiples of
// 1e-7°, so encode→decode equality is exact.
func cellKeys(d, r, n int) []trajstore.GeoKey {
	lat0 := int64(d) * 1_000_000 // 0.1° in 1e-7 units
	lon0 := int64(d) * 1_000_000
	t := uint32(1000 + 100*r)
	keys := make([]trajstore.GeoKey, n)
	for i := range keys {
		lat := lat0 + int64(r*1000+i*10)
		lon := lon0 + int64(r*700+i*13)
		keys[i] = trajstore.GeoKey{Lat: float64(lat) / 1e7, Lon: float64(lon) / 1e7, T: t}
		t += uint32(i%3 + 1)
	}
	return keys
}

// cellWindow returns a window covering the cells of devices [lo, hi],
// with a margin that keeps boundaries off the coordinate grid.
func cellWindow(lo, hi int) (minX, minY, maxX, maxY float64) {
	min := 0.1*float64(lo) - 0.005
	max := 0.1*float64(hi) + 0.015
	return min, min, max, max
}

// fillCells appends recs records of n keys for each of devs devices.
func fillCells(t *testing.T, l *shardLog, devs, recs, n int) {
	t.Helper()
	for r := 0; r < recs; r++ {
		for d := 0; d < devs; d++ {
			if err := l.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// bruteWindow computes the expected QueryWindow result by decoding
// every record of every device and applying the exact predicate — the
// reference the pruned path must match.
func bruteWindow(t *testing.T, l *shardLog, minX, minY, maxX, maxY float64, t0, t1 uint32) map[string][]Record {
	t.Helper()
	out := make(map[string][]Record)
	for _, dev := range l.Devices() {
		for _, rec := range queryAll(t, l, dev) {
			if windowMatch(rec.Keys, minX, minY, maxX, maxY, t0, t1) {
				out[dev] = append(out[dev], rec)
			}
		}
	}
	return out
}

// byDevice regroups a QueryWindow result per device, preserving order.
func byDevice(recs []Record) map[string][]Record {
	out := make(map[string][]Record)
	for _, r := range recs {
		out[r.Device] = append(out[r.Device], r)
	}
	return out
}

// checkWindow asserts QueryWindow equals the brute-force reference for
// one window and returns the stats.
func checkWindow(t *testing.T, l *shardLog, minX, minY, maxX, maxY float64, t0, t1 uint32) WindowStats {
	t.Helper()
	got, ws, err := l.QueryWindowStats(minX, minY, maxX, maxY, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteWindow(t, l, minX, minY, maxX, maxY, t0, t1)
	gotBy := byDevice(got)
	if len(gotBy) != len(want) {
		t.Fatalf("window [%g,%g]×[%g,%g]: devices %d, want %d", minX, maxX, minY, maxY, len(gotBy), len(want))
	}
	for dev, recs := range want {
		if !reflect.DeepEqual(gotBy[dev], recs) {
			t.Fatalf("window results for %s diverge from brute force:\ngot  %+v\nwant %+v", dev, gotBy[dev], recs)
		}
	}
	if ws.RecordsMatched != len(got) {
		t.Fatalf("stats matched %d, returned %d", ws.RecordsMatched, len(got))
	}
	return ws
}

func TestQueryWindowBasic(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 2048}) // several rotations
	fillCells(t, l, 8, 5, 12)
	defer l.Close()

	// Selective, full, empty, and time-restricted windows.
	minX, minY, maxX, maxY := cellWindow(2, 2)
	ws := checkWindow(t, l, minX, minY, maxX, maxY, 0, math.MaxUint32)
	if ws.RecordsMatched != 5 {
		t.Fatalf("device-2 window matched %d records, want 5", ws.RecordsMatched)
	}
	checkWindow(t, l, -1, -1, 1, 1, 0, math.MaxUint32) // covers device 0 only
	checkWindow(t, l, -10, -10, 10, 10, 0, math.MaxUint32)
	checkWindow(t, l, 50, 50, 60, 60, 0, math.MaxUint32) // empty
	checkWindow(t, l, -10, -10, 10, 10, 1000, 1099)      // first record of each device
	checkWindow(t, l, -10, -10, 10, 10, 5000, 6000)      // after every record

	// The unflushed tail must be visible.
	if err := l.Append("dev-002", cellKeys(2, 9, 6)); err != nil {
		t.Fatal(err)
	}
	ws = checkWindow(t, l, minX, minY, maxX, maxY, 0, math.MaxUint32)
	if ws.RecordsMatched != 6 {
		t.Fatalf("pending append invisible to QueryWindow: matched %d, want 6", ws.RecordsMatched)
	}
}

func TestQueryWindowInvalidArgs(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close()
	if _, _, err := l.QueryWindowStats(1, 0, 0, 1, 0, 1); err == nil {
		t.Fatal("inverted X window accepted")
	}
	if _, _, err := l.QueryWindowStats(0, 1, 1, 0, 0, 1); err == nil {
		t.Fatal("inverted Y window accepted")
	}
	if _, _, err := l.QueryWindowStats(0, 0, 1, 1, 2, 1); err == nil {
		t.Fatal("inverted time window accepted")
	}
	if _, _, err := l.QueryWindowStats(math.NaN(), 0, 1, 1, 0, 1); err == nil {
		t.Fatal("NaN window accepted")
	}
}

// TestQueryWindowSelectivity pins the acceptance criterion: on a
// selective window (≤ 5% of devices in range), the pruned path decodes
// under 20% of the records a full scan would, with results equal to
// the ground truth.
func TestQueryWindowSelectivity(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 8192})
	defer l.Close()
	// Device-major fill: a fleet's records arrive clustered (sessions
	// evict in bursts), so segments cover distinct spatial regions and
	// the segment-level summaries have something to prune.
	for d := 0; d < 50; d++ {
		for r := 0; r < 8; r++ {
			if err := l.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, 10)); err != nil {
				t.Fatal(err)
			}
		}
	}

	total := l.Stats().Records
	minX, minY, maxX, maxY := cellWindow(10, 11) // 2 of 50 devices = 4%
	ws := checkWindow(t, l, minX, minY, maxX, maxY, 0, math.MaxUint32)
	if ws.RecordsMatched != 16 {
		t.Fatalf("selective window matched %d records, want 16", ws.RecordsMatched)
	}
	if ratio := float64(ws.RecordsDecoded) / float64(total); ratio >= 0.20 {
		t.Fatalf("selective window decoded %d of %d records (%.1f%%), want < 20%%",
			ws.RecordsDecoded, total, 100*ratio)
	}
	if ws.SegmentsPruned == 0 {
		t.Fatal("no segment-level pruning on a selective window")
	}
}

// TestQueryWindowSurvivesReopenAndCompact: identical results after a
// reopen, which scans every segment, and after a compaction rewrite.
func TestQueryWindowSurvivesReopenAndCompact(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 1024})
	fillCells(t, l, 6, 6, 10)
	minX, minY, maxX, maxY := cellWindow(1, 2)
	want := byDevice(mustWindow(t, l, minX, minY, maxX, maxY))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: sealed segments come back through the scan.
	l2 := mustOpen(t, dir, Options{MaxSegmentBytes: 1024})
	if s := l2.Stats(); s.Segments < 2 {
		t.Fatalf("no sealed segment to reload: %+v", s)
	}
	if got := byDevice(mustWindow(t, l2, minX, minY, maxX, maxY)); !reflect.DeepEqual(got, want) {
		t.Fatal("window results changed across reopen")
	}

	// Compaction (merge+dedup, no ageing) preserves the polylines and
	// therefore the exact window results.
	if _, err := l2.Compact(CompactionPolicy{MergeChunks: true}); err != nil {
		t.Fatal(err)
	}
	if got := byDevice(mustWindow(t, l2, minX, minY, maxX, maxY)); !reflect.DeepEqual(got, want) {
		t.Fatal("window results changed across compaction")
	}
	checkWindow(t, l2, minX, minY, maxX, maxY, 0, math.MaxUint32)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustWindow(t *testing.T, l *shardLog, minX, minY, maxX, maxY float64) []Record {
	t.Helper()
	recs, _, err := l.QueryWindowStats(minX, minY, maxX, maxY, 0, math.MaxUint32)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestQueryWindowConcurrent exercises QueryWindow racing Append-driven
// rotation and Compact under the race detector: no torn index reads,
// and a query that loses a segment to compaction retries against the
// new generation (the documented reopen-on-ENOENT behavior).
func TestQueryWindowConcurrent(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 1024})
	defer l.Close()
	fillCells(t, l, 4, 2, 10) // some sealed history to compact

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan error, 16)

	wg.Add(1)
	go func() { // writer: appends force rotations
		defer wg.Done()
		for r := 10; ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			for d := 0; d < 4; d++ {
				if err := l.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, 10)); err != nil {
					fail <- err
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // compactor: rewrites sealed segments under the readers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := l.Compact(CompactionPolicy{MergeChunks: true}); err != nil {
				fail <- err
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			minX, minY, maxX, maxY := cellWindow(w, w+1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs, _, err := l.QueryWindowStats(minX, minY, maxX, maxY, 0, math.MaxUint32)
				if err != nil {
					fail <- fmt.Errorf("QueryWindow: %w", err)
					return
				}
				for _, r := range recs {
					if !windowMatch(r.Keys, minX, minY, maxX, maxY, 0, math.MaxUint32) {
						fail <- fmt.Errorf("QueryWindow returned a non-matching record")
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
}
