package segmentlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/geom"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// chunkKeys splits keys into engine-style chunks of at most n keys that
// overlap by exactly one key point (persistTrail's invariant).
func chunkKeys(keys []trajstore.GeoKey, n int) [][]trajstore.GeoKey {
	var out [][]trajstore.GeoKey
	for lo := 0; lo < len(keys); {
		hi := lo + n
		if hi > len(keys) {
			hi = len(keys)
		}
		out = append(out, keys[lo:hi])
		if hi == len(keys) {
			break
		}
		lo = hi - 1 // next chunk restarts from this chunk's last key
	}
	return out
}

// stitch re-joins chunked records by dropping each subsequent record's
// overlap key.
func stitch(recs []Record) []trajstore.GeoKey {
	var out []trajstore.GeoKey
	for i, r := range recs {
		keys := r.Keys
		if i > 0 && len(out) > 0 && len(keys) > 0 && keys[0] == out[len(out)-1] {
			keys = keys[1:]
		}
		out = append(out, keys...)
	}
	return out
}

// TestCompactMergeChunks: chunked records of one device merge back into
// fewer records with the identical polyline, smaller on disk, and the
// result survives a reopen.
func TestCompactMergeChunks(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	keys := genKeys(3, 120)
	for _, chunk := range chunkKeys(keys, 10) {
		if err := l.Append("dev", chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	if before.Segments < 3 {
		t.Fatalf("workload too small to seal segments: %+v", before)
	}

	res, err := l.Compact(CompactionPolicy{MergeChunks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged == 0 {
		t.Fatalf("no chunks merged: %+v", res)
	}
	if res.BytesOut >= res.BytesIn {
		t.Fatalf("compaction grew sealed bytes: %+v", res)
	}
	after := l.Stats()
	if after.Bytes >= before.Bytes {
		t.Fatalf("disk bytes did not shrink: %d → %d", before.Bytes, after.Bytes)
	}
	if got := stitch(queryAll(t, l, "dev")); !reflect.DeepEqual(got, keys) {
		t.Fatalf("stitched polyline changed after compaction:\nwant %v\ngot  %v", keys, got)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	defer l2.Close()
	if got := stitch(queryAll(t, l2, "dev")); !reflect.DeepEqual(got, keys) {
		t.Fatal("compacted log differs after reopen")
	}
	if s := l2.Stats(); s.Truncated != 0 {
		t.Fatalf("reopen truncated a compacted log: %+v", s)
	}
}

// TestCompactDedup: exact duplicates and fully-contained records of the
// same device are dropped; partial overlaps and other devices survive.
// TestMergeCapIsPackedBound pins where a merge stops: while the ID, its
// longest uvarint length and the two records' trajstore.PackedBound stay
// under MaxRecordBytes — ≈ 466 000 keys, every code priced as an escape and
// every field's table as one over all 252 buckets — whatever the blocks'
// real size, so a merged record always frames.
func TestMergeCapIsPackedBound(t *testing.T) {
	const devLen = 6
	// The count, the first key, three leasts, the watermark, the divisor and
	// the pace (varints), three head bytes; a table's first bucket and count
	// (two uvarints under 2¹⁴) and 252 code lengths, a nibble each.
	if head, table := 10*binary.MaxVarintLen64+3, 2+2+252/2; trajstore.PackedBound(1) < head+3*table {
		t.Fatalf("PackedBound(1) = %d counts no three tables of every bucket", trajstore.PackedBound(1))
	}
	perKey := trajstore.PackedBound(2) - trajstore.PackedBound(1)
	limit := (MaxRecordBytes-binary.MaxVarintLen16-devLen-trajstore.PackedBound(1))/perKey + 1
	if binary.MaxVarintLen16+devLen+trajstore.PackedBound(limit) > MaxRecordBytes || binary.MaxVarintLen16+devLen+trajstore.PackedBound(limit+1) <= MaxRecordBytes {
		t.Fatalf("limit %d is not the last key count under the cap", limit)
	}
	if limit < 460_000 || limit > 470_000 {
		t.Fatalf("merge cap %d keys, want ≈ 466 000", limit)
	}
	// chunk is keys [from, to) of one zig-zag; consecutive chunks share a key.
	chunk := func(from, to int) compactRecord {
		var tr trajstore.Trail
		for i := from; i < to; i++ {
			if err := tr.Add(trajstore.GeoKey{Lat: float64(i%7) * 1e-4, Lon: float64(i) * 1e-5, T: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return compactRecord{trail: tr}
	}
	for _, over := range []int{0, 1} {
		half := limit / 2
		recs := []compactRecord{chunk(0, half), chunk(half-1, limit+over-1)} // Len sum: limit + over
		out, merged := mergeChunks(recs, devLen)
		if want := 1 - over; merged != want || len(out) != 2-want {
			t.Fatalf("%d keys a pair: merged %d into %d records, want %d merge", limit+over, merged, len(out), want)
		}
		if over == 0 {
			framed, err := frameRecord(nil, "dev-00", &out[0].trail)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("merged %d keys: %d B framed, %d B as delta varints, cap %d B", out[0].trail.Len(), len(framed), out[0].trail.Size(), MaxRecordBytes)
		}
	}
}

func TestCompactDedup(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	keys := genKeys(5, 40)
	appendAll := func(dev string, trajs ...[]trajstore.GeoKey) {
		for _, tr := range trajs {
			if err := l.Append(dev, tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll("dup", keys, keys)                           // exact duplicate
	appendAll("sub", keys, keys[10:30])                    // contained run
	appendAll("other", genKeys(9, 12))                     // untouched bystander
	appendAll("rev", keys[5:15], keys)                     // earlier record swallowed by later
	if err := l.Append("dup", genKeys(7, 8)); err != nil { // force a final rotation point
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	res, err := l.Compact(CompactionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped < 3 {
		t.Fatalf("expected ≥ 3 deduped records, got %+v", res)
	}
	if devs := l.Devices(); len(devs) != 4 {
		t.Fatalf("Devices() after dedup = %v", devs)
	}
	if n, _, _, ok := l.DeviceSpan("dup"); !ok || n != 2 {
		t.Fatalf("DeviceSpan(dup) = %d, %v", n, ok)
	}
	for dev, want := range map[string][][]trajstore.GeoKey{
		"dup":   {keys, genKeys(7, 8)},
		"sub":   {keys},
		"other": {genKeys(9, 12)},
		"rev":   {keys},
	} {
		recs := queryAll(t, l, dev)
		if len(recs) != len(want) {
			t.Fatalf("%s: %d records after dedup, want %d", dev, len(recs), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(recs[i].Keys, want[i]) {
				t.Fatalf("%s record %d corrupted by dedup", dev, i)
			}
		}
	}
	l.Close()
}

// TestCompactAgeingBound is the error-bound acceptance test: every aged
// record's retained keys are a subset of the originals, and every
// dropped original key stays within CoarseTolerance of the aged
// polyline (measured in the same metric plane the compressor ran in,
// through the same trajstore.PlanePoint). Records younger than MinAge are
// untouched.
func TestCompactAgeingBound(t *testing.T) {
	const (
		coarse  = 50.0 // metres
		nowSec  = 1_000_000
		oldT    = 100_000 // well past MinAge
		youngT  = 999_000 // inside MinAge
		nPoints = 400
	)
	// A wiggly but 1e-7°-exact trajectory: a sine-like walk where many
	// points are within 50 m of the overall path, so ageing has slack to
	// remove.
	mk := func(baseT uint32) []trajstore.GeoKey {
		keys := make([]trajstore.GeoKey, nPoints)
		for i := range keys {
			lat := int64(i) * 30      // 3 µ° steps ≈ 0.3 m northing
			lon := int64(i%7-3) * 100 // ±300 µ° wiggle ≈ ±30 m easting
			keys[i] = trajstore.GeoKey{
				Lat: float64(lat) / 1e7,
				Lon: float64(lon) / 1e7,
				T:   baseT + uint32(i),
			}
		}
		return keys
	}
	oldKeys, youngKeys := mk(oldT), mk(youngT)

	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 2048})
	if err := l.Append("old", oldKeys); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("young", youngKeys); err != nil {
		t.Fatal(err)
	}
	// Seal the active segment so both records are in the pass.
	if err := l.seal(); err != nil {
		t.Fatal(err)
	}

	res, err := l.Compact(CompactionPolicy{
		MinAge:          100_000 * time.Second, // cutoff = 900 000
		CoarseTolerance: coarse,
		Now:             func() time.Time { return time.Unix(nowSec, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aged == 0 {
		t.Fatalf("nothing aged: %+v", res)
	}

	oldRecs := queryAll(t, l, "old")
	if len(oldRecs) != 1 {
		t.Fatalf("old device has %d records", len(oldRecs))
	}
	aged := oldRecs[0].Keys
	if len(aged) >= len(oldKeys) {
		t.Fatalf("ageing kept all %d keys", len(aged))
	}
	// Retained keys are a subset (bit-identical) of the originals, in order.
	j := 0
	for _, k := range aged {
		for j < len(oldKeys) && oldKeys[j] != k {
			j++
		}
		if j == len(oldKeys) {
			t.Fatalf("aged key %+v is not an original key point", k)
		}
		j++
	}
	// Error bound, as the ageing compressor states it (DESIGN.md, "The
	// contract"): every original key within coarse of the aged polyline's
	// time-matched segment.
	plane := func(keys []trajstore.GeoKey) []core.Point {
		pts := make([]core.Point, len(keys))
		for i, k := range keys {
			pts[i] = trajstore.PlanePoint(k)
		}
		return pts
	}
	orig, kept := plane(oldKeys), plane(aged)
	if worst, err := stream.Deviation(ageCompressor, orig, kept); err != nil || worst > coarse*(1+1e-9) {
		t.Fatalf("an original key deviates %.3f m from its segment of the aged polyline (bound %g): %v", worst, coarse, err)
	}
	// And the weaker form of the same sentence, which asks no timestamp to
	// line up: within coarse of the nearest segment.
	for _, p := range orig {
		best := p.Vec().Dist(kept[0].Vec())
		for i := 0; i+1 < len(kept); i++ {
			if d := geom.DistToSegment(p.Vec(), kept[i].Vec(), kept[i+1].Vec()); d < best {
				best = d
			}
		}
		if best > coarse+1e-6 {
			t.Fatalf("original key %+v deviates %.3f m from aged polyline (bound %g)", p, best, coarse)
		}
	}
	// Aged record keeps its original indexed time span.
	if oldRecs[0].T0 != oldKeys[0].T || oldRecs[0].T1 != oldKeys[len(oldKeys)-1].T {
		t.Fatalf("aged record time bounds changed: [%d,%d]", oldRecs[0].T0, oldRecs[0].T1)
	}

	// The young record is byte-identical.
	youngRecs := queryAll(t, l, "young")
	if len(youngRecs) != 1 || !reflect.DeepEqual(youngRecs[0].Keys, youngKeys) {
		t.Fatal("record younger than MinAge was modified")
	}
	l.Close()
}

// wanderKeys is n lattice-exact keys of a walk with steps of about 1.5 m a
// coordinate, 1–5 s apart, from time t0: a track ageing at a few metres
// thins.
func wanderKeys(rng *rand.Rand, n int, t0 uint32) []trajstore.GeoKey {
	keys := make([]trajstore.GeoKey, n)
	lat, lon, ts := rng.Int63n(1e8), rng.Int63n(1e8), t0
	for i := range keys {
		keys[i] = trajstore.GeoKey{Lat: float64(lat) / 1e7, Lon: float64(lon) / 1e7, T: ts}
		lat, lon, ts = lat+int64(rng.NormFloat64()*150), lon+int64(rng.NormFloat64()*150), ts+uint32(1+rng.Intn(5))
	}
	return keys
}

// TestAgeingOncePerKey is the ageing property: over seeded random schedules
// of appends (each device's chained chunks), seals, ticks, explicit passes
// and reopens, with merging and ageing on and an ageing clock that trails
// the appends, every key ever appended lies within CoarseTolerance — plus
// lattice slack — of the polyline its device finally serves, and one more
// pass at an unmoved clock ages nothing. A key aged twice — FBQS re-run on
// its own output — may drift further: k passes may leave it k·ε_c away.
func TestAgeingOncePerKey(t *testing.T) {
	const devices, steps, coarse = 3, 150, 2.0
	plane := func(keys []trajstore.GeoKey) []core.Point {
		pts := make([]core.Point, len(keys))
		for i, k := range keys {
			pts[i] = trajstore.PlanePoint(k)
		}
		return pts
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			var now atomic.Int64 // the ageing clock, seconds; MinAge behind the newest key appended
			policy := CompactionPolicy{MergeChunks: true, CoarseTolerance: coarse, MinAge: 60 * time.Second,
				Now: func() time.Time { return time.Unix(now.Load(), 0) }}
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{MaxSegmentBytes: 600})
			defer func() { l.Close() }()
			tracks, next := make([][][]trajstore.GeoKey, devices), make([]int, devices)
			for d := range tracks {
				tracks[d] = chunkKeys(wanderKeys(rng, 6*steps, 1000), 8)
			}
			aged := 0
			for step := 0; step < steps; step++ {
				var err error
				var res CompactionResult
				switch op := rng.Intn(10); {
				case op < 5:
					if d := rng.Intn(devices); next[d] < len(tracks[d]) {
						chunk := tracks[d][next[d]]
						err = l.Append(fmt.Sprintf("dev-%d", d), chunk)
						next[d]++
						now.Store(max(now.Load(), int64(chunk[len(chunk)-1].T)+int64(rng.Intn(120))))
					}
				case op < 6:
					err = l.seal()
				case op < 8:
					res, err = l.compact(policy, false)
				case op < 9:
					res, err = l.compact(policy, true)
				default:
					if err = l.Close(); err == nil {
						l = mustOpen(t, dir, Options{MaxSegmentBytes: 600})
					}
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				aged += res.Aged
			}
			if err := l.seal(); err != nil {
				t.Fatal(err)
			}
			if _, err := l.compact(policy, true); err != nil {
				t.Fatal(err)
			}
			if res, err := l.compact(policy, true); err != nil || res.Aged != 0 {
				t.Fatalf("a second pass at an unmoved clock = %+v, %v; want nothing aged", res, err)
			}
			for d := range tracks {
				var orig []trajstore.GeoKey
				for i, chunk := range tracks[d][:next[d]] {
					orig = append(orig, chunk[min(i, 1):]...) // chunks share their end keys
				}
				served := stitch(queryAll(t, l, fmt.Sprintf("dev-%d", d)))
				if worst, err := stream.Deviation(ageCompressor, plane(orig), plane(served)); err != nil || worst > coarse*(1+1e-9) {
					t.Fatalf("dev-%d: an appended key lies %.3f m from the served polyline of %d keys (of %d), bound %g: %v",
						d, worst, len(served), len(orig), coarse, err)
				}
			}
			for d := range tracks {
				if n, _, _, _ := l.DeviceSpan(fmt.Sprintf("dev-%d", d)); next[d] > 0 && n != 1 {
					t.Fatalf("dev-%d: %d records after a pass over every chained chunk, want 1", d, n)
				}
			}
			if aged == 0 {
				t.Fatal("the schedule aged nothing: it proved nothing")
			}
		})
	}
}

// TestAgedChunksStillJoin: a record one pass aged up to its second-to-last
// key, and the straight chunk after it that a tick not reading the first's
// tier aged whole, join in the next explicit pass — ageing carries the
// first's watermark to its last key, as it does when the compressor drops
// nothing — so a device's aged chain does not stay split.
func TestAgedChunksStillJoin(t *testing.T) {
	first := wanderKeys(rand.New(rand.NewSource(7)), 401, 1000)
	second := []trajstore.GeoKey{first[400]}
	for i := 1; i < 6; i++ {
		k := second[i-1]
		second = append(second, trajstore.GeoKey{Lat: k.Lat + 1e-5, Lon: k.Lon, T: k.T + 2})
	}
	var now int64
	policy := CompactionPolicy{MergeChunks: true, CoarseTolerance: 2, Now: func() time.Time { return time.Unix(now, 0) }}
	l := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	pass := func(what string, keys []trajstore.GeoKey, cutoff uint32, all bool, want CompactionResult) {
		t.Helper()
		if err := l.Append("dev", keys); len(keys) > 0 && err != nil {
			t.Fatal(err)
		}
		if err := l.seal(); err != nil {
			t.Fatal(err)
		}
		now = int64(cutoff)
		res, err := l.compact(policy, all)
		if err != nil || res.RecordsIn != want.RecordsIn || res.Aged != want.Aged || res.RecordsOut != want.RecordsOut {
			t.Fatalf("%s: %+v, %v; want %d records in, %d aged, %d out", what, res, err, want.RecordsIn, want.Aged, want.RecordsOut)
		}
	}
	pass("ageing the first chunk up to its second-to-last key", first, first[399].T, true, CompactionResult{RecordsIn: 1, Aged: 1, RecordsOut: 1})
	pass("a tick ageing the second chunk alone", second, second[5].T, false, CompactionResult{RecordsIn: 1, Aged: 1, RecordsOut: 1})
	pass("an explicit pass", nil, second[5].T, true, CompactionResult{RecordsIn: 2, RecordsOut: 1})
}

// TestAgeingKeepsTimeSpan: FBQS keeps a trajectory's first and last key
// points, so an aged record spans the times it spanned, and nothing need
// keep a span beside its keys. Random walks aged at several tolerances
// start and end on their original keys; and a log's chunked device, merged
// and aged to one record, keeps its span in the index, in a query and
// through a reopen's scan.
func TestAgeingKeepsTimeSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	aged := 0
	for trial := 0; trial < 200; trial++ {
		keys := make([]trajstore.GeoKey, 3+rng.Intn(300))
		lat, lon, ts := rng.Float64()*10, rng.Float64()*10, uint32(rng.Intn(1e6))
		for i := range keys {
			keys[i] = trajstore.GeoKey{Lat: lat, Lon: lon, T: ts}
			lat, lon, ts = lat+rng.NormFloat64()*1e-3, lon+rng.NormFloat64()*1e-3, ts+uint32(1+rng.Intn(30))
		}
		var tr trajstore.Trail
		if err := tr.Add(keys...); err != nil {
			t.Fatal(err)
		}
		before, span := tr.Keys(), tr.Bounds()
		ok, err := ageTrail(&tr, []float64{1, 10, 100, 1000}[trial%4], math.MaxUint32)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			aged++
		}
		after, b := tr.Keys(), tr.Bounds()
		if after[0] != before[0] || after[len(after)-1] != before[len(before)-1] || b.T0 != span.T0 || b.T1 != span.T1 {
			t.Fatalf("walk %d: aged to %d of %d keys spanning [%d, %d], want the ends kept and [%d, %d]",
				trial, len(after), len(before), b.T0, b.T1, span.T0, span.T1)
		}
	}
	if aged < 100 {
		t.Fatalf("only %d of 200 walks aged", aged)
	}

	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	keys := genKeys(5, 121)
	for c := 0; c+1 < len(keys); c += 15 {
		if err := l.Append("dev", keys[c:c+16]); err != nil {
			t.Fatal(err)
		}
	}
	_, t0, t1, _ := l.DeviceSpan("dev")
	if err := l.seal(); err != nil {
		t.Fatal(err)
	}
	res, err := l.Compact(CompactionPolicy{MergeChunks: true, CoarseTolerance: 50})
	if err != nil || res.Aged != 1 || res.RecordsOut != 1 {
		t.Fatalf("compaction = %+v, %v; want the chunks merged and aged to one record", res, err)
	}
	span := func(step string, l *shardLog) {
		t.Helper()
		recs := queryAll(t, l, "dev")
		if n, st0, st1, _ := l.DeviceSpan("dev"); n != 1 || st0 != t0 || st1 != t1 || len(recs) != 1 || recs[0].T0 != t0 || recs[0].T1 != t1 {
			t.Fatalf("%s: %d records spanning [%d, %d] in the index, %d read; want one spanning [%d, %d]", step, n, st0, st1, len(recs), t0, t1)
		}
	}
	span("aged", l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	defer l.Close()
	span("reopened", l)
}

// TestCompactAgeingKeepsEdgeBytes ages records that hug the edges of the
// wire's range, where plane coordinates are largest — one along the ±180°
// seam and across it, one at each pole, their times reaching 0 and
// MaxUint32 — and checks that every key an aged record keeps has the wire
// bytes of an original key, in order.
func TestCompactAgeingKeepsEdgeBytes(t *testing.T) {
	const n = 400
	// edge walks n lattice-exact keys: along runs in 3-step strides, across
	// wiggles up to 600 steps (6 m) inward from the edge it starts on.
	edge := func(key func(along, across int64) (lat, lon int64), t0 uint32) []trajstore.GeoKey {
		keys := make([]trajstore.GeoKey, n)
		for i := range keys {
			lat, lon := key(int64(i)*30, int64(i%7)*100)
			keys[i] = trajstore.GeoKey{Lat: float64(lat) / 1e7, Lon: float64(lon) / 1e7, T: t0 + uint32(i)}
		}
		return keys
	}
	seam := edge(func(along, across int64) (int64, int64) {
		if along < n/2*30 {
			return along, 180e7 - across
		}
		return along, -180e7 + across
	}, 1_000)
	seam[n/2-1].Lon, seam[n/2].Lon = 180, -180 // the crossing, exactly on the seam
	tracks := map[string][]trajstore.GeoKey{
		"seam":  seam,
		"north": edge(func(along, across int64) (int64, int64) { return 90e7 - across, along - 180e7 }, 0),
		"south": edge(func(along, across int64) (int64, int64) { return -90e7 + across, 180e7 - along }, math.MaxUint32-n+1),
	}

	l := mustOpen(t, t.TempDir(), Options{MaxSegmentBytes: 2048})
	defer l.Close()
	for _, dev := range []string{"seam", "north", "south"} {
		if err := l.Append(dev, tracks[dev]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.seal(); err != nil {
		t.Fatal(err)
	}
	res, err := l.Compact(CompactionPolicy{CoarseTolerance: 50, Now: func() time.Time { return time.Unix(1<<40, 0) }})
	if err != nil || res.Aged < len(tracks) {
		t.Fatalf("Compact = %+v, %v; want every track aged", res, err)
	}
	wire := func(k trajstore.GeoKey) string {
		b, err := trajstore.DeltaEncode([]trajstore.GeoKey{k})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for dev, orig := range tracks {
		recs := queryAll(t, l, dev)
		if len(recs) != 1 || len(recs[0].Keys) >= n {
			t.Fatalf("%s: %d records after ageing, want one shorter than %d keys", dev, len(recs), n)
		}
		j := 0
		for _, k := range recs[0].Keys {
			for j < n && wire(orig[j]) != wire(k) {
				j++
			}
			if j == n {
				t.Fatalf("%s: aged key %+v has no original's bytes, in order", dev, k)
			}
			j++
		}
		if first, last := recs[0].Keys[0], recs[0].Keys[len(recs[0].Keys)-1]; wire(first) != wire(orig[0]) || wire(last) != wire(orig[n-1]) {
			t.Fatalf("%s: aged record runs %+v → %+v, want the track's ends %+v → %+v", dev, first, last, orig[0], orig[n-1])
		}
	}
}

// crashSegBytes is the rotation threshold of the compaction fixtures and the
// crash tests over them: small enough that the fixture seals several
// segments and a pass writes several, so each step of the publish protocol
// recurs among the crash points. At 180 B the fixture seals 8 segments of
// its 39 v4 records, the layout 300 B gave the v3 records with their 24 B of
// bounds, so the sweeps cross as many rolls and publishes as they did.
const crashSegBytes = 180

// compactionFixture builds a deterministic chunked multi-device log in
// memDir on a FaultFS seeded with seed, and returns that filesystem's
// Restart — what the fixture made durable — plus the expected per-device
// stitched polylines.
func compactionFixture(t *testing.T, seed int64) (*vfs.FaultFS, map[string][]trajstore.GeoKey) {
	t.Helper()
	fs := vfs.NewFaultFS(seed)
	want := fillCompactionFixture(t, mustOpen(t, memDir, Options{MaxSegmentBytes: crashSegBytes, FS: fs}))
	return fs.Restart(), want
}

// fillCompactionFixture writes the fixture content through l — a shard
// log or a whole ShardedLog — and closes it.
func fillCompactionFixture(t *testing.T, l interface {
	trajstore.Persister
	Stats() Stats
}) map[string][]trajstore.GeoKey {
	t.Helper()
	want := map[string][]trajstore.GeoKey{}
	for d := 0; d < 3; d++ {
		dev := fmt.Sprintf("dev-%d", d)
		keys := genKeys(d*11+1, 90)
		want[dev] = keys
		for _, chunk := range chunkKeys(keys, 8) {
			if err := l.Append(dev, chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Segments < 3 {
		t.Fatalf("fixture sealed too few segments: %+v", s)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// verifyFixture checks the log in memDir on fs holds exactly the fixture
// content.
func verifyFixture(t *testing.T, fs *vfs.FaultFS, want map[string][]trajstore.GeoKey, ctx string) {
	t.Helper()
	l := mustOpen(t, memDir, Options{MaxSegmentBytes: 512, FS: fs})
	defer l.Close()
	for dev, keys := range want {
		if got := stitch(queryAll(t, l, dev)); !reflect.DeepEqual(got, keys) {
			t.Fatalf("%s: %s polyline diverged after recovery", ctx, dev)
		}
	}
	checkView(t, l)
	// Recovered log accepts appends and they survive another cycle.
	extra := genKeys(77, 9)
	if err := l.Append("post", extra); err != nil {
		t.Fatalf("%s: append after recovery: %v", ctx, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("%s: close: %v", ctx, err)
	}
	l2 := mustOpen(t, memDir, Options{MaxSegmentBytes: 512, FS: fs.Restart()})
	defer l2.Close()
	if recs := queryAll(t, l2, "post"); len(recs) != 1 || !reflect.DeepEqual(recs[0].Keys, extra) {
		t.Fatalf("%s: post-recovery append lost", ctx)
	}
	checkView(t, l2)
}

// TestCompactCrashAtEveryStep power-fails a reopened log at every single
// filesystem operation of its open (the index reads a compaction works
// from are the open's), of a synced append into the live tail, of the
// compaction — each write, fsync, rename and delete — and of the Close
// after it, via vfs.FaultFS, and verifies each reopen recovers exactly
// one consistent generation with every committed record intact: the
// old generation before the MANIFEST rename became durable, the new
// one after. The crash model is the hostile one: handles drop their
// un-synced bytes and an un-synced rename may or may not have reached
// the directory (a seeded coin flip), so the sweep crosses the
// crash-after-partial-rename window both ways. The pass is an explicit one
// over the whole sealed prefix (op-NNN), then a tick that replaces a run in
// mid-list (mid-op-NNN): a chunked device appended first seals segments
// behind the fixture's, too few to reach back over them, and the tail record
// sits in the active segment after them.
func TestCompactCrashAtEveryStep(t *testing.T) {
	// The script: whatever fails, go on. What a Sync covered must survive
	// anything the compaction beside it dies of.
	tail, mid := genKeys(55, 9), genKeys(66, 48)
	for _, tick := range []bool{false, true} {
		prefix := "op"
		if tick {
			prefix = "mid-op"
		}
		script := func(l *shardLog) (durable bool, res CompactionResult, err error) {
			durable = true
			if tick {
				for _, chunk := range chunkKeys(mid, 8) {
					durable = l.Append("mid", chunk) == nil && durable
				}
			}
			durable = l.Append("tail", tail) == nil && durable && l.Sync() == nil
			res, err = l.compact(CompactionPolicy{MergeChunks: true}, !tick)
			return durable, res, errors.Join(err, l.Close())
		}
		// Observer pass: the script over a ruleless FaultFS counts its ops,
		// and the compaction's among them. The fixture content is
		// deterministic and shard-free, so op k lands on the same operation
		// in every run.
		obs, _ := compactionFixture(t, 0)
		probe := mustOpen(t, memDir, Options{MaxSegmentBytes: crashSegBytes, FS: obs})
		n0, older := obs.Ops(), probe.Stats().Segments-1
		ok, res, err := script(probe)
		if !ok || err != nil || res.Gen == 0 {
			t.Fatalf("%s: script on a healthy filesystem: durable %v, %+v, %v", prefix, ok, res, err)
		}
		if tick && (res.SegmentsIn == 0 || res.SegmentsIn >= older) {
			t.Fatalf("tick consumed %d segments behind a tier of %d: not a run in mid-list", res.SegmentsIn, older)
		}
		n1 := obs.Ops()
		if n1-n0 < 10 {
			t.Fatalf("compaction spanned only %d fs ops; observer pass broken?", n1-n0)
		}

		for k := 1; k <= n1; k++ {
			t.Run(fmt.Sprintf("%s-%03d", prefix, k), func(t *testing.T) {
				t.Parallel()
				fs, want := compactionFixture(t, int64(k)) // seed varies the torn-rename coin flips
				fs.AddRule(vfs.Rule{Fault: vfs.FaultCrash, After: k - 1, Count: 1})
				// An open the crash kills (k ≤ n0) is a legal outcome; past it
				// the script usually dies at op k — a crash inside a
				// best-effort step can still report success. Either way the
				// handle is dead afterwards.
				if l, err := openShardLog(memDir, Options{MaxSegmentBytes: crashSegBytes, FS: fs}); err == nil {
					if durable, _, _ := script(l); durable {
						want["tail"] = tail
						if tick {
							want["mid"] = mid
						}
					}
				} else if k > n0 {
					t.Fatalf("open died before the crash point: %v", err)
				}
				if !fs.Crashed() {
					t.Fatalf("schedule never crashed: %s", fs)
				}
				verifyFixture(t, fs.Restart(), want, fmt.Sprintf("crash at op %d", k))
			})
		}
	}
}

// TestCompactConcurrentQuery runs merge-only compactions while readers
// hammer Query and a writer appends — the -race acceptance test. Every
// query must observe the full, correct polyline regardless of which
// generation serves it.
func TestCompactConcurrentQuery(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 512})
	defer l.Close()
	keys := genKeys(4, 200)
	for _, chunk := range chunkKeys(keys, 8) {
		if err := l.Append("dev", chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs, err := l.Query("dev", 0, ^uint32(0))
				if err != nil {
					t.Errorf("Query during compaction: %v", err)
					return
				}
				if got := stitch(recs); !reflect.DeepEqual(got, keys) {
					t.Errorf("query observed a broken polyline (%d keys)", len(got))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if err := l.Append("writer", genKeys(100+i, 12)); err != nil {
				t.Errorf("Append during compaction: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := l.Compact(CompactionPolicy{MergeChunks: true}); err != nil {
			t.Fatalf("Compact %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if recs := queryAll(t, l, "writer"); len(recs) != 30 {
		t.Fatalf("writer records lost during compaction: %d", len(recs))
	}
}

// TestNameTableUnderConcurrency: periodic and full compaction passes run
// while the writer brings in devices no shard has named before and readers
// query devices and windows — the -race test of the shard's name table,
// which the writer extends under the lock while a pass groups and names its
// selection from a snapshot. Every device query returns its own whole
// polyline, every block a window visits names a written device, and after
// a last full pass each device is one record holding its track.
func TestNameTableUnderConcurrency(t *testing.T) {
	s := mustOpenSharded(t, t.TempDir(), 2, Options{MaxSegmentBytes: 1024, Compaction: &CompactionPolicy{MergeChunks: true}})
	defer s.Close()
	const devices = 40
	name := func(d int) string { return fmt.Sprintf("dev-%03d", d) }
	tracks := make([][]trajstore.GeoKey, devices)
	for d := range tracks {
		tracks[d] = genKeys(d+1, 43)
	}
	var written, served atomic.Int32 // devices whose every chunk is appended; queries answered
	stop := make(chan struct{})
	var wg sync.WaitGroup
	running := func(body func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := body(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	running(func(i int) error { return s.pass(i%3 == 2) }) // two ticks, then a full pass
	for r := 0; r < 2; r++ {
		running(func(i int) error {
			n := int(written.Load())
			if n == 0 {
				runtime.Gosched()
				return nil
			}
			d := (i*7 + r) % n
			var recs []Record
			if err := s.DeviceBlocks(name(d), 0, math.MaxUint32, decodeInto(&recs)); err != nil {
				return err
			}
			for _, rec := range recs {
				if rec.Device != name(d) {
					return fmt.Errorf("a query of %s served a record of %q", name(d), rec.Device)
				}
			}
			if got := stitch(recs); !reflect.DeepEqual(got, tracks[d]) {
				return fmt.Errorf("%s: %d keys served, want %d", name(d), len(got), len(tracks[d]))
			}
			served.Add(1)
			return s.WindowBlocks(-180, -90, 180, 90, 0, math.MaxUint32, func(b Block) error {
				if d, err := strconv.Atoi(strings.TrimPrefix(b.Device, "dev-")); err != nil || d >= devices {
					return fmt.Errorf("a window visited a record of %q", b.Device)
				}
				return nil
			})
		})
	}
	for d := range tracks {
		// The writer can outrun both sides; halfway, a pass must have
		// published and a query must have been answered.
		for deadline := time.Now().Add(10 * time.Second); d == devices/2 && (s.Stats().Rewritten == 0 || served.Load() == 0); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no pass published or no query answered beside the writer: the test proved nothing")
			}
		}
		for _, chunk := range chunkKeys(tracks[d], 8) {
			if err := s.Append(name(d), chunk); err != nil {
				t.Fatal(err)
			}
		}
		written.Add(1)
	}
	close(stop)
	wg.Wait()
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	for d := range tracks {
		recs, err := s.Query(name(d), 0, math.MaxUint32)
		if err != nil || len(recs) != 1 || !reflect.DeepEqual(recs[0].Keys, tracks[d]) {
			t.Fatalf("%s after the last full pass: %d records (%v), want its track as one", name(d), len(recs), err)
		}
	}
	if st := s.Stats(); st.Devices != devices || len(s.Devices()) != devices {
		t.Fatalf("Stats().Devices = %d, Devices() lists %d; want %d", st.Devices, len(s.Devices()), devices)
	}
	for _, lg := range s.shards {
		checkView(t, lg)
	}
}

// TestCompactBesidePoisonAndHeal: a pass gathers each device's sealed
// records from the run it selected while the writer extends the device's
// index list and the active segment, rotates, and — around failed fsyncs —
// pops their tails and re-adds them. Every polyline must come out whole,
// and (under -race) the two sides must never touch the same entry.
func TestCompactBesidePoisonAndHeal(t *testing.T) {
	fs := vfs.NewFaultFS(11)
	l := mustOpen(t, memDir, Options{FS: fs, MaxSegmentBytes: 1024})
	defer l.Close()
	const devices = 4
	tracks := make([][]trajstore.GeoKey, devices)
	chunks := make([][][]trajstore.GeoKey, devices)
	for d := range tracks {
		tracks[d] = genKeys(d+1, 400)
		chunks[d] = chunkKeys(tracks[d], 8)
	}

	done, published := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	wg.Add(1)
	go func() { // failed passes are fine here: the fsync faults hit them too
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if res, err := l.Compact(CompactionPolicy{MergeChunks: true}); err == nil && res.Gen != 0 {
					once.Do(func() { close(published) })
				}
			}
		}
	}()
	for i := range chunks[0] {
		if i == len(chunks[0])/2 { // the writer can outrun every pass; halfway, one must have published
			select {
			case <-published:
			case <-time.After(10 * time.Second):
				t.Fatal("no pass published beside the writer: the test proved nothing")
			}
		}
		for d := range chunks {
			if err := l.Append(fmt.Sprintf("dev-%d", d), chunks[d][i]); err != nil {
				t.Fatalf("append %d/%d: %v", d, i, err)
			}
		}
		if i%10 == 9 { // poison: the at-risk tail leaves the index ...
			fs.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "seg-*.log", Fault: vfs.FaultEIO})
			if err := l.Sync(); err == nil {
				t.Fatal("Sync succeeded while every fsync fails")
			}
			fs.ClearRules() // ... and the next append heals it back in
		}
	}
	stop()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(CompactionPolicy{MergeChunks: true}); err != nil {
		t.Fatal(err)
	}
	for d := range tracks {
		if got := stitch(queryAll(t, l, fmt.Sprintf("dev-%d", d))); !reflect.DeepEqual(got, tracks[d]) {
			t.Errorf("dev-%d: %d keys after compaction beside poison and heal, want %d", d, len(got), len(tracks[d]))
		}
	}
	checkView(t, l)
}

// TestCompactReadOnlyRefused: a read-only handle cannot compact.
func TestCompactReadOnlyRefused(t *testing.T) {
	fs, _ := compactionFixture(t, 1)
	l := mustOpen(t, memDir, Options{ReadOnly: true, FS: fs})
	defer l.Close()
	if _, err := l.Compact(CompactionPolicy{MergeChunks: true}); err != ErrReadOnly {
		t.Fatalf("Compact on read-only log = %v, want ErrReadOnly", err)
	}
}

// TestCompactNowPolicy: CompactNow applies Options.Compaction and is a
// no-op without one.
func TestCompactNowPolicy(t *testing.T) {
	dir := t.TempDir()
	want := fillCompactionFixture(t, mustOpenSharded(t, dir, 1, Options{MaxSegmentBytes: 512}))
	l := mustOpenSharded(t, dir, 1, Options{MaxSegmentBytes: 512})
	if err := l.CompactNow(); err != nil { // no policy: no-op
		t.Fatal(err)
	}
	g0 := l.Stats().Gen
	l.Close()

	l = mustOpenSharded(t, dir, 1, Options{
		MaxSegmentBytes: 512,
		Compaction:      &CompactionPolicy{MergeChunks: true},
	})
	defer l.Close()
	if err := l.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if g := l.Stats().Gen; g <= g0 {
		t.Fatalf("CompactNow did not publish a new generation (%d → %d)", g0, g)
	}
	for dev, keys := range want {
		recs, err := l.Query(dev, 0, ^uint32(0))
		if err != nil {
			t.Fatal(err)
		}
		if got := stitch(recs); !reflect.DeepEqual(got, keys) {
			t.Fatalf("%s polyline diverged after CompactNow", dev)
		}
	}
}

// TestManifestRoundTrip pins format(parse) as the identity on the
// canonical form.
func TestManifestRoundTrip(t *testing.T) {
	m := manifest{Gen: 42, Segs: []manifestSeg{{Name: "seg-00000009.log"}, {Name: "seg-00000005.log"}, {Name: "seg-00000003.log"}}}
	got, err := parseManifest(formatManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip changed manifest: %+v → %+v", m, got)
	}
	// Corruption of any byte must be detected.
	data := formatManifest(m)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if parsed, err := parseManifest(mut); err == nil && !reflect.DeepEqual(parsed, m) {
			t.Fatalf("flipping byte %d yielded a different valid manifest: %+v", i, parsed)
		}
	}
}

// TestOpenSweepsUnreferenced: the writable open's sweep, run against the
// list it just published, removes a segment file that list does not name
// (a crashed compaction's output) and a stale MANIFEST.tmp, and loses no
// record.
func TestOpenSweepsUnreferenced(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 128})
	for i := 0; i < 8; i++ {
		if err := l.Append("dev", genKeys(i+1, 12)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, segName(900))
	if err := os.WriteFile(stray, []byte("BQSLOG\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, manifestTmpName)
	if err := os.WriteFile(tmp, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	defer l2.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("unreferenced segment not swept: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale MANIFEST.tmp not swept: %v", err)
	}
	if recs := queryAll(t, l2, "dev"); len(recs) != 8 {
		t.Fatalf("sweep lost records: %d", len(recs))
	}
}

// TestManifestCorruptRejected: a damaged manifest must fail the open
// loudly instead of silently reordering the log.
func TestManifestCorruptRejected(t *testing.T) {
	fs, _ := compactionFixture(t, 1)
	path := filepath.Join(memDir, manifestName)
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := writeFile(fs, path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := openShardLog(memDir, Options{FS: fs}); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

// TestCompactBitRotAborts: a sealed record that no longer validates
// (bit rot after Open) must abort the compaction with ErrCorrupt and
// leave the published generation — and every still-readable record —
// untouched, never silently drop the records after it and delete their
// only copy.
func TestCompactBitRotAborts(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 128})
	for i := 0; i < 8; i++ {
		if err := l.Append("dev", genKeys(i+1, 12)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	if before.Segments < 3 {
		t.Fatalf("fixture sealed too few segments: %+v", before)
	}

	// Flip a byte inside the FIRST sealed segment's record area.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+recordHeaderSize+4] ^= 0x10
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := l.Compact(CompactionPolicy{MergeChunks: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Compact on bit-rotted segment = %v, want ErrCorrupt", err)
	}
	// Old generation intact: no file was deleted, no manifest bumped.
	if s := l.Stats(); s.Gen != before.Gen || s.Segments != before.Segments {
		t.Fatalf("failed compaction mutated the log: %+v → %+v", before, s)
	}
	l.Close()
}

// TestCompactNoopSkipsRewrite: a pass that merges, dedups and ages
// nothing must not rewrite segments or publish a new generation.
func TestCompactNoopSkipsRewrite(t *testing.T) {
	fs, want := compactionFixture(t, 1)
	l := mustOpen(t, memDir, Options{MaxSegmentBytes: 512, FS: fs})
	defer l.Close()
	if _, err := l.Compact(CompactionPolicy{MergeChunks: true}); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	res, err := l.Compact(CompactionPolicy{MergeChunks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 0 || res.Merged+res.Deduped+res.Aged != 0 {
		t.Fatalf("second pass was not a no-op: %+v", res)
	}
	if st := l.Stats(); st.Gen != before.Gen || st.Rewritten != before.Rewritten {
		t.Fatalf("no-op pass published or rewrote: %+v → %+v", before, st)
	}
	for dev, keys := range want {
		if got := stitch(queryAll(t, l, dev)); !reflect.DeepEqual(got, keys) {
			t.Fatalf("%s polyline diverged across no-op pass", dev)
		}
	}
}
