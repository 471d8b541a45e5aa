package segmentlog

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"reflect"
	"testing"

	"github.com/trajcomp/bqs/internal/cache"
)

// windowCacheStats runs one window query over the whole fixture and
// returns the results with the per-query window stats and the cache
// counters after it.
func windowCacheStats(t *testing.T, l *shardLog) ([]Record, WindowStats, cache.Stats) {
	t.Helper()
	recs, ws, err := l.QueryWindowStats(-1, -1, 10, 10, 0, math.MaxUint32)
	if err != nil {
		t.Fatal(err)
	}
	return recs, ws, l.cache.Stats()
}

// fillChunked appends each device's walk as chunks overlapping by one
// key — the engine's MaxTrailKeys chunking invariant — so a MergeChunks
// compaction has real work to do and therefore publishes a generation.
func fillChunked(t *testing.T, l *shardLog, devs, n, chunk int) {
	t.Helper()
	for d := 0; d < devs; d++ {
		keys := cellKeys(d, 0, n)
		for lo := 0; lo < len(keys)-1; lo += chunk - 1 {
			hi := min(lo+chunk, len(keys))
			if err := l.Append(fmt.Sprintf("dev-%03d", d), keys[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if hi == len(keys) {
				break
			}
		}
	}
}

// pairSets reduces records to per-device sets of consecutive key pairs
// — the trajectory segments, which chunk-merging preserves exactly even
// though it changes record boundaries.
func pairSets(recs []Record) map[string]map[[6]float64]bool {
	out := make(map[string]map[[6]float64]bool)
	for _, r := range recs {
		m := out[r.Device]
		if m == nil {
			m = make(map[[6]float64]bool)
			out[r.Device] = m
		}
		for i := 0; i+1 < len(r.Keys); i++ {
			a, b := r.Keys[i], r.Keys[i+1]
			m[[6]float64{a.Lat, a.Lon, float64(a.T), b.Lat, b.Lon, float64(b.T)}] = true
		}
	}
	return out
}

// TestCacheHitsAndInvalidationAcrossCompaction is the cache's core
// contract: a cold query reads and populates, a warm repeat serves every
// record from the cache without a single read, a compaction costs exactly
// the records it rewrote (they live at fresh paths; no flush call — the old
// keys just stop being looked up) while the untouched active segment stays
// warm, and the re-population makes the next repeat warm again. Results
// are bit-identical at every stage.
func TestCacheHitsAndInvalidationAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 1000, CacheBytes: 1 << 20})
	defer l.Close()
	fillChunked(t, l, 6, 720, 8)

	// Cold: nothing resident, every candidate is a miss and a decode.
	cold, cws, cs := windowCacheStats(t, l)
	if len(cold) == 0 {
		t.Fatal("fixture produced no window results")
	}
	if cws.CacheHits != 0 {
		t.Fatalf("cold query reported %d cache hits", cws.CacheHits)
	}
	if cws.RecordsDecoded == 0 {
		t.Fatal("cold query decoded nothing")
	}
	if cs.Misses == 0 || cs.Entries == 0 {
		t.Fatalf("cold query did not populate the cache: %+v", cs)
	}

	// Warm: the same query serves entirely from memory.
	warm, wws, ws2 := windowCacheStats(t, l)
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm results diverge from cold results")
	}
	if wws.RecordsDecoded != 0 {
		t.Fatalf("warm query decoded %d records, want 0", wws.RecordsDecoded)
	}
	if wws.CacheHits == 0 {
		t.Fatal("warm query reported no cache hits")
	}
	if ws2.Hits <= cs.Hits {
		t.Fatalf("cache hit counter did not advance: %d -> %d", cs.Hits, ws2.Hits)
	}

	// Compaction rewrites the sealed segments under fresh paths: those
	// records miss once; the active segment's, which no pass touches, hit.
	genBefore := l.Stats().Gen
	res, err := l.Compact(CompactionPolicy{MergeChunks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged == 0 {
		t.Fatalf("fixture gave compaction nothing to merge: %+v", res)
	}
	if l.Stats().Gen <= genBefore {
		t.Fatal("compaction did not bump the manifest generation")
	}
	active := len(l.segs[len(l.segs)-1].recs)
	if active == 0 {
		t.Fatal("fixture left the active segment empty: nothing can stay warm")
	}
	postCompact, pws, ps := windowCacheStats(t, l)
	if pws.CacheHits != active {
		t.Fatalf("first post-compaction query hit %d times, want the active segment's %d records", pws.CacheHits, active)
	}
	if pws.RecordsDecoded != res.RecordsOut {
		t.Fatalf("post-compaction query read %d records, want the %d rewritten ones — stale entries served?", pws.RecordsDecoded, res.RecordsOut)
	}
	if ps.Misses != ws2.Misses+uint64(res.RecordsOut) {
		t.Fatalf("post-compaction misses %d -> %d, want one per rewritten record (%d)", ws2.Misses, ps.Misses, res.RecordsOut)
	}
	// Compaction merges chunks, so record boundaries legitimately change;
	// the trajectory segments (consecutive key pairs) must not.
	if !reflect.DeepEqual(pairSets(postCompact), pairSets(cold)) {
		t.Fatal("post-compaction results diverge from pre-compaction results")
	}

	// And the rewritten records' entries serve the next repeat warm.
	rewarm, rws, _ := windowCacheStats(t, l)
	if !reflect.DeepEqual(rewarm, postCompact) {
		t.Fatal("re-warmed results diverge")
	}
	if rws.RecordsDecoded != 0 || rws.CacheHits == 0 {
		t.Fatalf("cache did not re-populate after compaction: decoded=%d hits=%d",
			rws.RecordsDecoded, rws.CacheHits)
	}

	// A tick consumes what was sealed since the last pass, not the tier that
	// pass left — too large for so small a run to reach back over: that
	// tier's blocks, where they were, are still hits, as the active
	// segment's are; only the tick's own output is read.
	older := l.Stats().Segments - 1
	late := cellKeys(7, 0, 400)
	for lo := 0; l.Stats().Segments < older+2; lo += 7 {
		if err := l.Append("dev-late", late[lo:lo+8]); err != nil {
			t.Fatal(err)
		}
	}
	if tier, run := segBytes(l.segs[:older]), segBytes(l.segs[older:older+1]); tier <= tierRatio*run {
		t.Fatalf("fixture: a run of %d bytes reaches back over a tier of %d", run, tier)
	}
	_, _, _ = windowCacheStats(t, l) // warm what was just appended
	untouched := l.Stats().Records - len(l.segs[older].recs)
	tick, err := l.compact(CompactionPolicy{MergeChunks: true}, false)
	if err != nil || tick.Merged == 0 || tick.SegmentsIn != 1 {
		t.Fatalf("tick = %+v, %v; want the one newly sealed segment merged", tick, err)
	}
	postTick, tws, _ := windowCacheStats(t, l)
	if tws.CacheHits != untouched || tws.RecordsDecoded != tick.RecordsOut {
		t.Fatalf("after a tick: %d hits, %d reads; want the %d records it did not consume hit and its %d read",
			tws.CacheHits, tws.RecordsDecoded, untouched, tick.RecordsOut)
	}
	if n := l.Stats().Records - tick.RecordsOut - len(l.segs[len(l.segs)-1].recs); !reflect.DeepEqual(postTick[:n], rewarm[:n]) {
		t.Fatal("the older tier's records changed across a tick")
	}
}

// TestCacheSurvivesRotation: a rotation publishes a manifest generation
// and changes no stored byte, so it costs a warm cache nothing — the repeat
// of a warmed window reads only the records appended since.
func TestCacheSurvivesRotation(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{MaxSegmentBytes: 1024, CacheBytes: 1 << 20})
	defer l.Close()
	fillCells(t, l, 4, 4, 8)
	cold, _, _ := windowCacheStats(t, l)
	if _, ws, _ := windowCacheStats(t, l); ws.RecordsDecoded != 0 || ws.CacheHits != len(cold) {
		t.Fatalf("window not warm before the rotation: %+v", ws)
	}
	gen, added := l.Stats().Gen, 0
	for ; l.Stats().Gen == gen; added++ {
		if err := l.Append("dev-late", cellKeys(1, 100+added, 8)); err != nil {
			t.Fatal(err)
		}
	}
	after, ws, _ := windowCacheStats(t, l)
	if ws.CacheHits != len(cold) || ws.RecordsDecoded != added {
		t.Fatalf("after a rotation: %d hits, %d reads; want the %d warm records hit and only the %d new ones read",
			ws.CacheHits, ws.RecordsDecoded, len(cold), added)
	}
	if !reflect.DeepEqual(after[:len(cold)], cold) {
		t.Fatal("warm records changed across the rotation")
	}
}

// TestCacheHitResultsIsolated: a caller mutating the Keys slice of a
// cache-served record must not corrupt the cached copy, nor must mutating
// the slices of the query that populated the cache. The cache holds stored
// bytes and every decode makes slices of its own, so this holds by
// construction; the scribble stays to say so.
func TestCacheHitResultsIsolated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{CacheBytes: 1 << 20})
	defer l.Close()
	fillCells(t, l, 2, 2, 8)

	first, _, _ := windowCacheStats(t, l)
	want := make([][]float64, len(first))
	for i, r := range first {
		for _, k := range r.Keys {
			want[i] = append(want[i], k.Lat, k.Lon)
		}
	}
	// Scribble over both the populating query's slices and a warm hit's.
	for pass := 0; pass < 2; pass++ {
		recs, _, _ := windowCacheStats(t, l)
		for _, r := range recs {
			for j := range r.Keys {
				r.Keys[j].Lat = -999
				r.Keys[j].Lon = -999
			}
		}
	}
	again, ws, _ := windowCacheStats(t, l)
	if ws.CacheHits == 0 {
		t.Fatal("verification query was not served from cache")
	}
	for i, r := range again {
		var got []float64
		for _, k := range r.Keys {
			got = append(got, k.Lat, k.Lon)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("record %d: cached keys were corrupted by caller mutation", i)
		}
	}
}

// TestKeptBlocksOutliveTheRead is the Block lifetime contract a query's
// answer stands on (the server writes it from the payloads its read handed
// over, uncopied): every payload kept past its visit still holds the bytes it
// held then — while a read cache a few records large evicts what it served
// and serves it again, appends go on, and a compaction publishes a
// generation that deletes the segments the payloads were read from.
func TestKeptBlocksOutliveTheRead(t *testing.T) {
	s := mustOpenSharded(t, t.TempDir(), 1, Options{MaxSegmentBytes: 1024, CacheBytes: 1 << 10})
	defer s.Close()
	l := s.shards[0]
	fillChunked(t, l, 6, 160, 8)
	var kept, copies [][]byte
	keep := func(b Block) error {
		kept, copies = append(kept, b.Payload), append(copies, bytes.Clone(b.Payload))
		return nil
	}
	for range 2 {
		err := errors.Join(
			s.WindowBlocks(-1, -1, 10, 10, 0, math.MaxUint32, keep),
			s.DeviceBlocks("dev-003", 0, math.MaxUint32, keep),
			s.DeviceBlocks("dev-000", 1000, 1000, keep), // its first chunk: the same record twice, a hit
			s.DeviceBlocks("dev-000", 1000, 1000, keep),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if cs := s.Stats().Cache; cs.Evictions == 0 || cs.Hits == 0 || cs.Misses == 0 {
		t.Fatalf("the reads did not miss, evict and hit (%+v): the fixture measures nothing", cs)
	}
	var read []string
	for _, seg := range l.segs[:len(l.segs)-1] {
		read = append(read, seg.path)
	}
	fillChunked(t, l, 8, 40, 8) // appends go on, and chunk what the pass merges
	if res, err := s.Compact(CompactionPolicy{MergeChunks: true}); err != nil || res.Merged == 0 {
		t.Fatalf("Compact = %+v, %v; want merges", res, err)
	}
	for _, p := range read {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("segment %s, which the reads came from, survived the compaction: %v", p, err)
		}
	}
	for i := range kept {
		if !bytes.Equal(kept[i], copies[i]) {
			t.Fatalf("payload %d of %d changed after its visit", i, len(kept))
		}
	}
}

// TestCacheDisabledByDefault: Options zero value keeps the pre-cache
// behavior exactly — no residency, no hit/miss accounting.
func TestCacheDisabledByDefault(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close()
	fillCells(t, l, 2, 2, 8)
	for i := 0; i < 2; i++ {
		_, ws, cs := windowCacheStats(t, l)
		if ws.CacheHits != 0 {
			t.Fatalf("pass %d: cache hits with caching off", i)
		}
		if ws.RecordsDecoded == 0 {
			t.Fatalf("pass %d: no decodes with caching off", i)
		}
		if cs != (cache.Stats{}) {
			t.Fatalf("pass %d: nonzero cache stats with caching off: %+v", i, cs)
		}
	}
}

// TestShardedCacheSharedBudget: all shards feed one cache; per-shard
// queries populate it and ShardedLog.Stats().Cache sees the union, while a
// repeated sharded window query is served warm.
func TestShardedCacheSharedBudget(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenSharded(t, dir, 4, Options{CacheBytes: 1 << 20})
	defer s.Close()
	for r := 0; r < 3; r++ {
		for d := 0; d < 8; d++ {
			if err := s.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, 8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cold, cws, err := s.QueryWindowStats(-1, -1, 10, 10, 0, math.MaxUint32)
	if err != nil {
		t.Fatal(err)
	}
	if cws.CacheHits != 0 {
		t.Fatalf("cold sharded query hit %d times", cws.CacheHits)
	}
	cs := s.Stats().Cache
	if cs.Entries == 0 || cs.Misses == 0 {
		t.Fatalf("cold sharded query did not populate the shared cache: %+v", cs)
	}
	warm, wws, err := s.QueryWindowStats(-1, -1, 10, 10, 0, math.MaxUint32)
	if err != nil {
		t.Fatal(err)
	}
	if wws.RecordsDecoded != 0 || wws.CacheHits == 0 {
		t.Fatalf("sharded warm query: decoded=%d hits=%d", wws.RecordsDecoded, wws.CacheHits)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm sharded query returned %d records, want %d", len(warm), len(cold))
	}
}

// TestCacheBudgetHoldsBlocks: an entry is charged what it holds — the
// stored bytes, ≈ 3 B a key — not the 24 B a decoded key took, so a budget
// goes several times further. With 64-key records a 1 MiB budget must keep
// at least three times the records the decoded-record charge (24 B a key
// plus the same strings and a 96 B allowance) would have let it, stay
// inside the budget, and serve every resident record without a read.
func TestCacheBudgetHoldsBlocks(t *testing.T) {
	const budget, keysPerRecord, devs, recsPerDev = 1 << 20, 64, 50, 80
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 256 << 10, CacheBytes: budget})
	defer l.Close()
	fillCells(t, l, devs, recsPerDev, keysPerRecord)
	_, ws, cs := windowCacheStats(t, l)
	if ws.RecordsDecoded != devs*recsPerDev {
		t.Fatalf("cold pass read %d records, want all %d", ws.RecordsDecoded, devs*recsPerDev)
	}
	if cs.Evictions == 0 {
		t.Fatalf("the fixture fits the budget (%+v): it measures nothing", cs)
	}
	if cs.Bytes > budget {
		t.Fatalf("resident %d B over the %d B budget", cs.Bytes, budget)
	}
	decodedCharge := 24*keysPerRecord + len(l.segs[0].path) + len("dev-000") + 96
	if was := budget / decodedCharge; cs.Entries < 3*was {
		t.Fatalf("1 MiB holds %d records; charged as decoded keys it held %d — want ≥ 3×", cs.Entries, was)
	}
	// LRU: the most recent entries are resident; the newest segment's
	// records come back without touching the disk.
	last := devs - 1
	minX, minY, maxX, maxY := cellWindow(last, last)
	if _, ws, err := l.QueryWindowStats(minX, minY, maxX, maxY, uint32(1000+100*(recsPerDev-1)), math.MaxUint32); err != nil || ws.CacheHits == 0 || ws.RecordsDecoded != 0 {
		t.Fatalf("resident records not served from the cache: %+v, %v", ws, err)
	}
}
