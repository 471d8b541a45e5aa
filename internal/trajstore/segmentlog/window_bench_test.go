package segmentlog

import (
	"fmt"
	"math"
	"testing"
)

// benchWindowLog builds the window-query benchmark fixture: 50 devices
// in separate spatial cells, 20 records each (device-major, so sealed
// segments cover distinct regions), rotated into multiple sealed
// segments.
func benchWindowLog(b *testing.B) (*shardLog, int) {
	b.Helper()
	dir := b.TempDir()
	l, err := openShardLog(dir, Options{MaxSegmentBytes: 16 << 10})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	for d := 0; d < 50; d++ {
		for r := 0; r < 20; r++ {
			if err := l.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, 16)); err != nil {
				b.Fatal(err)
			}
		}
	}
	s := l.Stats()
	if s.Segments < 2 {
		b.Fatalf("benchmark log has no sealed segment: %+v", s)
	}
	return l, s.Records
}

// benchWindow runs one window shape and reports the decode fraction —
// records decoded per query over the records a full scan would decode.
func benchWindow(b *testing.B, minX, minY, maxX, maxY float64, maxDecodeFrac float64) {
	l, total := benchWindowLog(b)
	var ws WindowStats
	var matched int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, s, err := l.QueryWindowStats(minX, minY, maxX, maxY, 0, math.MaxUint32)
		if err != nil {
			b.Fatal(err)
		}
		ws, matched = s, len(recs)
	}
	b.StopTimer()
	frac := float64(ws.RecordsDecoded) / float64(total)
	b.ReportMetric(frac, "decode-frac")
	b.ReportMetric(float64(matched), "matched/op")
	if frac > maxDecodeFrac {
		b.Fatalf("decoded %d of %d records (%.1f%%), want ≤ %.0f%%",
			ws.RecordsDecoded, total, 100*frac, 100*maxDecodeFrac)
	}
}

// BenchmarkQueryWindowSelective: a window covering 2 of 50 devices
// (4% of the fleet). The acceptance bound — the pruned path decodes
// under 20% of what a full scan would — is asserted, not just
// reported.
func BenchmarkQueryWindowSelective(b *testing.B) {
	minX, minY, maxX, maxY := cellWindow(10, 11)
	benchWindow(b, minX, minY, maxX, maxY, 0.20)
}

// BenchmarkQueryWindowFull: the whole extent; every record matches, so
// this measures the decode-everything floor the selective case is
// compared against.
func BenchmarkQueryWindowFull(b *testing.B) {
	benchWindow(b, -10, -10, 10, 10, 1.0)
}

// benchWindowCached rebuilds the fixture with a read cache and measures
// the full-extent query either cold (cache flushed by reopening the log
// between iterations is too costly; instead CacheBytes: 0 IS the cold
// configuration — see BenchmarkQueryWindowCold) or warm.
func benchWindowCached(b *testing.B, cacheBytes int64, wantHits bool) {
	dir := b.TempDir()
	l, err := openShardLog(dir, Options{MaxSegmentBytes: 16 << 10, CacheBytes: cacheBytes, cache: newRecordCache(cacheBytes)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	for d := 0; d < 50; d++ {
		for r := 0; r < 20; r++ {
			if err := l.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, 16)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Populate (a no-op without a cache) so the timed loop measures the
	// steady state of each configuration.
	if _, _, err := l.QueryWindowStats(-10, -10, 10, 10, 0, math.MaxUint32); err != nil {
		b.Fatal(err)
	}
	var ws WindowStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, s, err := l.QueryWindowStats(-10, -10, 10, 10, 0, math.MaxUint32)
		if err != nil {
			b.Fatal(err)
		}
		ws = s
	}
	b.StopTimer()
	b.ReportMetric(float64(ws.CacheHits), "hits/op")
	b.ReportMetric(float64(ws.RecordsDecoded), "decoded/op")
	if wantHits && (ws.CacheHits == 0 || ws.RecordsDecoded != 0) {
		b.Fatalf("warm query not served from cache: hits=%d decoded=%d", ws.CacheHits, ws.RecordsDecoded)
	}
	if !wantHits && ws.CacheHits != 0 {
		b.Fatalf("cold configuration reported %d cache hits", ws.CacheHits)
	}
}

// BenchmarkQueryWindowCold: the full-extent query with caching off —
// every iteration preads, CRC-checks and delta-decodes all 1000
// records. The baseline BenchmarkQueryWindowCached is compared against.
func BenchmarkQueryWindowCold(b *testing.B) { benchWindowCached(b, 0, false) }

// BenchmarkQueryWindowCached: the same query with a warm 16 MiB record
// cache — every record serves from memory (asserted: zero decodes).
func BenchmarkQueryWindowCached(b *testing.B) { benchWindowCached(b, 16<<20, true) }

// BenchmarkWindowBlocks is the block path the daemon serves from — no
// record decoded, each matching payload copied into one reused frame
// buffer — for a selective and a full window, cold (no cache) and served
// from a warm cache. B/op is the figure: what a query allocates beyond
// the frame it answers with.
func BenchmarkWindowBlocks(b *testing.B) {
	selX0, selY0, selX1, selY1 := cellWindow(10, 11)
	for _, bc := range []struct {
		name                   string
		minX, minY, maxX, maxY float64
		cacheBytes             int64
	}{
		{"selective/cold", selX0, selY0, selX1, selY1, 0},
		{"selective/cached", selX0, selY0, selX1, selY1, 16 << 20},
		{"full/cold", -10, -10, 10, 10, 0},
		{"full/cached", -10, -10, 10, 10, 16 << 20},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := OpenSharded(b.TempDir(), 1, Options{MaxSegmentBytes: 16 << 10, CacheBytes: bc.cacheBytes})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			for d := 0; d < 50; d++ {
				for r := 0; r < 20; r++ {
					if err := s.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, 16)); err != nil {
						b.Fatal(err)
					}
				}
			}
			var frame []byte
			query := func() WindowStats {
				frame = frame[:0]
				var ws WindowStats
				err := s.windowBlocks(bc.minX, bc.minY, bc.maxX, bc.maxY, 0, math.MaxUint32, &ws, func(blk Block) error {
					frame = append(append(frame, blk.Device...), blk.Payload...)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				return ws
			}
			ws := query() // populates the cache, sizes the frame
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws = query()
			}
			b.StopTimer()
			b.ReportMetric(float64(ws.RecordsMatched), "matched/op")
			b.ReportMetric(float64(len(frame)), "frame-B/op")
			if cached := bc.cacheBytes > 0; ws.RecordsMatched == 0 || cached != (ws.CacheHits > 0) || cached == (ws.RecordsDecoded > 0) {
				b.Fatalf("cache %d B: %+v", bc.cacheBytes, ws)
			}
		})
	}
}
