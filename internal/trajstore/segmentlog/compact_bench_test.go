package segmentlog

import (
	"fmt"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// chunkedKeys slices one long per-device track into chunks that obey
// the engine's chunking invariant — each chunk restarts from the
// previous chunk's last key — so MergeChunks has real work to do.
func chunkedKeys(d, chunks, perChunk int) [][]trajstore.GeoKey {
	total := chunks*(perChunk-1) + 1
	track := make([]trajstore.GeoKey, total)
	lat0, lon0 := int64(d)*1_000_000, int64(d)*1_000_000
	t := uint32(1000)
	for i := range track {
		track[i] = trajstore.GeoKey{
			Lat: float64(lat0+int64(i*10)) / 1e7,
			Lon: float64(lon0+int64(i*13)) / 1e7,
			T:   t,
		}
		t += uint32(i%3 + 1)
	}
	out := make([][]trajstore.GeoKey, chunks)
	for c := range out {
		out[c] = track[c*(perChunk-1) : c*(perChunk-1)+perChunk]
	}
	return out
}

// BenchmarkCompactThroughput measures one chunk-merge compaction pass
// over a freshly built multi-segment log. Each iteration rebuilds the
// fixture in its own directory outside the timer, so the measured work
// is exactly the streaming compactor: scan, merge, rewrite, publish.
// SetBytes carries the pass's input size, so the MB/s column is
// compacted input bytes per second — the figure the cores axis of the
// benchmark matrix scales, since the compactor fans per-device work to
// a GOMAXPROCS-sized worker pool by default.
func BenchmarkCompactThroughput(b *testing.B) {
	root := b.TempDir()
	var bytesIn int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := fmt.Sprintf("%s/run-%d", root, i)
		l, err := openShardLog(dir, Options{MaxSegmentBytes: 8 << 10})
		if err != nil {
			b.Fatal(err)
		}
		for d := 0; d < 30; d++ {
			for _, chunk := range chunkedKeys(d, 20, 16) {
				if err := l.Append(fmt.Sprintf("dev-%03d", d), chunk); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := l.Compact(CompactionPolicy{MergeChunks: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if res.Gen == 0 || res.Merged == 0 {
			b.Fatalf("compaction did no work: %+v", res)
		}
		bytesIn = res.BytesIn
		l.Close()
		b.StartTimer()
	}
	b.SetBytes(bytesIn)
}
