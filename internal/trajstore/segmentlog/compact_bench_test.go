package segmentlog

import (
	"fmt"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// chunkAt is chunk c of device d's long track, perChunk keys: chunks obey
// the engine's chunking invariant — each restarts from the previous one's
// last key — so MergeChunks has real work to do.
func chunkAt(d, c, perChunk int) []trajstore.GeoKey {
	keys := make([]trajstore.GeoKey, perChunk)
	for k := range keys {
		i := c*(perChunk-1) + k
		keys[k] = trajstore.GeoKey{
			Lat: float64(int64(d)*1_000_000+int64(i*10)) / 1e7,
			Lon: float64(int64(d)*1_000_000+int64(i*13)) / 1e7,
			T:   uint32(1000 + 6*(i/3) + i%3*(i%3+1)/2), // steps of 1, 2, 3 s
		}
	}
	return keys
}

// chunkedKeys is a device's first chunks.
func chunkedKeys(d, chunks, perChunk int) [][]trajstore.GeoKey {
	out := make([][]trajstore.GeoKey, chunks)
	for c := range out {
		out[c] = chunkAt(d, c, perChunk)
	}
	return out
}

// BenchmarkCompactThroughput measures one chunk-merge compaction pass
// over a freshly built multi-segment log. Each iteration rebuilds the
// fixture outside the timer, so the measured work is exactly the
// streaming compactor: scan, merge, rewrite, publish. The mem row runs on
// a vfs.FaultFS with no rules, so it measures the compactor's CPU; the
// disk row writes and fsyncs a directory of its own each iteration, so it
// adds what the file system costs on the host. SetBytes carries the
// pass's input size, so the MB/s column is compacted input bytes per
// second.
func BenchmarkCompactThroughput(b *testing.B) {
	for _, name := range []string{"mem", "disk"} {
		b.Run(name, func(b *testing.B) {
			root := b.TempDir()
			var bytesIn int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir, opts := memDir, Options{MaxSegmentBytes: 8 << 10, FS: vfs.NewFaultFS(1)}
				if name == "disk" {
					dir, opts.FS = fmt.Sprintf("%s/run-%d", root, i), nil
				}
				l, err := openShardLog(dir, opts)
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
		})
	}
}

// BenchmarkCompactTick measures one periodic pass over 4 newly sealed
// segments behind 64, 256 and 1 024 old ones: what a tick costs is what was
// sealed since the last one, so ns/op and the segment and index bytes written
// (B-written/op, countFS) are flat in the old count — but for the MANIFEST,
// which every publish, a rotation's too, rewrites whole. The old segments are
// one tier, as an open leaves them, and are made one again after every
// iteration, outside the timer, so each tick meets the same log. The log
// lives on a vfs.FaultFS with no rules, so ns/op is the pass's CPU.
func BenchmarkCompactTick(b *testing.B) {
	for _, old := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("old=%d", old), func(b *testing.B) {
			fs := &countFS{FS: vfs.NewFaultFS(1)}
			l, err := openShardLog(memDir, Options{MaxSegmentBytes: 4 << 10, FS: fs})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			const devices = 16
			chunk := make([]int, devices)
			seal := func(n int) { // append round-robin until n more segments are sealed
				for target := l.Stats().Segments + n; l.Stats().Segments < target; {
					for d := 0; d < devices; d++ {
						if err := l.Append(fmt.Sprintf("dev-%03d", d), chunkAt(d, chunk[d], 16)); err != nil {
							b.Fatal(err)
						}
						chunk[d]++
					}
				}
			}
			seal(old)
			var written int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l.tiers = []int{l.Stats().Segments - 1}
				seal(4)
				if err := l.Sync(); err != nil {
					b.Fatal(err)
				}
				before := fs.written.Load()
				b.StartTimer()
				res, err := l.compact(CompactionPolicy{MergeChunks: true}, false)
				if err != nil {
					b.Fatal(err)
				}
				if written += fs.written.Load() - before; res.Gen == 0 || res.SegmentsIn > 5 {
					b.Fatalf("tick did not consume just the new run: %+v", res)
				}
			}
			b.ReportMetric(float64(written)/float64(b.N), "B-written/op")
		})
	}
}
