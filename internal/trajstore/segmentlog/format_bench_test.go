package segmentlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// benchTrail is n key points of a vehicle-like walk: steps of about 50 m
// in each coordinate, 5–30 s apart — the spacing of a compressor's output.
func benchTrail(b *testing.B, n int) *trajstore.Trail {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	lat, lon, ts := 45.0, 7.0, uint32(1_700_000_000)
	var tr trajstore.Trail
	for i := 0; i < n; i++ {
		if err := tr.Add(trajstore.GeoKey{Lat: lat, Lon: lon, T: ts}); err != nil {
			b.Fatal(err)
		}
		lat += rng.NormFloat64() * 5e-4
		lon += rng.NormFloat64() * 5e-4
		ts += uint32(5 + rng.Intn(26))
	}
	return &tr
}

// benchSizes are the record sizes the format benchmarks run on: an engine
// chunk and a compacted device.
var benchSizes = []int{16, 10_000}

// BenchmarkFrameRecord frames one record — header, packed payload, CRC —
// as an append or a compaction writes it, in ns per key.
func BenchmarkFrameRecord(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			tr := benchTrail(b, n)
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = frameRecord(buf[:0], "dev-00042", tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
			b.ReportMetric(float64(len(buf))/float64(n), "B/key")
		})
	}
}

// BenchmarkReadBlock reads one record back as a query does — pread, CRC,
// unpack into a delta-varint block, copy out — in ns per key.
func BenchmarkReadBlock(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			tr := benchTrail(b, n)
			rec, err := frameRecord([]byte{'B', 'Q', 'S', 'L', 'O', 'G', version, 0}, "dev-00042", tr)
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), segName(1))
			if err := os.WriteFile(path, rec, 0o644); err != nil {
				b.Fatal(err)
			}
			r := segReader{fs: vfs.OS}
			defer r.close()
			if err := r.open(0, &segmentFile{path: path}, 1); err != nil {
				b.Fatal(err)
			}
			ref := refSnap{off: headerSize + recordHeaderSize, bodyLen: uint32(len(rec) - headerSize - recordHeaderSize)}
			if blk, err := r.readBlock(ref); err != nil || !bytes.Equal(blk.Payload, tr.AppendBlock(nil)) {
				b.Fatalf("readBlock = %d bytes, %v; want the trail's block", len(blk.Payload), err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.readBlock(ref); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
		})
	}
}
