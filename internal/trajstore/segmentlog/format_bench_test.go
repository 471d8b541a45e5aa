package segmentlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
				if buf, err = frameRecord(buf[:0], "dev-00042", tr.Bounds(), tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
			b.ReportMetric(float64(len(buf))/float64(n), "B/key")
		})
	}
}

// BenchmarkReadBlock reads one record back as a query or a compaction
// does — pread, CRC, unpack into a delta-varint block — in ns per key;
// format=2 reads the same keys from a version-2 segment, where the stored
// payload is the block.
func BenchmarkReadBlock(b *testing.B) {
	for _, v := range []byte{version, legacyVersion} {
		legacy := v == legacyVersion
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("format=%d/keys=%d", v, n), func(b *testing.B) {
				tr := benchTrail(b, n)
				hdr := [headerSize]byte{'B', 'Q', 'S', 'L', 'O', 'G', v}
				rec, err := frameRecord(hdr[:], "dev-00042", tr.Bounds(), tr)
				if err != nil {
					b.Fatal(err)
				}
				if legacy { // the same body with the block as its payload
					head := rec[headerSize+recordHeaderSize : len(rec)-len(tr.AppendPacked(nil))]
					body := append(slices.Clone(head), tr.AppendBlock(nil)...)
					rec = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(hdr[:], uint32(len(body))), crc32.Checksum(body, castagnoli))
					rec = append(rec, body...)
				}
				path := filepath.Join(b.TempDir(), segName(1))
				if err := os.WriteFile(path, rec, 0o644); err != nil {
					b.Fatal(err)
				}
				sf := segmentFile{path: path, legacy: legacy}
				r := segReader{fs: vfs.OS}
				defer r.close()
				if err := r.open(0, &sf, 1); err != nil {
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
}
