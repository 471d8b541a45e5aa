package segmentlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
// unpack into a delta-varint block, copy out — in ns per key, for every
// version read: format=4 packs the same keys as that version did (packV4),
// format=3 frames them with a version-3 header too, format=2 stores their
// block as the payload.
func BenchmarkReadBlock(b *testing.B) {
	for v := byte(version); v >= oldestVersion; v-- {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("format=%d/keys=%d", v, n), func(b *testing.B) {
				tr := benchTrail(b, n)
				rec := frameAs(b, []byte{'B', 'Q', 'S', 'L', 'O', 'G', v, 0}, v, "dev-00042", tr)
				path := filepath.Join(b.TempDir(), segName(1))
				if err := os.WriteFile(path, rec, 0o644); err != nil {
					b.Fatal(err)
				}
				sf := segmentFile{path: path, version: v}
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

// frameAs appends tr framed as a version-v segment's record: frameRecord's
// record for this version; for an older one, the body its writer framed —
// in version 4 the ID after its uvarint length; before it the u16 ID
// length, the ID and the trail's bounds — then the payload: in versions 4
// and 3 packV4's, in version 2 the delta-varint block.
func frameAs(t testing.TB, dst []byte, v byte, device string, tr *trajstore.Trail) []byte {
	t.Helper()
	if v == version {
		dst, err := frameRecord(dst, device, tr)
		if err != nil {
			t.Fatal(err)
		}
		return dst
	}
	b, body := tr.Bounds(), append(binary.AppendUvarint(nil, uint64(len(device))), device...)
	if v < 4 {
		body = append(binary.LittleEndian.AppendUint16(nil, uint16(len(device))), device...)
		for _, x := range [...]uint32{b.T0, b.T1, uint32(b.MinLat), uint32(b.MinLon), uint32(b.MaxLat), uint32(b.MaxLon)} {
			body = binary.LittleEndian.AppendUint32(body, x)
		}
	}
	if v == 2 {
		body = tr.AppendBlock(body)
	} else {
		body = packV4(t, body, tr)
	}
	dst = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(dst, uint32(len(body))), crc32.Checksum(body, castagnoli))
	return append(dst, body...)
}

// packV4 appends tr packed as segment versions 3 and 4 did: the count and
// the first key as the block holds them, then — for two keys or more — a
// Rice parameter a field (Δlat, Δlon, Δt), the cheapest, and every later
// key's zig-zagged deltas as interleaved Rice codes, least significant bit
// first, a quotient of 32 or more escaped, zero-padded to a byte.
func packV4(t testing.TB, dst []byte, tr *trajstore.Trail) []byte {
	t.Helper()
	block := tr.AppendBlock(nil)
	var vals []uint64 // the block's varints, zig-zagged as it holds them
	for b := block; len(b) > 0; {
		v, n := binary.Uvarint(b)
		vals, b = append(vals, v), b[n:]
	}
	head := 1 + 3*min(tr.Len(), 1)
	for _, v := range vals[:head] {
		dst = binary.AppendUvarint(dst, v)
	}
	deltas := vals[head:]
	if len(deltas) == 0 {
		return dst
	}
	codeLen := func(v uint64, k uint) uint {
		if v>>k >= 32 {
			return 32 + 64
		}
		return uint(v>>k) + 1 + k
	}
	var ks [3]uint
	for f := range ks {
		cost := ^uint(0)
		for k := uint(0); k <= 24; k++ {
			c := uint(0)
			for i := f; i < len(deltas); i += 3 {
				c += codeLen(deltas[i], k)
			}
			if c < cost {
				ks[f], cost = k, c
			}
		}
		dst = append(dst, byte(ks[f]))
	}
	var acc, n uint64 // the bits not yet appended, least significant first, and their count
	put := func(v uint64, bits uint64) {
		for i := uint64(0); i < bits; i++ {
			acc |= (v >> i & 1) << n
			if n++; n == 8 {
				dst, acc, n = append(dst, byte(acc)), 0, 0
			}
		}
	}
	for i, v := range deltas {
		k := ks[i%3]
		if q := v >> k; q < 32 {
			put(1<<q-1, uint64(q))
			put(0, 1)
			put(v, uint64(k))
		} else {
			put(1<<32-1, 32)
			put(v, 64)
		}
	}
	if n > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}
