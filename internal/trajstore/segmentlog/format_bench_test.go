package segmentlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/synth"
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

// gridTrail is the first n key points the registered "fbqs" keeps (10 m) of
// a synth.Walk, as a session persists them: on the grid it snaps to, so
// their record carries a divisor.
func gridTrail(b *testing.B, n int) *trajstore.Trail {
	b.Helper()
	cfg := synth.DefaultWalkConfig(1)
	cfg.N = 60 * n
	comp, err := stream.New("fbqs", 10)
	if err != nil {
		b.Fatal(err)
	}
	var tr trajstore.Trail
	for _, p := range synth.Walk(cfg).Points() {
		if kp, ok := comp.Push(p); ok && tr.Len() < n {
			if err := tr.Add(trajstore.PlaneKey(kp)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if tr.Len() < n {
		b.Fatalf("%d keys of a %d-fix walk, want %d", tr.Len(), cfg.N, n)
	}
	return &tr
}

// benchSizes are the record sizes the format benchmarks run on: an engine
// chunk, a device's day once compacted and a compacted device.
var benchSizes = []int{16, 500, 10_000}

// benchRows are the records the format benchmarks run on: benchTrail's walk
// at each of benchSizes, and the grid row, gridTrail's.
func benchRows(b *testing.B, run func(b *testing.B, n int, tr *trajstore.Trail)) {
	for _, grid := range []bool{false, true} {
		for _, n := range benchSizes {
			name, trail := fmt.Sprintf("keys=%d", n), benchTrail
			if grid {
				name, trail = "grid/"+name, gridTrail
			}
			b.Run(name, func(b *testing.B) { run(b, n, trail(b, n)) })
		}
	}
}

// BenchmarkFrameRecord frames one record — header, packed payload, CRC —
// as an append or a compaction writes it, in ns per key.
func BenchmarkFrameRecord(b *testing.B) {
	benchRows(b, func(b *testing.B, n int, tr *trajstore.Trail) {
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

// BenchmarkReadBlock reads one record back as a query does — pread, CRC,
// unpack into a delta-varint block, copy out — in ns per key.
func BenchmarkReadBlock(b *testing.B) {
	benchRows(b, func(b *testing.B, n int, tr *trajstore.Trail) {
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
