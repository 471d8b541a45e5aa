package segmentlog

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// FuzzRecover feeds arbitrary bytes to Open as a segment file: recovery
// must never panic, and whatever it salvages must be stable — a second
// open of the recovered directory sees the same records and truncates
// nothing further.
func FuzzRecover(f *testing.F) {
	// Seed: a well-formed file with two records...
	dir := f.TempDir()
	l, err := openShardLog(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := l.Append("dev", genKeys(i+1, 6)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, "seg-00000001.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// ...its truncations...
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:headerSize+3])
	f.Add(valid[:headerSize])
	// ...and degenerate files.
	f.Add([]byte{})
	f.Add([]byte("BQSLOG\x01\x00"))
	f.Add([]byte("garbage that is not a log at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-00000001.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := openShardLog(dir, Options{})
		if err != nil {
			return // structurally rejected (bad magic/version) is fine
		}
		s1 := l.Stats()
		recs1, err := l.Query("dev", 0, ^uint32(0))
		if err != nil {
			t.Fatalf("Query on recovered log: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		// Recovery must be idempotent: reopening truncates nothing more.
		l2, err := openShardLog(dir, Options{})
		if err != nil {
			t.Fatalf("second Open after recovery: %v", err)
		}
		defer l2.Close()
		s2 := l2.Stats()
		if s2.Truncated != 0 {
			t.Fatalf("second open truncated %d more bytes", s2.Truncated)
		}
		if s2.Records != s1.Records {
			t.Fatalf("records changed across reopen: %d → %d", s1.Records, s2.Records)
		}
		recs2, err := l2.Query("dev", 0, ^uint32(0))
		if err != nil {
			t.Fatalf("Query after reopen: %v", err)
		}
		if len(recs1) != len(recs2) {
			t.Fatalf("query results changed across reopen: %d → %d", len(recs1), len(recs2))
		}
		// And the recovered log must accept appends.
		if err := l2.Append("post", []trajstore.GeoKey{{Lat: 1e-7, Lon: 1e-7, T: 1}}); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
	})
}

// FuzzBlockIndex feeds arbitrary bytes to the block-index parser: it
// must never panic, anything it accepts must round-trip through the
// formatter (re-rendering and re-parsing yields the identical value —
// a hostile-but-CRC-valid encoding may use non-minimal varints, so
// byte identity is not required), and every accepted entry must lie
// inside the declared segment bounds in strictly increasing order —
// the invariants that let Open trust a loaded index instead of
// scanning. (End-to-end, a corrupt index only ever degrades to a scan;
// see TestBlockIndexCorruptionFallsBack.)
func FuzzBlockIndex(f *testing.F) {
	metas := []recordMeta{
		{device: "alpha", off: headerSize + recordHeaderSize, bodyLen: 40,
			Bounds: trajstore.Bounds{T0: 10, T1: 20, MinLat: -50, MinLon: -60, MaxLat: 70, MaxLon: 80}},
		{device: "bravo", off: headerSize + 2*recordHeaderSize + 40, bodyLen: 30, Bounds: trajstore.Bounds{T0: 15, T1: 35}},
	}
	f.Add(formatBlockIndex(headerSize+2*recordHeaderSize+70, metas))
	f.Add(formatBlockIndex(headerSize, nil))
	v1 := formatBlockIndex(headerSize+recordHeaderSize+40, metas[:1])
	v1[7] = 1 // an index over a version-1 segment: rejected
	f.Add(formatBlockIndexReseal(v1[:len(v1)-4]))
	f.Add([]byte("BQSIDX\x01\x02"))
	f.Add([]byte{})
	f.Add([]byte("garbage that is not an index"))

	f.Fuzz(func(t *testing.T, data []byte) {
		segSize, metas, err := parseBlockIndex(data)
		if err != nil {
			return // structurally rejected is fine
		}
		re := formatBlockIndex(segSize, metas)
		segSize2, metas2, err := parseBlockIndex(re)
		if err != nil {
			t.Fatalf("re-rendered index rejected: %v", err)
		}
		if segSize2 != segSize || !reflect.DeepEqual(metas2, metas) {
			t.Fatalf("round trip changed index: (%d,%+v) → (%d,%+v)",
				segSize, metas, segSize2, metas2)
		}
		prevEnd := int64(headerSize)
		for i, m := range metas {
			if m.off < prevEnd+recordHeaderSize || m.off+int64(m.bodyLen) > segSize {
				t.Fatalf("entry %d outside segment bounds: %+v (segSize %d)", i, m, segSize)
			}
			if m.T0 > m.T1 {
				t.Fatalf("entry %d has inverted time bounds", i)
			}
			if m.MinLat > m.MaxLat || m.MinLon > m.MaxLon {
				t.Fatalf("entry %d has an inverted bbox", i)
			}
			prevEnd = m.off + int64(m.bodyLen)
		}
	})
}

// FuzzManifest feeds arbitrary bytes to the manifest parser: it must
// never panic, and whatever it accepts must round-trip — re-rendering a
// parsed manifest and parsing it again yields the identical value, the
// invariant Open's "manifest is the source of truth" logic rests on.
func FuzzManifest(f *testing.F) {
	f.Add(formatManifest(manifest{Gen: 1, Segs: []manifestSeg{{Name: "seg-00000001.log"}}}))
	f.Add(formatManifest(manifest{Gen: 7, Segs: []manifestSeg{
		{Name: "seg-00000009.log", Idx: true, Sum: &segSummary{
			records: 2,
			Bounds:  trajstore.Bounds{T0: 10, T1: 90, MinLat: -100, MinLon: -200, MaxLat: 300, MaxLon: 400},
		}},
		{Name: "seg-00000003.log"},
	}}))
	f.Add(formatManifest(manifest{Gen: 0}))
	f.Add([]byte("BQSMANIFEST 2\ngen 3\nseg seg-00000004.log idx sum=1,5,5\ncrc 00000000\n"))
	f.Add([]byte("BQSMANIFEST 1\ngen 1\nseg seg-00000001.log\ncrc 00000000\n"))
	f.Add([]byte("BQSMANIFEST 1\ngen 1\nseg ../escape.log\ncrc 00000000\n"))
	f.Add([]byte(""))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return // structurally rejected is fine
		}
		re := formatManifest(m)
		m2, err := parseManifest(re)
		if err != nil {
			t.Fatalf("re-rendered manifest rejected: %v\n%q", err, re)
		}
		if m2.Gen != m.Gen || len(m2.Segs) != len(m.Segs) {
			t.Fatalf("round trip changed manifest: %+v → %+v", m, m2)
		}
		for i := range m.Segs {
			if !reflect.DeepEqual(m.Segs[i], m2.Segs[i]) {
				t.Fatalf("round trip changed segment %d: %+v → %+v", i, m.Segs[i], m2.Segs[i])
			}
			// Accepted names must be directory-local canonical segment
			// names (no path traversal).
			if _, ok := parseSegName(m.Segs[i].Name); !ok {
				t.Fatalf("parser accepted non-canonical segment name %q", m.Segs[i].Name)
			}
		}
	})
}
