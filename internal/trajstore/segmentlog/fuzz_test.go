package segmentlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// FuzzRecover feeds arbitrary bytes to Open as the active segment a
// MANIFEST names: recovery must never panic, and whatever it salvages
// must be stable — a second open of the recovered directory sees the
// same records and truncates nothing further. The well-formed seed opens
// with both its records.
func FuzzRecover(f *testing.F) {
	// Seed: a well-formed version-5 file with two records...
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
	// ...the same with its second record's packed payload broken under a
	// re-sealed CRC, a version-4, a version-3 and a version-2 file...
	sealed := append([]byte(nil), valid...)
	breakPacked(f, sealed, l.segs[0].recs[1])
	f.Add(sealed)
	for _, old := range []string{filepath.Join(v4Fixture, "shard-000", "seg-00000003.log"), filepath.Join(v3Fixture, "shard-000", "seg-00000005.log"), filepath.Join(v2Fixture, "shard-000", "seg-00000006.log")} {
		b, err := os.ReadFile(old)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// ...its truncations...
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:headerSize+3])
	f.Add(valid[:headerSize])
	// ...and degenerate files.
	f.Add([]byte{})
	f.Add([]byte("BQSLOG\x01\x00"))
	f.Add([]byte("garbage that is not a log at all"))

	man := formatManifest(manifest{Gen: 1, Segs: []manifestSeg{{Name: "seg-00000001.log"}}})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := errors.Join(os.WriteFile(filepath.Join(dir, "seg-00000001.log"), data, 0o644),
			os.WriteFile(filepath.Join(dir, manifestName), man, 0o644)); err != nil {
			t.Fatal(err)
		}
		seed := bytes.Equal(data, valid)
		l, err := openShardLog(dir, Options{})
		if err != nil {
			if seed {
				t.Fatalf("the well-formed seed does not open: %v", err)
			}
			return // structurally rejected (bad magic/version) is fine
		}
		s1 := l.Stats()
		recs1, err := l.Query("dev", 0, ^uint32(0))
		if err != nil {
			t.Fatalf("Query on recovered log: %v", err)
		}
		if seed && len(recs1) != 2 {
			t.Fatalf("the well-formed seed recovers %d records, want 2", len(recs1))
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

// FuzzManifest feeds arbitrary bytes to the manifest parser: it must
// never panic, and whatever it accepts must round-trip — re-rendering a
// parsed manifest and parsing it again yields the identical value, the
// invariant Open's "manifest is the source of truth" logic rests on.
func FuzzManifest(f *testing.F) {
	f.Add(formatManifest(manifest{Gen: 1, Segs: []manifestSeg{{Name: "seg-00000001.log"}}}))
	f.Add(sealText([]byte("BQSMANIFEST 2\ngen 7\nseg seg-00000009.log idx sum=2,10,90,-100,-200,300,400\nseg seg-00000003.log\n")))
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

// refMeets is the bounds test as it stood before the lattice window: in
// degrees, on the bounds' lattice values divided out — the reference
// Window.Meets is held to.
func refMeets(b trajstore.Bounds, minX, minY, maxX, maxY float64, t0, t1 uint32) bool {
	return b.T0 <= t1 && b.T1 >= t0 &&
		float64(b.MinLon)/1e7 <= maxX && float64(b.MaxLon)/1e7 >= minX &&
		float64(b.MinLat)/1e7 <= maxY && float64(b.MaxLat)/1e7 >= minY
}

// checkWindowBlock holds the block walk to the decode-then-filter path it
// replaced, for one payload and one window: the same verdict as
// windowMatch over DeltaDecode's keys, and the same error class when the
// payload does not decode — ErrRange, what re-encoding the keys for the
// wire used to report, when a key lies off the globe. The integer bounds
// test must agree with the float one it replaced, and may never prune a
// block that matches.
func checkWindowBlock(t *testing.T, payload []byte, minX, minY, maxX, maxY float64, t0, t1 uint32) {
	t.Helper()
	win, err := trajstore.LatticeWindow(minX, minY, maxX, maxY, t0, t1)
	if err != nil {
		return // NaN or inverted: refused before any block is looked at
	}
	w := &win
	keys, derr := trajstore.DeltaDecode(payload)
	match, err := trajstore.Enters(payload, w)
	all, aerr := trajstore.Enters(payload, nil)
	if (err == nil) != (aerr == nil) || all != (aerr == nil) {
		t.Fatalf("a nil window must match exactly the blocks any window accepts: %v, %v / %v", all, aerr, err)
	}
	if derr != nil {
		for _, class := range []error{trajstore.ErrShortBuffer, trajstore.ErrRange} {
			if err == nil || errors.Is(err, class) != errors.Is(derr, class) {
				t.Fatalf("Enters = %v, DeltaDecode = %v: different error class for %x", err, derr, payload)
			}
		}
		return
	}
	if want := windowMatch(keys, minX, minY, maxX, maxY, t0, t1); err != nil || match != want {
		t.Fatalf("Enters = %v, %v; windowMatch = %v for keys %v in [%v,%v]×[%v,%v] t[%d,%d] (lattice %+v)",
			match, err, want, keys, minX, maxX, minY, maxY, t0, t1, *w)
	}
	if len(keys) == 0 {
		return
	}
	tr, err := trajstore.OpenTrail(payload)
	if err != nil {
		t.Fatalf("OpenTrail refuses a block Enters accepts: %v", err)
	}
	if got, want := w.Meets(tr.Bounds()), refMeets(tr.Bounds(), minX, minY, maxX, maxY, t0, t1); got != want || match && !got {
		t.Fatalf("Meets(%+v) = %v, float reference %v, block matches: %v (lattice %+v)", tr.Bounds(), got, want, match, *w)
	}
}

// TestWindowBlock runs the equivalence over blocks and windows chosen to
// sit on each other's edges: window bounds exactly on, and one ulp either
// side of, the degrees of a key's lattice value — where the integer
// thresholds (trajstore.LatticeWindow) must flip exactly when the float comparison does —
// plus unbounded, empty-range and off-globe cases.
func TestWindowBlock(t *testing.T) {
	enc := func(keys ...trajstore.GeoKey) []byte {
		b, err := trajstore.DeltaEncode(keys)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	blocks := [][]byte{
		enc(), enc(trajstore.GeoKey{Lat: 1, Lon: 2, T: 3}),
		enc(genKeys(3, 12)...), enc(cellKeys(2, 1, 9)...),
		enc(trajstore.GeoKey{Lat: 90, Lon: -180, T: 0}, trajstore.GeoKey{Lat: -90, Lon: 180, T: math.MaxUint32}),
		enc(trajstore.GeoKey{Lat: 12.3456789, Lon: -98.7654321, T: 100}, trajstore.GeoKey{Lat: 12.3456790, Lon: -98.7654320, T: 90}),
		{2, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 5, 2, 2, 2}, // parses; first latitude ≈ 214°
		{3, 2, 2, 5, 2, 2},                      // truncated
		{1, 2, 2, 0xff, 0xff, 0xff, 0xff, 0x7f}, // time past uint32
	}
	edges := []float64{math.Inf(-1), -180, -98.7654321, -98.76543205, -1e-7, 0, 5e-8, 1e-7, 2, 12.3456789, 12.34567895, 90, 180, 214.7483647, 214.7483648, 1e300, math.Inf(1)}
	for _, e := range edges[1 : len(edges)-1] {
		edges = append(edges, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
	}
	for _, b := range blocks {
		for _, lo := range edges {
			for _, hi := range edges {
				checkWindowBlock(t, b, lo, lo, hi, hi, 0, math.MaxUint32)
				checkWindowBlock(t, b, lo, -90, hi, 90, 90, 100)
				checkWindowBlock(t, b, -180, lo, 180, hi, 101, 101)
			}
		}
	}
	// The thresholds against their definition, around random lattice
	// values: the largest lattice value with degrees ≤ x, the smallest ≥ x.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		v := rng.Int63n(1<<32) - 1<<31
		x := float64(v) / 1e7
		switch i % 3 {
		case 1:
			x = math.Nextafter(x, math.Inf(1))
		case 2:
			x = math.Nextafter(x, math.Inf(-1))
		}
		w, err := trajstore.LatticeWindow(x, x, x, x, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if hi, lo := w.MaxLon, w.MinLat; !(float64(hi)/1e7 <= x) || float64(hi+1)/1e7 <= x || !(float64(lo)/1e7 >= x) || float64(lo-1)/1e7 >= x {
			t.Fatalf("LatticeWindow(%v): max %d, min %d: %v ≤ x < %v, %v < x ≤ %v do not hold", x, hi, lo,
				float64(hi)/1e7, float64(hi+1)/1e7, float64(lo-1)/1e7, float64(lo)/1e7)
		}
	}
}

// FuzzWindowBlock: on arbitrary bytes and arbitrary windows the block
// walk gives the verdict — or the error class — of decoding the block
// and filtering its keys, and refuses blocks with keys off the globe.
func FuzzWindowBlock(f *testing.F) {
	for i, keys := range [][]trajstore.GeoKey{genKeys(1, 8), cellKeys(1, 2, 6), {{Lat: 89.9999999, Lon: 179.9999999, T: 7}, {Lat: -90, Lon: -180, T: 3}}} {
		b, err := trajstore.DeltaEncode(keys)
		if err != nil {
			f.Fatal(err)
		}
		k := keys[len(keys)/2]
		f.Add(b, k.Lon, k.Lat, k.Lon, k.Lat, k.T, k.T)
		f.Add(b, -180.0, -90.0, 180.0, 90.0, uint32(0), uint32(math.MaxUint32))
		f.Add(b[:len(b)-1-i], k.Lon-1e-7, k.Lat, k.Lon+5e-8, k.Lat+1, uint32(0), k.T-1)
	}
	f.Add([]byte{2, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 5, 2, 2, 2}, -1.0, -1.0, 300.0, 300.0, uint32(0), uint32(9))
	f.Fuzz(func(t *testing.T, payload []byte, minX, minY, maxX, maxY float64, t0, t1 uint32) {
		if n, _ := binary.Uvarint(payload); n > 1<<16 {
			return // DeltaDecode would allocate for the count before failing
		}
		checkWindowBlock(t, payload, minX, minY, maxX, maxY, t0, t1)
	})
}
