package trajstore

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
)

func TestDeltaCodecRoundTripAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]GeoKey, 200)
	lat, lon := -27.5, 153.0
	tt := uint32(1700000000)
	for i := range keys {
		lat += rng.NormFloat64() * 0.001
		lon += rng.NormFloat64() * 0.001
		tt += uint32(60 + rng.Intn(600))
		keys[i] = GeoKey{Lat: lat, Lon: lon, T: tt}
	}
	enc, err := DeltaEncode(keys)
	if err != nil {
		t.Fatal(err)
	}
	fixed := 4 + len(keys)*WireSize // a count, then the paper's 12-byte samples
	if len(enc) >= fixed {
		t.Errorf("delta %d B not smaller than fixed %d B", len(enc), fixed)
	}
	dec, err := DeltaDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(keys) {
		t.Fatalf("decoded %d keys", len(dec))
	}
	for i := range keys {
		if math.Abs(dec[i].Lat-keys[i].Lat) > 2e-7 || math.Abs(dec[i].Lon-keys[i].Lon) > 2e-7 || dec[i].T != keys[i].T {
			t.Fatalf("key %d: %v vs %v", i, dec[i], keys[i])
		}
	}
	t.Logf("fixed=%dB delta=%dB (%.0f%%)", fixed, len(enc), 100*float64(len(enc))/float64(fixed))
}

func TestDeltaDecodeErrors(t *testing.T) {
	if _, err := DeltaDecode(nil); err == nil {
		t.Error("nil accepted")
	}
	enc, _ := DeltaEncode([]GeoKey{{Lat: 1, Lon: 2, T: 3}, {Lat: 1.1, Lon: 2.1, T: 4}})
	if _, err := DeltaDecode(enc[:len(enc)-1]); err == nil {
		t.Error("truncated accepted")
	}
	if _, err := DeltaEncode([]GeoKey{{Lat: 200}}); err == nil {
		t.Error("range accepted")
	}
}

func mustStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	st, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreInsertAndMerge(t *testing.T) {
	st := mustStore(t, Config{MergeTolerance: 10})
	a := core.Point{X: 0, Y: 0, T: 0}
	b := core.Point{X: 1000, Y: 0, T: 600}
	if st.Insert(a, b) {
		t.Error("first insert reported a merge")
	}
	// A near-duplicate segment (shifted 3 m) must merge.
	a2 := core.Point{X: 2, Y: 3, T: 86400}
	b2 := core.Point{X: 1003, Y: 2, T: 87000}
	if !st.Insert(a2, b2) {
		t.Error("duplicate did not merge")
	}
	if st.Len() != 1 {
		t.Errorf("store has %d segments, want 1", st.Len())
	}
	segs := st.Segments()
	if segs[0].Weight != 2 {
		t.Errorf("weight = %d, want 2", segs[0].Weight)
	}
	if segs[0].FirstT != 0 || segs[0].LastT != 87000 {
		t.Errorf("time window = [%v, %v]", segs[0].FirstT, segs[0].LastT)
	}
	// A far-away segment must not merge.
	if st.Insert(core.Point{X: 0, Y: 500, T: 1}, core.Point{X: 1000, Y: 500, T: 2}) {
		t.Error("distant segment merged")
	}
	if st.Len() != 2 {
		t.Errorf("store has %d segments, want 2", st.Len())
	}
	ins, merged := st.Stats()
	if ins != 3 || merged != 1 {
		t.Errorf("stats = (%d,%d)", ins, merged)
	}
}

func TestStoreMergeRespectsTolerance(t *testing.T) {
	st := mustStore(t, Config{MergeTolerance: 5})
	st.Insert(core.Point{X: 0, Y: 0, T: 0}, core.Point{X: 1000, Y: 0, T: 1})
	// Shifted by 8 m > 5 m: no merge.
	if st.Insert(core.Point{X: 0, Y: 8, T: 2}, core.Point{X: 1000, Y: 8, T: 3}) {
		t.Error("segment beyond tolerance merged")
	}
	// Same line but much shorter: the stored segment's endpoints are far
	// from the short one, so the symmetric test must reject it.
	if st.Insert(core.Point{X: 400, Y: 0, T: 4}, core.Point{X: 600, Y: 0, T: 5}) {
		t.Error("sub-segment merged despite symmetric test")
	}
}

func TestStoreMergeDisabled(t *testing.T) {
	st := mustStore(t, Config{})
	st.Insert(core.Point{X: 0, Y: 0, T: 0}, core.Point{X: 100, Y: 0, T: 1})
	if st.Insert(core.Point{X: 0, Y: 0, T: 2}, core.Point{X: 100, Y: 0, T: 3}) {
		t.Error("merge happened with merging disabled")
	}
	if st.Len() != 2 {
		t.Errorf("len = %d", st.Len())
	}
}

func TestStoreQuery(t *testing.T) {
	st := mustStore(t, Config{MergeTolerance: 1})
	st.Insert(core.Point{X: 0, Y: 0, T: 0}, core.Point{X: 100, Y: 0, T: 1})
	st.Insert(core.Point{X: 5000, Y: 5000, T: 2}, core.Point{X: 5100, Y: 5000, T: 3})
	got := st.Query(-10, -10, 200, 10)
	if len(got) != 1 {
		t.Fatalf("query returned %d segments", len(got))
	}
	if got[0].A.X != 0 {
		t.Errorf("wrong segment: %+v", got[0])
	}
	if got := st.Query(-10, -10, 6000, 6000); len(got) != 2 {
		t.Errorf("wide query returned %d", len(got))
	}
	if got := st.QueryTime(2, 2.5); len(got) != 1 {
		t.Errorf("time query returned %d", len(got))
	}
}

func TestStoreInsertTrajectory(t *testing.T) {
	st := mustStore(t, Config{MergeTolerance: 10})
	keys := []core.Point{
		{X: 0, Y: 0, T: 0}, {X: 1000, Y: 0, T: 60}, {X: 1000, Y: 800, T: 120},
	}
	if m := st.InsertTrajectory(keys); m != 0 {
		t.Errorf("first trajectory merged %d", m)
	}
	if st.Len() != 2 {
		t.Errorf("len = %d", st.Len())
	}
	// The same route on another day merges entirely.
	keys2 := []core.Point{
		{X: 1, Y: 2, T: 86400}, {X: 1002, Y: 1, T: 86460}, {X: 999, Y: 801, T: 86520},
	}
	if m := st.InsertTrajectory(keys2); m != 2 {
		t.Errorf("repeat trajectory merged %d of 2", m)
	}
	if st.Len() != 2 {
		t.Errorf("len after merge = %d", st.Len())
	}
}

func TestStoreAge(t *testing.T) {
	st := mustStore(t, Config{MergeTolerance: 0})
	// A gently wiggling chain compressed at 2 m: ageing at 50 m should
	// collapse interior points.
	var keys []core.Point
	for i := 0; i <= 20; i++ {
		y := 0.0
		if i%2 == 1 {
			y = 10
		}
		keys = append(keys, core.Point{X: float64(i) * 500, Y: y, T: float64(i * 60)})
	}
	st.InsertTrajectory(keys)
	before := st.Len()
	dropped, err := st.Age(math.Inf(1), 50)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Error("ageing dropped nothing")
	}
	if st.Len() >= before {
		t.Errorf("segments %d → %d; expected shrink", before, st.Len())
	}
	// The aged chain still spans the same endpoints.
	segs := st.Segments()
	var minX, maxX float64 = math.Inf(1), math.Inf(-1)
	for _, s := range segs {
		minX = math.Min(minX, math.Min(s.A.X, s.B.X))
		maxX = math.Max(maxX, math.Max(s.A.X, s.B.X))
	}
	if minX != 0 || maxX != 10000 {
		t.Errorf("aged chain spans [%v, %v]", minX, maxX)
	}
}

func TestStoreAgeRespectsCutoff(t *testing.T) {
	st := mustStore(t, Config{})
	old := []core.Point{{X: 0, Y: 0, T: 0}, {X: 100, Y: 5, T: 60}, {X: 200, Y: 0, T: 120}}
	recent := []core.Point{{X: 0, Y: 1000, T: 9000}, {X: 100, Y: 1005, T: 9060}, {X: 200, Y: 1000, T: 9120}}
	st.InsertTrajectory(old)
	st.InsertTrajectory(recent)
	if _, err := st.Age(1000, 50); err != nil {
		t.Fatal(err)
	}
	// Recent segments untouched: both remain.
	n := 0
	for _, s := range st.Segments() {
		if s.A.Y >= 999 {
			n++
		}
	}
	if n != 2 {
		t.Errorf("recent segments = %d, want 2", n)
	}
}

func TestStoreAgeValidation(t *testing.T) {
	st := mustStore(t, Config{})
	if _, err := st.Age(0, 0); err == nil {
		t.Error("zero tolerance accepted")
	}
}

func TestStoreStorageBytes(t *testing.T) {
	st := mustStore(t, Config{})
	keys := []core.Point{{X: 0, Y: 0, T: 0}, {X: 100, Y: 0, T: 1}, {X: 200, Y: 0, T: 2}}
	st.InsertTrajectory(keys)
	// 3 distinct points × 12 bytes.
	if got := st.StorageBytes(); got != 3*WireSize {
		t.Errorf("StorageBytes = %d, want %d", got, 3*WireSize)
	}
}

func TestStoreConfigValidation(t *testing.T) {
	if _, err := NewStore(Config{MergeTolerance: -1}); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := NewStore(Config{MergeTolerance: math.NaN()}); err == nil {
		t.Error("NaN tolerance accepted")
	}
}

func TestGridIndexRemove(t *testing.T) {
	g := newGridIndex(100)
	box := segBox(core.Point{X: 0, Y: 0}, core.Point{X: 250, Y: 0})
	g.insert(7, box)
	if got := g.query(box); len(got) != 1 || got[0] != 7 {
		t.Fatalf("query = %v", got)
	}
	g.remove(7, box)
	if got := g.query(box); len(got) != 0 {
		t.Errorf("after remove: %v", got)
	}
}

func TestPointKeysToGeo(t *testing.T) {
	keys := []core.Point{{X: 111320, Y: 110574, T: 100}, {X: 0, Y: 0, T: -5}}
	gk := PointKeysToGeo(keys, 110574, 111320)
	if math.Abs(gk[0].Lat-1) > 1e-9 || math.Abs(gk[0].Lon-1) > 1e-9 || gk[0].T != 100 {
		t.Errorf("gk[0] = %+v", gk[0])
	}
	if gk[1].T != 0 {
		t.Errorf("negative time not clamped: %+v", gk[1])
	}
	// The wire time clamp: a float64 outside uint32 converts to an
	// implementation-defined value in Go, so the codec clamps it itself.
	for _, c := range []struct {
		t    float64
		want uint32
	}{
		{-1, 0}, {0, 0}, {12.9, 12}, {math.MaxUint32, math.MaxUint32}, {5e9, math.MaxUint32},
		{math.Inf(1), math.MaxUint32}, {math.Inf(-1), 0}, {math.NaN(), 0},
	} {
		if got := WireSeconds(c.t); got != c.want {
			t.Errorf("WireSeconds(%v) = %d, want %d", c.t, got, c.want)
		}
		if got := PointKeysToGeo([]core.Point{{T: c.t}}, 1, 1)[0].T; got != c.want {
			t.Errorf("PointKeysToGeo T=%v → %d, want %d", c.t, got, c.want)
		}
	}
}

// BenchmarkTrailAdd prices what a session pays per emitted key point:
// quantize, append three varints, widen the bounds, in a pool's pages as
// a session's trail. One op is one key; the trail is chunked at the
// engine's default 8192 and restarts in its first page, the others back
// in the pool, so the steady state maps and allocates nothing.
func BenchmarkTrailAdd(b *testing.B) {
	keys := make([]GeoKey, 1024)
	for i := range keys { // ≈ 100 m zig-zag steps, 10 s apart: 6 B a key
		keys[i] = GeoKey{Lat: -37.8 + float64(i%2)*4e-4, Lon: 144.9 + float64(i)*1e-3, T: uint32(1700000000 + 10*i)}
	}
	var pool PagePool
	tr := pool.NewTrail()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Len() >= 8192 {
			tr.Restart()
		}
		if err := tr.Add(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Size())/float64(tr.Len()), "B/key")
	tr.Release()
	pool.Unmap()
}
