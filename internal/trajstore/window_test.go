package trajstore

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
)

func pt(x, y, t float64) core.Point { return core.Point{X: x, Y: y, T: t} }

// TestStoreQueryWindow: the combined spatio-temporal query equals
// Query ∩ QueryTime, segment by segment.
func TestStoreQueryWindow(t *testing.T) {
	st, err := NewStore(Config{})
	if err != nil {
		t.Fatal(err)
	}
	st.Insert(pt(0, 0, 10), pt(50, 40, 20))
	st.Insert(pt(500, 500, 100), pt(550, 540, 110))
	st.Insert(pt(10, 20, 900), pt(60, 70, 950))

	ids := func(segs []Segment) []uint64 {
		out := make([]uint64, 0, len(segs))
		for _, s := range segs {
			out = append(out, s.ID)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	intersect := func(minX, minY, maxX, maxY, t0, t1 float64) []uint64 {
		inTime := make(map[uint64]bool)
		for _, s := range st.QueryTime(t0, t1) {
			inTime[s.ID] = true
		}
		var out []uint64
		for _, s := range st.Query(minX, minY, maxX, maxY) {
			if inTime[s.ID] {
				out = append(out, s.ID)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	cases := [][6]float64{
		{-10, -10, 100, 100, 0, 1000},   // segments 1 and 3 by space
		{-10, -10, 100, 100, 0, 50},     // segment 1 only
		{-10, -10, 1000, 1000, 0, 1000}, // everything
		{490, 490, 560, 560, 0, 50},     // right box, wrong time
		{2000, 2000, 2100, 2100, 0, 1000},
	}
	for _, c := range cases {
		got := ids(st.QueryWindow(c[0], c[1], c[2], c[3], c[4], c[5]))
		want := intersect(c[0], c[1], c[2], c[3], c[4], c[5])
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("QueryWindow%v = %v, want %v", c, got, want)
		}
	}
}

// TestQueryLargeWindowComplete is the regression for the grid-index
// span clamp: segments further apart than the write-path clamp span
// (1024 cells) must all be visible to one whole-extent query.
func TestQueryLargeWindowComplete(t *testing.T) {
	st, err := NewStore(Config{}) // 100 m cells
	if err != nil {
		t.Fatal(err)
	}
	// Three clusters ~150 km apart: over 1500 cells between them.
	st.Insert(pt(0, 0, 1), pt(10, 10, 2))
	st.Insert(pt(150_000, 0, 3), pt(150_010, 10, 4))
	st.Insert(pt(-150_000, -150_000, 5), pt(-149_990, -149_990, 6))
	if got := len(st.Query(-1e6, -1e6, 1e6, 1e6)); got != 3 {
		t.Fatalf("whole-extent Query returned %d of 3 segments", got)
	}
	if got := len(st.QueryWindow(-1e6, -1e6, 1e6, 1e6, 0, 100)); got != 3 {
		t.Fatalf("whole-extent QueryWindow returned %d of 3 segments", got)
	}
	if got := len(st.Query(149_000, -100, 151_000, 100)); got != 1 {
		t.Fatalf("cluster-2 window returned %d of 1 segments", got)
	}
	// A box whose cell coordinates overflow int32 must saturate, not
	// collapse both corners onto one sentinel cell (the float→int32
	// conversion is implementation-defined out of range).
	if got := len(st.Query(-1e15, -1e15, 1e15, 1e15)); got != 3 {
		t.Fatalf("overflowing window returned %d of 3 segments", got)
	}
	if got := len(st.QueryWindow(-1e15, -1e15, 1e15, 1e15, 0, 100)); got != 3 {
		t.Fatalf("overflowing QueryWindow returned %d of 3 segments", got)
	}
}

// TestQueryWindowPersist: a bare persister has nothing durable to
// query — the append-only backend answers every window and device read
// with no blocks and no error, which the engine reads as "tails only".
func TestQueryWindowPersist(t *testing.T) {
	for _, b := range []Backend{AppendOnly(nil), AppendOnly(&recPersister{})} {
		visit := func(blk Block) error {
			t.Errorf("append-only backend served a block of %s", blk.Device)
			return nil
		}
		if err := errors.Join(b.WindowBlocks(0, 0, 1, 1, 0, 1, visit), b.DeviceBlocks("d", 0, 1, visit)); err != nil {
			t.Fatalf("append-only read: %v", err)
		}
	}
}

// TestLatticeWindowRefusesBadBounds: the one rule on a caller's window —
// no NaN bound, nothing inverted — is LatticeWindow's, so the log and the
// engine's tails cannot disagree on it. A degenerate (point, instant)
// window is a window.
func TestLatticeWindowRefusesBadBounds(t *testing.T) {
	nan := math.NaN()
	for _, c := range [][4]float64{{nan, 0, 1, 1}, {0, nan, 1, 1}, {0, 0, nan, 1}, {0, 0, 1, nan}, {2, 0, 1, 1}, {0, 2, 1, 1}} {
		if _, err := LatticeWindow(c[0], c[1], c[2], c[3], 0, 1); err == nil {
			t.Errorf("LatticeWindow%v accepted", c)
		}
	}
	if _, err := LatticeWindow(0, 0, 1, 1, 2, 1); err == nil {
		t.Error("inverted time range accepted")
	}
	if w, err := LatticeWindow(1, 2, 1, 2, 3, 3); err != nil || w != (Window{2e7, 1e7, 2e7, 1e7, 3, 3}) {
		t.Errorf("point window = %+v, %v", w, err)
	}
}

// TestBlockContains: a block contains another when it is the same device's
// and the other's keys are a contiguous run of its own — the rule by which
// a read that served a log record drops the trail that record absorbed.
func TestBlockContains(t *testing.T) {
	keys := make([]GeoKey, 12)
	for i := range keys {
		keys[i] = GeoKey{Lat: float64(i%3) * 0.01, Lon: float64(i) * 0.02, T: uint32(100 + 10*i)}
	}
	block := func(device string, ks []GeoKey) Block {
		var tr Trail
		if err := tr.Add(ks...); err != nil {
			t.Fatal(err)
		}
		b := tr.Bounds()
		return Block{Device: device, T0: b.T0, T1: b.T1, Payload: tr.AppendBlock(nil)}
	}
	whole := block("a", keys)
	for lo := 0; lo < len(keys); lo++ {
		for hi := lo + 1; hi <= len(keys); hi++ {
			run := block("a", keys[lo:hi])
			if !whole.Contains(run) {
				t.Fatalf("keys[%d:%d] not found in the whole", lo, hi)
			}
			if run.Contains(whole) != (hi-lo == len(keys)) {
				t.Fatalf("keys[%d:%d] contains the whole", lo, hi)
			}
		}
	}
	gap := block("a", []GeoKey{keys[2], keys[4]})
	other := block("b", keys[2:5])
	moved := keys[3]
	moved.Lat += 1e-7
	near := block("a", []GeoKey{keys[2], moved, keys[4]})
	for name, b := range map[string]Block{"a run with a key missing": gap, "another device's run": other, "a run one lattice step off": near,
		"an unparseable block": {Device: "a", T0: 100, T1: 110, Payload: []byte{2, 1}}, "an empty block": block("a", nil)} {
		if whole.Contains(b) {
			t.Errorf("the whole contains %s", name)
		}
	}
	if (Block{Device: "a", T0: 0, T1: math.MaxUint32, Payload: []byte{9}}).Contains(whole) {
		t.Error("an unparseable block contains something")
	}
}
