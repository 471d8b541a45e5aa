package trajstore

import (
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
// query — the append-only backend answers every window with no records
// and no error, which the engine reads as "live results only".
func TestQueryWindowPersist(t *testing.T) {
	for _, b := range []Backend{AppendOnly(nil), AppendOnly(&recPersister{})} {
		if recs, err := b.QueryWindow(0, 0, 1, 1, 0, 1); len(recs) != 0 || err != nil {
			t.Fatalf("append-only QueryWindow: recs=%v err=%v", recs, err)
		}
	}
}
