package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestDistToLine(t *testing.T) {
	l := Line{V(0, 0), V(10, 0)} // x axis
	cases := []struct {
		p    Vec
		want float64
	}{
		{V(5, 3), 3},
		{V(5, -3), 3},
		{V(-100, 7), 7}, // infinite line: x position irrelevant
		{V(0, 0), 0},
	}
	for _, c := range cases {
		if got := DistToLine(c.p, l); !almostEq(got, c.want, 1e-12) {
			t.Errorf("DistToLine(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestDistToLineDegenerate(t *testing.T) {
	l := Line{V(2, 2), V(2, 2)}
	if got := DistToLine(V(5, 6), l); !almostEq(got, 5, 1e-12) {
		t.Errorf("degenerate DistToLine = %v, want 5", got)
	}
}

func TestDistToSegment(t *testing.T) {
	a, b := V(0, 0), V(10, 0)
	cases := []struct {
		p    Vec
		want float64
	}{
		{V(5, 3), 3},
		{V(-3, 4), 5},  // beyond a: distance to a
		{V(13, -4), 5}, // beyond b: distance to b
		{V(10, 0), 0},
	}
	for _, c := range cases {
		if got := DistToSegment(c.p, a, b); !almostEq(got, c.want, 1e-12) {
			t.Errorf("DistToSegment(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSegmentDistAtLeastLineDist(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a := V(rng.NormFloat64()*100, rng.NormFloat64()*100)
		b := V(rng.NormFloat64()*100, rng.NormFloat64()*100)
		p := V(rng.NormFloat64()*100, rng.NormFloat64()*100)
		dl := DistToLine(p, Line{a, b})
		ds := DistToSegment(p, a, b)
		if ds < dl-1e-9 {
			t.Fatalf("segment dist %v < line dist %v for p=%v a=%v b=%v", ds, dl, p, a, b)
		}
	}
}

func TestMaxDistToLine(t *testing.T) {
	pts := []Vec{{1, 1}, {2, -5}, {3, 2}}
	d, i := MaxDistToLine(pts, Line{V(0, 0), V(10, 0)})
	if i != 1 || !almostEq(d, 5, 1e-12) {
		t.Errorf("MaxDistToLine = (%v,%d), want (5,1)", d, i)
	}
	d, i = MaxDistToLine(nil, Line{V(0, 0), V(10, 0)})
	if i != -1 || d != 0 {
		t.Errorf("empty MaxDistToLine = (%v,%d)", d, i)
	}
}

func TestMaxDistToSegment(t *testing.T) {
	pts := []Vec{{-10, 0}, {5, 1}}
	d, i := MaxDistToSegment(pts, V(0, 0), V(10, 0))
	if i != 0 || !almostEq(d, 10, 1e-12) {
		t.Errorf("MaxDistToSegment = (%v,%d), want (10,0)", d, i)
	}
}

func TestDistToLineRotationInvariant(t *testing.T) {
	// The data-centric rotation step relies on distances being invariant
	// under rotation about the origin.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		p := V(rng.NormFloat64()*50, rng.NormFloat64()*50)
		e := V(rng.NormFloat64()*50, rng.NormFloat64()*50)
		phi := rng.Float64() * 2 * math.Pi
		d1 := DistToLine(p, Line{V(0, 0), e})
		d2 := DistToLine(p.Rotate(phi), Line{V(0, 0), e.Rotate(phi)})
		if !almostEq(d1, d2, 1e-7*(1+d1)) {
			t.Fatalf("rotation changed distance: %v vs %v", d1, d2)
		}
	}
}
