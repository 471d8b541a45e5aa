package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestEmptyBox(t *testing.T) {
	b := EmptyBox()
	if !b.Empty() {
		t.Fatal("EmptyBox not empty")
	}
	if b.Contains(V(0, 0)) {
		t.Error("empty box contains origin")
	}
	b.Extend(V(1, 2))
	if b.Empty() {
		t.Fatal("box empty after Extend")
	}
	if !b.Contains(V(1, 2)) {
		t.Error("box does not contain its only point")
	}
}

func TestBoxContains(t *testing.T) {
	pts := []Vec{{1, 5}, {-2, 3}, {4, -1}}
	b := EmptyBox()
	for _, p := range pts {
		b.Extend(p)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("box %v misses member %v", b, p)
		}
	}
	if b.Min != V(-2, -1) || b.Max != V(4, 5) {
		t.Errorf("box = %v, want [(-2,-1),(4,5)]", b)
	}
	if b.Contains(V(10, 10)) {
		t.Error("box contains far point")
	}
}

func TestBoxCorners(t *testing.T) {
	b := Box{V(0, 0), V(2, 3)}
	c := b.Corners()
	want := [4]Vec{{0, 0}, {2, 0}, {2, 3}, {0, 3}}
	if c != want {
		t.Errorf("Corners = %v, want %v", c, want)
	}
}

func TestBoxIntersectsInflate(t *testing.T) {
	a := Box{V(0, 0), V(2, 2)}
	b := Box{V(3, 3), V(4, 4)}
	if a.Intersects(b) {
		t.Error("disjoint boxes intersect")
	}
	if !a.Inflate(1).Intersects(b) {
		t.Error("inflated box should intersect")
	}
	if a.Intersects(EmptyBox()) {
		t.Error("intersects empty box")
	}
}

func TestClipRayBasic(t *testing.T) {
	b := Box{V(1, 1), V(3, 2)}
	// Ray along the diagonal y = x enters at (1,1), exits at (2,2).
	t0, t1, ok := b.ClipRay(V(0, 0), V(1, 1))
	if !ok {
		t.Fatal("expected hit")
	}
	entry := V(1, 1).Scale(t0)
	exit := V(1, 1).Scale(t1)
	if !almostEq(entry.X, 1, 1e-9) || !almostEq(entry.Y, 1, 1e-9) {
		t.Errorf("entry = %v, want (1,1)", entry)
	}
	if !almostEq(exit.X, 2, 1e-9) || !almostEq(exit.Y, 2, 1e-9) {
		t.Errorf("exit = %v, want (2,2)", exit)
	}
}

func TestClipRayMiss(t *testing.T) {
	b := Box{V(1, 1), V(3, 2)}
	if _, _, ok := b.ClipRay(V(0, 0), V(0, 1)); ok { // straight up misses box at x∈[1,3]
		t.Error("vertical ray at x=0 should miss")
	}
	if _, _, ok := b.ClipRay(V(0, 0), V(1, -1)); ok { // heads away
		t.Error("downward ray should miss")
	}
	if _, _, ok := b.ClipRay(V(0, 0), V(0, 0)); ok {
		t.Error("zero direction should miss")
	}
}

func TestClipRayVerticalInside(t *testing.T) {
	b := Box{V(-1, 1), V(1, 3)}
	t0, t1, ok := b.ClipRay(V(0, 0), V(0, 1))
	if !ok {
		t.Fatal("vertical ray through box missed")
	}
	if !almostEq(t0, 1, 1e-9) || !almostEq(t1, 3, 1e-9) {
		t.Errorf("t0,t1 = %v,%v, want 1,3", t0, t1)
	}
}

func TestClipLineThroughOrigin(t *testing.T) {
	b := Box{V(1, 0.5), V(4, 3)}
	entry, exit, ok := b.ClipLineThroughOrigin(V(1, 1))
	if !ok {
		t.Fatal("missed")
	}
	if !b.Contains(entry) || !b.Contains(exit) {
		t.Errorf("clip points outside box: %v %v", entry, exit)
	}
	if exit.Norm() < entry.Norm() {
		t.Error("exit closer to origin than entry")
	}
}

// Property: for random boxes in the first quadrant and rays through a random
// interior point, the clip interval endpoints lie on the box boundary.
func TestClipRayEndpointsOnBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		minX := rng.Float64() * 100
		minY := rng.Float64() * 100
		b := Box{V(minX, minY), V(minX+rng.Float64()*100+0.1, minY+rng.Float64()*100+0.1)}
		// Direction towards a random interior point guarantees a hit.
		p := V(
			b.Min.X+rng.Float64()*(b.Max.X-b.Min.X),
			b.Min.Y+rng.Float64()*(b.Max.Y-b.Min.Y),
		)
		if p.Norm() < 1e-6 {
			continue
		}
		entry, exit, ok := b.ClipLineThroughOrigin(p)
		if !ok {
			t.Fatalf("ray through interior point %v of %v missed", p, b)
		}
		onBoundary := func(q Vec) bool {
			return almostEq(q.X, b.Min.X, 1e-6) || almostEq(q.X, b.Max.X, 1e-6) ||
				almostEq(q.Y, b.Min.Y, 1e-6) || almostEq(q.Y, b.Max.Y, 1e-6)
		}
		if !onBoundary(entry) || !onBoundary(exit) {
			// The origin may be inside the box, in which case entry is the origin.
			if !(b.Contains(V(0, 0)) && entry.Norm() < 1e-9) {
				t.Fatalf("clip endpoints not on boundary: %v %v box %v", entry, exit, b)
			}
		}
		if !b.Contains(entry) || !b.Contains(exit) {
			t.Fatalf("clip endpoints outside box: %v %v box %v", entry, exit, b)
		}
	}
}

func TestClipRayDegenerateBox(t *testing.T) {
	// Box collapsed to a point on the ray.
	b := Box{V(2, 2), V(2, 2)}
	t0, t1, ok := b.ClipRay(V(0, 0), V(1, 1))
	if !ok {
		t.Fatal("ray through point-box missed")
	}
	p0, p1 := V(1, 1).Scale(t0), V(1, 1).Scale(t1)
	if p0.Dist(V(2, 2)) > 1e-9 || p1.Dist(V(2, 2)) > 1e-9 {
		t.Errorf("clip of point box = %v %v, want (2,2)", p0, p1)
	}
	inf := math.Inf(1)
	_ = inf
}
