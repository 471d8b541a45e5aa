package geom

import (
	"math/rand"
	"testing"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []Vec{{0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1}, {0.5, 0.5}}
	h := ConvexHull(pts)
	if len(h) != 4 {
		t.Fatalf("hull size = %d, want 4: %v", len(h), h)
	}
	for _, p := range pts {
		if !InConvexPolygon(p, h, 1e-9) {
			t.Errorf("hull misses %v", p)
		}
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); len(h) != 0 {
		t.Errorf("hull of nothing = %v", h)
	}
	if h := ConvexHull([]Vec{{1, 1}}); len(h) != 1 {
		t.Errorf("hull of one point = %v", h)
	}
	// All identical points.
	h := ConvexHull([]Vec{{1, 1}, {1, 1}, {1, 1}})
	if len(h) != 1 {
		t.Errorf("hull of identical points = %v", h)
	}
	// Collinear points: hull is the extreme pair.
	h = ConvexHull([]Vec{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(h) != 2 {
		t.Errorf("hull of collinear points = %v", h)
	}
}

func TestConvexHullIsConvexAndContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(50)
		pts := make([]Vec, n)
		for i := range pts {
			pts[i] = V(rng.NormFloat64()*100, rng.NormFloat64()*100)
		}
		h := ConvexHull(pts)
		// CCW convexity: every turn is a left turn.
		for i := 0; i < len(h) && len(h) >= 3; i++ {
			a, b, c := h[i], h[(i+1)%len(h)], h[(i+2)%len(h)]
			if b.Sub(a).Cross(c.Sub(b)) < -1e-9 {
				t.Fatalf("hull not convex at %d: %v %v %v", i, a, b, c)
			}
		}
		for _, p := range pts {
			if !InConvexPolygon(p, h, 1e-6) {
				t.Fatalf("hull misses input point %v (hull %v)", p, h)
			}
		}
	}
}

func TestInConvexPolygonEdgeCases(t *testing.T) {
	if InConvexPolygon(V(0, 0), nil, 1e-9) {
		t.Error("empty polygon contains a point")
	}
	if !InConvexPolygon(V(1, 1), []Vec{{1, 1}}, 1e-9) {
		t.Error("single-vertex polygon should contain itself")
	}
	seg := []Vec{{0, 0}, {2, 0}}
	if !InConvexPolygon(V(1, 0), seg, 1e-9) {
		t.Error("segment polygon should contain midpoint")
	}
	if InConvexPolygon(V(1, 1), seg, 1e-9) {
		t.Error("segment polygon should not contain off-segment point")
	}
}
