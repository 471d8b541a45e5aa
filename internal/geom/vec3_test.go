package geom

import (
	"math"
	"testing"
)

func TestVec3BasicOps(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(4, -5, 6)
	if got := a.Add(b); got != V3(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V3(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 1*4-2*5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	c := a.Cross(b)
	if !almostEq(c.Dot(a), 0, 1e-12) || !almostEq(c.Dot(b), 0, 1e-12) {
		t.Errorf("Cross not orthogonal: %v", c)
	}
	if got := V3(3, 4, 0).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := a.XY(); got != V(1, 2) {
		t.Errorf("XY = %v", got)
	}
}

func TestVec3Unit(t *testing.T) {
	if n := V3(1, 2, 3).Unit().Norm(); !almostEq(n, 1, 1e-12) {
		t.Errorf("unit norm = %v", n)
	}
	if got := V3(0, 0, 0).Unit(); got != V3(0, 0, 0) {
		t.Errorf("unit of zero = %v", got)
	}
}

func TestDistToLine3(t *testing.T) {
	// Line along z axis: distance is the XY norm.
	a, b := V3(0, 0, 0), V3(0, 0, 10)
	if got := DistToLine3(V3(3, 4, 7), a, b); !almostEq(got, 5, 1e-12) {
		t.Errorf("DistToLine3 = %v, want 5", got)
	}
	// Degenerate.
	if got := DistToLine3(V3(3, 4, 0), a, a); !almostEq(got, 5, 1e-12) {
		t.Errorf("degenerate DistToLine3 = %v, want 5", got)
	}
}

func TestDistToSegment3(t *testing.T) {
	a, b := V3(0, 0, 0), V3(10, 0, 0)
	if got := DistToSegment3(V3(5, 3, 4), a, b); !almostEq(got, 5, 1e-12) {
		t.Errorf("mid = %v, want 5", got)
	}
	if got := DistToSegment3(V3(-3, 0, 4), a, b); !almostEq(got, 5, 1e-12) {
		t.Errorf("before a = %v, want 5", got)
	}
	if got := DistToSegment3(V3(13, 4, 0), a, b); !almostEq(got, 5, 1e-12) {
		t.Errorf("after b = %v, want 5", got)
	}
}

func TestBox3Basics(t *testing.T) {
	b := EmptyBox3()
	if !b.Empty() {
		t.Fatal("EmptyBox3 not empty")
	}
	b.Extend(V3(1, 2, 3))
	b.Extend(V3(-1, 0, 5))
	if b.Empty() {
		t.Fatal("box empty after extends")
	}
	if !b.Contains(V3(0, 1, 4)) {
		t.Error("box misses interior point")
	}
	if b.Contains(V3(0, 1, 9)) {
		t.Error("box contains outside point")
	}
	c := b.Corners()
	for _, p := range c {
		if !b.Contains(p) {
			t.Errorf("box misses own corner %v", p)
		}
	}
}

func TestBox3Faces(t *testing.T) {
	b := Box3{V3(0, 0, 0), V3(1, 2, 3)}
	faces := b.Faces()
	if len(faces) != 6 {
		t.Fatalf("faces = %d", len(faces))
	}
	for _, f := range faces {
		if len(f) != 4 {
			t.Fatalf("face with %d vertices", len(f))
		}
		for _, p := range f {
			if !b.Contains(p) {
				t.Errorf("face vertex %v outside box", p)
			}
		}
	}
}

func TestClipPolygonPlane3(t *testing.T) {
	// Unit square in z=0 plane clipped by x ≤ 0.5.
	poly := []Vec3{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}}
	pl := Plane{N: V3(1, 0, 0), D: 0.5}
	got := ClipPolygonPlane3(poly, pl)
	if len(got) != 4 {
		t.Fatalf("clip result = %v", got)
	}
	for _, p := range got {
		if p.X > 0.5+1e-9 {
			t.Errorf("kept point %v beyond plane", p)
		}
	}
	// Clip everything away.
	pl = Plane{N: V3(1, 0, 0), D: -1}
	if got := ClipPolygonPlane3(poly, pl); len(got) != 0 {
		t.Errorf("full clip left %v", got)
	}
}

func TestVec3IsFinite(t *testing.T) {
	if !V3(1, 2, 3).IsFinite() {
		t.Error("finite reported non-finite")
	}
	if V3(math.NaN(), 0, 0).IsFinite() || V3(0, math.Inf(1), 0).IsFinite() {
		t.Error("non-finite reported finite")
	}
}
