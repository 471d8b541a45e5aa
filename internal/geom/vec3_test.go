package geom

import (
	"math"
	"math/rand"
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

func TestSegmentLineDist3(t *testing.T) {
	// Segment parallel to the line at distance 2.
	d := SegmentLineDist3(V3(0, 2, 0), V3(5, 2, 0), V3(0, 0, 0), V3(1, 0, 0))
	if !almostEq(d, 2, 1e-9) {
		t.Errorf("parallel = %v, want 2", d)
	}
	// Crossing (skew at 0 distance in projection).
	d = SegmentLineDist3(V3(-1, 0, 0), V3(1, 0, 0), V3(0, -1, 0), V3(0, 1, 0))
	if !almostEq(d, 0, 1e-9) {
		t.Errorf("crossing = %v, want 0", d)
	}
	// Skew lines: segment above the line by 3 in z.
	d = SegmentLineDist3(V3(-1, 0, 3), V3(1, 0, 3), V3(0, -1, 0), V3(0, 1, 0))
	if !almostEq(d, 3, 1e-9) {
		t.Errorf("skew = %v, want 3", d)
	}
}

func TestSegmentLineDist3BruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		a := V3(rng.NormFloat64()*10, rng.NormFloat64()*10, rng.NormFloat64()*10)
		b := V3(rng.NormFloat64()*10, rng.NormFloat64()*10, rng.NormFloat64()*10)
		la := V3(rng.NormFloat64()*10, rng.NormFloat64()*10, rng.NormFloat64()*10)
		lb := V3(rng.NormFloat64()*10, rng.NormFloat64()*10, rng.NormFloat64()*10)
		got := SegmentLineDist3(a, b, la, lb)
		// Brute force: sample the segment densely.
		minD := math.Inf(1)
		for k := 0; k <= 500; k++ {
			p := a.Add(b.Sub(a).Scale(float64(k) / 500))
			if d := DistToLine3(p, la, lb); d < minD {
				minD = d
			}
		}
		if got > minD+1e-6 {
			t.Fatalf("SegmentLineDist3 = %v > sampled min %v", got, minD)
		}
		if got < minD-0.15 { // sampling resolution slack
			t.Fatalf("SegmentLineDist3 = %v way below sampled min %v", got, minD)
		}
	}
}

func TestPlaneFromPoints(t *testing.T) {
	pl, ok := PlaneFromPoints(V3(0, 0, 1), V3(1, 0, 1), V3(0, 1, 1))
	if !ok {
		t.Fatal("plane construction failed")
	}
	if !almostEq(pl.Eval(V3(5, 5, 1)), 0, 1e-9) {
		t.Error("point on plane has nonzero eval")
	}
	if !almostEq(math.Abs(pl.Eval(V3(0, 0, 3))), 2, 1e-9) {
		t.Errorf("signed distance = %v, want ±2", pl.Eval(V3(0, 0, 3)))
	}
	if _, ok := PlaneFromPoints(V3(0, 0, 0), V3(1, 1, 1), V3(2, 2, 2)); ok {
		t.Error("collinear points produced a plane")
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
