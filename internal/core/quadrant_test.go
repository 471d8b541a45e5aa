package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/geom"
)

// boundsAt evaluates one quadrant as quadFrame.bounds does its four, with
// |le| and its inverse taken once.
func (q *quadrant) boundsAt(le geom.Vec, metric Metric) (dlb, dub float64) {
	norm := math.Hypot(le.X, le.Y)
	return q.bounds(le, norm, 1/norm, metric)
}

func TestQuadrantOf(t *testing.T) {
	cases := []struct {
		v    geom.Vec
		want int
	}{
		{geom.V(1, 1), 0},
		{geom.V(-1, 1), 1},
		{geom.V(-1, -1), 2},
		{geom.V(1, -1), 3},
		{geom.V(0, 0), 0},
		{geom.V(0, 1), 0},
		{geom.V(-1, 0), 1},
		{geom.V(0, -1), 3},
		{geom.V(1, 0), 0},
	}
	for _, c := range cases {
		if got := quadrantOf(c.v); got != c.want {
			t.Errorf("quadrantOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestQuadrantInsertMaintainsExtremes(t *testing.T) {
	var q quadrant
	q.reset(0)
	pts := []geom.Vec{geom.V(4, 1), geom.V(1, 4), geom.V(3, 3), geom.V(2, 1)}
	for _, p := range pts {
		q.insert(p)
	}
	if q.n != 4 {
		t.Fatalf("n = %d", q.n)
	}
	if q.pMin != geom.V(4, 1) {
		t.Errorf("pMin = %v, want (4,1)", q.pMin)
	}
	if q.pMax != geom.V(1, 4) {
		t.Errorf("pMax = %v, want (1,4)", q.pMax)
	}
	if !q.box.Contains(geom.V(2, 2)) {
		t.Error("box misses interior point")
	}
}

func TestNearFarCorners(t *testing.T) {
	mk := func(idx int, pts ...geom.Vec) quadrant {
		var q quadrant
		q.reset(idx)
		for _, p := range pts {
			q.insert(p)
		}
		return q
	}
	q0 := mk(0, geom.V(1, 2), geom.V(3, 5))
	cn, cf := q0.nearFarCorners()
	if cn != geom.V(1, 2) || cf != geom.V(3, 5) {
		t.Errorf("Q0 near/far = %v %v", cn, cf)
	}
	q1 := mk(1, geom.V(-1, 2), geom.V(-3, 5))
	cn, cf = q1.nearFarCorners()
	if cn != geom.V(-1, 2) || cf != geom.V(-3, 5) {
		t.Errorf("Q1 near/far = %v %v", cn, cf)
	}
	q2 := mk(2, geom.V(-1, -2), geom.V(-3, -5))
	cn, cf = q2.nearFarCorners()
	if cn != geom.V(-1, -2) || cf != geom.V(-3, -5) {
		t.Errorf("Q2 near/far = %v %v", cn, cf)
	}
	q3 := mk(3, geom.V(1, -2), geom.V(3, -5))
	cn, cf = q3.nearFarCorners()
	if cn != geom.V(1, -2) || cf != geom.V(3, -5) {
		t.Errorf("Q3 near/far = %v %v", cn, cf)
	}
}

func TestLineInQuadrant(t *testing.T) {
	var q0, q1 quadrant
	q0.reset(0)
	q1.reset(1)
	// 45° line: in Q0 (and Q2), not in Q1 (or Q3).
	if !q0.lineInQuadrant(geom.V(1, 1)) {
		t.Error("45° line should be in Q0")
	}
	if q1.lineInQuadrant(geom.V(1, 1)) {
		t.Error("45° line should not be in Q1")
	}
	// 135° line: in Q1/Q3 only.
	if q0.lineInQuadrant(geom.V(-1, 1)) {
		t.Error("135° line should not be in Q0")
	}
	if !q1.lineInQuadrant(geom.V(-1, 1)) {
		t.Error("135° line should be in Q1")
	}
	// Opposite representative (225° ≡ 45° mod π).
	if !q0.lineInQuadrant(geom.V(-1, -1)) {
		t.Error("225° representative should be in Q0")
	}
	// Boundary: 0° in Q0/Q2; 90° in Q1/Q3 (half-open ranges).
	if !q0.lineInQuadrant(geom.V(1, 0)) {
		t.Error("0° should be in Q0")
	}
	if q0.lineInQuadrant(geom.V(0, 1)) {
		t.Error("90° should not be in Q0")
	}
	if !q1.lineInQuadrant(geom.V(0, 1)) {
		t.Error("90° should be in Q1")
	}
	// The opposite y-axis representative (270°) must also read as 90°.
	if q0.lineInQuadrant(geom.V(0, -1)) {
		t.Error("270° representative should not be in Q0")
	}
	if !q1.lineInQuadrant(geom.V(0, -1)) {
		t.Error("270° representative should be in Q1")
	}
	// And the 180° x-axis representative as 0°.
	if !q0.lineInQuadrant(geom.V(-1, 0)) {
		t.Error("180° representative should be in Q0")
	}
}

func TestThirdLargest(t *testing.T) {
	if got := thirdLargest(1, 2, 3, 4); got != 2 {
		t.Errorf("thirdLargest(1,2,3,4) = %v", got)
	}
	if got := thirdLargest(4, 3, 2, 1); got != 2 {
		t.Errorf("thirdLargest(4,3,2,1) = %v", got)
	}
	if got := thirdLargest(5, 5, 5, 5); got != 5 {
		t.Errorf("thirdLargest(5,5,5,5) = %v", got)
	}
	if got := thirdLargest(1, 7, 3, 7); got != 3 {
		t.Errorf("thirdLargest(1,7,3,7) = %v", got)
	}
}

func TestQuadrantSingletonBoundsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		p := geom.V(rng.Float64()*100+0.1, rng.Float64()*100+0.1)
		var q quadrant
		q.reset(quadrantOf(p))
		q.insert(p)
		e := geom.V(rng.NormFloat64()*100, rng.NormFloat64()*100)
		lb, ub := q.boundsAt(e, MetricLine)
		truth := geom.DistToLine(p, geom.Line{B: e})
		if lb > truth+1e-9 || ub < truth-1e-9 {
			t.Fatalf("singleton bounds [%v,%v] miss truth %v (p=%v e=%v)", lb, ub, truth, p, e)
		}
	}
}

// The central structural property (Theorems 5.2-5.5): for any set of points
// inserted into the quadrant matching their location, and any candidate end
// point, the aggregated bounds sandwich the true maximum deviation.
func TestQuadrantBoundsSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	metrics := []Metric{MetricLine, MetricSegment}
	violations := 0
	for trial := 0; trial < 20000; trial++ {
		quadIdx := rng.Intn(4)
		sx := []float64{1, -1, -1, 1}[quadIdx]
		sy := []float64{1, 1, -1, -1}[quadIdx]
		n := 1 + rng.Intn(20)
		var q quadrant
		q.reset(quadIdx)
		pts := make([]geom.Vec, n)
		for i := range pts {
			// Positive magnitudes, signs from the quadrant. Occasionally put
			// points exactly on the axes to exercise boundary handling.
			x := rng.Float64() * 100
			y := rng.Float64() * 100
			if rng.Intn(20) == 0 {
				x = 0
			}
			if rng.Intn(20) == 0 {
				y = 0
			}
			p := geom.V(sx*x, sy*y)
			if quadrantOf(p) != quadIdx {
				// Axis point that belongs to a neighbouring quadrant by
				// convention; nudge it inside.
				p = geom.V(sx*(x+0.001), sy*(y+0.001))
			}
			pts[i] = p
			q.insert(p)
		}
		// Candidate end point anywhere in the plane, sometimes tiny,
		// sometimes on an axis.
		e := geom.V(rng.NormFloat64()*80, rng.NormFloat64()*80)
		switch rng.Intn(10) {
		case 0:
			e = geom.V(0, 0)
		case 1:
			e = e.Scale(1e-7)
		case 2:
			e = geom.V(e.X, 0)
		case 3:
			e = geom.V(0, e.Y)
		}
		for _, m := range metrics {
			lb, ub := q.boundsAt(e, m)
			var truth float64
			if m == MetricSegment {
				truth, _ = geom.MaxDistToSegment(pts, geom.Vec{}, e)
			} else {
				truth, _ = geom.MaxDistToLine(pts, geom.Line{B: e})
			}
			tol := 1e-6 * (1 + truth)
			if lb > truth+tol {
				violations++
				t.Errorf("trial %d quad %d metric %v: lb %v > truth %v (e=%v pts=%v)",
					trial, quadIdx, m, lb, truth, e, pts)
			}
			if ub < truth-tol {
				violations++
				t.Errorf("trial %d quad %d metric %v: ub %v < truth %v (e=%v pts=%v)",
					trial, quadIdx, m, ub, truth, e, pts)
			}
			if violations > 5 {
				t.Fatal("too many violations, stopping")
			}
		}
	}
}

// The significant points must contain every tracked point in their convex
// hull (the claim behind Equation 11 and the appendix discussion).
func TestSignificantPointsHullContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		quadIdx := rng.Intn(4)
		sx := []float64{1, -1, -1, 1}[quadIdx]
		sy := []float64{1, 1, -1, -1}[quadIdx]
		var q quadrant
		q.reset(quadIdx)
		n := 1 + rng.Intn(15)
		pts := make([]geom.Vec, n)
		for i := range pts {
			p := geom.V(sx*(rng.Float64()*50+1e-6), sy*(rng.Float64()*50+1e-6))
			pts[i] = p
			q.insert(p)
		}
		sig := q.significantPoints()
		hull := geom.ConvexHull(sig)
		for _, p := range pts {
			if !geom.InConvexPolygon(p, hull, 1e-6) {
				t.Fatalf("trial %d quad %d: significant-point hull %v misses %v",
					trial, quadIdx, hull, p)
			}
		}
	}
}

func TestBoundsEmptyQuadrant(t *testing.T) {
	var q quadrant
	q.reset(0)
	lb, ub := q.boundsAt(geom.V(1, 1), MetricLine)
	if lb != 0 || ub != 0 {
		t.Errorf("empty quadrant bounds = %v,%v", lb, ub)
	}
	if q.significantPoints() != nil {
		t.Error("empty quadrant has significant points")
	}
}
