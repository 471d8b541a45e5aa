package core

import (
	"math"

	"github.com/trajcomp/bqs/internal/geom"
)

// quadrant is one Bounded Quadrant System: the bounding structure for the
// tracked points of the current segment that fall into one quadrant of the
// local (segment-start-anchored, optionally rotated) coordinate system.
//
// It maintains the minimal bounding box and the two angular bounding lines
// (Section V-B) represented by their extreme-angle witness data points pMin
// and pMax: the witness itself is a point on the bounding ray through the
// origin, so no angle value is ever materialized. Angle ordering within one
// quadrant is decided by cross-product sign — the angular span of a
// quadrant is under π/2, so for tracked points u and v the canonical angle
// of v is smaller than that of u exactly when u × v < 0. This keeps the
// per-point hot path free of trigonometric calls (no Atan2 on insert, no
// Sincos when clipping the bounding lines).
type quadrant struct {
	idx        int // 0..3, fixed at init
	n          int // tracked points
	box        geom.Box
	pMin, pMax geom.Vec // witness points attaining the extreme angles

	// Significant points are a function of the structure only (not of the
	// candidate end point), so they are cached and recomputed lazily after
	// inserts. This keeps the per-point decision to a handful of distance
	// evaluations.
	sigValid       bool
	l1, l2, u1, u2 geom.Vec
	clipOK         bool
	cn, cf         geom.Vec
}

// quadrantOf returns the quadrant index of a local point: 0 for x≥0∧y≥0,
// 1 for x<0∧y≥0, 2 for x<0∧y<0, 3 for x≥0∧y<0. The conventions on the axes
// are arbitrary but must be stable, which these are.
func quadrantOf(v geom.Vec) int {
	if v.Y >= 0 {
		if v.X >= 0 {
			return 0
		}
		return 1
	}
	if v.X < 0 {
		return 2
	}
	return 3
}

// reset empties the quadrant. Only the fields consulted while n == 0 are
// cleared: witnesses and cached significant points are rewritten before
// first use (insert seeds them at n == 0, refreshSignificant recomputes
// them behind sigValid), so a full struct wipe per segment restart would
// be wasted copying on the cut-heavy hot path.
func (q *quadrant) reset(idx int) {
	q.idx = idx
	q.n = 0
	q.box = geom.EmptyBox()
	q.sigValid = false
}

// insert adds a local point to the bounding structure. Within one quadrant
// canonical angles are contiguous (no 0/2π wraparound is possible) and the
// angular span is below π/2, so the cross-product sign decides the min/max
// ordering exactly, with no Atan2.
func (q *quadrant) insert(v geom.Vec) {
	if q.n == 0 {
		q.pMin, q.pMax = v, v
	} else {
		if q.pMin.Cross(v) < 0 {
			q.pMin = v
		}
		if q.pMax.Cross(v) > 0 {
			q.pMax = v
		}
	}
	q.box.Extend(v)
	q.n++
	q.sigValid = false
}

// refreshSignificant recomputes the cached significant points.
func (q *quadrant) refreshSignificant() {
	q.l1, q.l2, q.u1, q.u2, q.clipOK = q.computeIntersections()
	q.cn, q.cf = q.nearFarCorners()
	q.sigValid = true
}

// nearFarCorners returns the bounding-box corners nearest to and farthest
// from the origin; which corners those are is fixed by the quadrant
// (Section V, "Near-far Corner Distances").
func (q *quadrant) nearFarCorners() (cn, cf geom.Vec) {
	b := q.box
	switch q.idx {
	case 0:
		return b.Min, b.Max
	case 1:
		return geom.Vec{X: b.Max.X, Y: b.Min.Y}, geom.Vec{X: b.Min.X, Y: b.Max.Y}
	case 2:
		return b.Max, b.Min
	default: // 3
		return geom.Vec{X: b.Min.X, Y: b.Max.Y}, geom.Vec{X: b.Max.X, Y: b.Min.Y}
	}
}

// lineInQuadrant reports whether a path line with direction dir (any
// nonzero representative) is "in" this quadrant per the paper's
// definition: the direction angle mod π falls inside the quadrant's
// half-open angular range. A line is therefore in exactly two opposite
// quadrants. The test is exact sign arithmetic instead of angle folding:
// the reduced angle lies in [0, π/2) — quadrants 0/2 — iff the components
// share a sign or the direction is on the x axis, and in [π/2, π) —
// quadrants 1/3 — iff the signs differ or the direction is on the y axis.
func (q *quadrant) lineInQuadrant(dir geom.Vec) bool {
	prod := dir.X * dir.Y
	if q.idx == 0 || q.idx == 2 {
		return prod > 0 || dir.Y == 0
	}
	return prod < 0 || dir.X == 0
}

// computeIntersections clips both bounding lines against the box: the entry
// and exit points l1, l2, u1, u2 are the significant points on them. When a
// clip degenerates numerically the extreme witness point is substituted and
// ok is false, signalling that bounds must fall back to the corner-based
// upper bound. The extreme witness points double as the ray directions: the
// clip is scale-invariant along the ray, so reconstructing a unit direction
// from the bounding angle (a Sincos per refresh) is unnecessary.
func (q *quadrant) computeIntersections() (l1, l2, u1, u2 geom.Vec, ok bool) {
	ok = true
	var okL, okU bool
	l1, l2, okL = q.box.ClipLineThroughOrigin(q.pMin)
	if !okL {
		l1, l2, ok = q.pMin, q.pMin, false
	}
	u1, u2, okU = q.box.ClipLineThroughOrigin(q.pMax)
	if !okU {
		u1, u2, ok = q.pMax, q.pMax, false
	}
	return l1, l2, u1, u2, ok
}

// bounds computes the per-quadrant lower and upper bounds on the maximum
// deviation of the tracked points from the path line through the local
// origin and the local end point le (Theorems 5.3, 5.4 and 5.5).
//
// Lower-bound terms always use the point-to-line distance: a witness data
// point p with line-distance ≥ dlb also has segment-distance ≥ dlb, so the
// same dlb is valid under both metrics. Upper-bound terms use the active
// metric; under MetricSegment the near/far corners join the intersection
// points per Equation 11, which together span the convex hull that contains
// every tracked point.
//
// The path line passes through the local origin, so the point-to-line
// distance is |le × p| / |le|; norm is that |le| and inv its inverse,
// computed once per end point by the frame for all four quadrants, and the
// ~10 distance evaluations are written out inline — the closure-based
// formulation kept the compiler from flattening them and is the other
// reason (besides the trig) this function used to dominate the decision
// loop.
//
// An empty quadrant contributes (0, 0).
func (q *quadrant) bounds(le geom.Vec, norm, inv float64, metric Metric) (dlb, dub float64) {
	if q.n == 0 {
		return 0, 0
	}
	if norm < geom.Eps {
		return q.boundsDegenerate()
	}
	if !q.sigValid {
		q.refreshSignificant()
	}

	dl1 := lineDist(le, inv, q.l1)
	dl2 := lineDist(le, inv, q.l2)
	du1 := lineDist(le, inv, q.u1)
	du2 := lineDist(le, inv, q.u2)

	// Lower bound: a data point lies on each bounding line's chord and on
	// each box edge, all on one side of any line through the origin (two
	// origin lines only meet at the origin), so the distance function is
	// affine over each chord/edge and endpoint minima are valid witnesses.
	dlb = max(
		min(dl1, dl2),
		min(du1, du2),
	)

	if q.lineInQuadrant(le) {
		// Theorems 5.3 / 5.4: line in the quadrant.
		dcn := lineDist(le, inv, q.cn)
		dcf := lineDist(le, inv, q.cf)
		dlb = max(dlb, dcn, dcf)
		if !q.clipOK {
			// Clip fallback: the substituted witness points are not hull
			// vertices, so revert to the always-valid Theorem 5.2 corners.
			return dlb, q.cornerUB(le, inv, metric)
		}
		if metric == MetricSegment {
			return dlb, max(
				geom.DistToSegment(q.l1, geom.Vec{}, le),
				geom.DistToSegment(q.l2, geom.Vec{}, le),
				geom.DistToSegment(q.u1, geom.Vec{}, le),
				geom.DistToSegment(q.u2, geom.Vec{}, le),
				geom.DistToSegment(q.cn, geom.Vec{}, le),
				geom.DistToSegment(q.cf, geom.Vec{}, le),
			)
		}
		return dlb, max(dl1, dl2, du1, du2)
	}

	// Theorem 5.5: line not in the quadrant.
	c1 := geom.Vec{X: q.box.Max.X, Y: q.box.Min.Y}
	c3 := geom.Vec{X: q.box.Min.X, Y: q.box.Max.Y}
	d0 := lineDist(le, inv, q.box.Min)
	d1 := lineDist(le, inv, c1)
	d2 := lineDist(le, inv, q.box.Max)
	d3 := lineDist(le, inv, c3)
	dlb = max(dlb, thirdLargest(d0, d1, d2, d3))
	if metric == MetricSegment {
		return dlb, q.cornerUB(le, inv, metric)
	}
	return dlb, max(d0, d1, d2, d3)
}

// boundsDegenerate handles a degenerate path line (|le| below Eps), for
// which only the convex corner bound is safe: every distance degrades to
// the distance from the origin point — both metrics agree there, since the
// point-to-segment distance of a sub-Eps segment is its anchor distance.
// The chord-endpoint argument no longer applies, but within one quadrant
// the near corner is the closest point of the whole box region to the
// origin, so it floors every tracked point's distance.
func (q *quadrant) boundsDegenerate() (dlb, dub float64) {
	if !q.sigValid {
		q.refreshSignificant()
	}
	dlb = math.Hypot(q.cn.X, q.cn.Y)
	dub = max(
		math.Hypot(q.box.Min.X, q.box.Min.Y),
		math.Hypot(q.box.Max.X, q.box.Min.Y),
		math.Hypot(q.box.Max.X, q.box.Max.Y),
		math.Hypot(q.box.Min.X, q.box.Max.Y),
	)
	return dlb, dub
}

// lineDist is the point-to-line distance |le × p| / |le| with the 1/|le|
// factor hoisted by the caller; small enough to inline, so the bound
// evaluations stay straight-line code while the formula lives in one
// place.
func lineDist(le geom.Vec, inv float64, p geom.Vec) float64 {
	return math.Abs(le.X*p.Y-le.Y*p.X) * inv
}

// cornerUB is the always-valid Theorem 5.2 upper bound over the four box
// corners under the active metric, with 1/|le| precomputed by the caller.
func (q *quadrant) cornerUB(le geom.Vec, inv float64, metric Metric) float64 {
	c1 := geom.Vec{X: q.box.Max.X, Y: q.box.Min.Y}
	c3 := geom.Vec{X: q.box.Min.X, Y: q.box.Max.Y}
	if metric == MetricSegment {
		return max(
			geom.DistToSegment(q.box.Min, geom.Vec{}, le),
			geom.DistToSegment(c1, geom.Vec{}, le),
			geom.DistToSegment(q.box.Max, geom.Vec{}, le),
			geom.DistToSegment(c3, geom.Vec{}, le),
		)
	}
	return max(
		lineDist(le, inv, q.box.Min),
		lineDist(le, inv, c1),
		lineDist(le, inv, q.box.Max),
		lineDist(le, inv, c3),
	)
}

// significantPoints returns the up-to-eight significant points of the
// quadrant (four corners plus four bounding-line intersections); used for
// diagnostics and to verify the paper's ≤ 32-point state claim.
func (q *quadrant) significantPoints() []geom.Vec {
	if q.n == 0 {
		return nil
	}
	if !q.sigValid {
		q.refreshSignificant()
	}
	c := q.box.Corners()
	return []geom.Vec{c[0], c[1], c[2], c[3], q.l1, q.l2, q.u1, q.u2}
}

// thirdLargest returns the third largest of four values.
func thirdLargest(a, b, c, d float64) float64 {
	v := [4]float64{a, b, c, d}
	// Insertion sort of four elements, descending.
	for i := 1; i < 4; i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	return v[2]
}
