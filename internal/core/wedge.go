package core

import (
	"math"

	"github.com/trajcomp/bqs/internal/geom"
)

// wedge is the set of path-line directions that keep every tracked point
// within ε of the path line, exactly. A tracked point at local v, r = |v| > ε
// from the segment start, is within ε of a line through the start iff the
// line's direction lies between the two tangents from the start to the
// ε-circle about v; all tracked points are iff it lies in the intersection of
// those wedges. A line has no sense, so directions count mod π: the arc
// lo → hi (counter-clockwise, under a half turn) stands for itself and its
// opposite. Two states need no flag, because admits is cross-product signs:
// the zero value (nothing far tracked) admits every direction, and NaN ends
// (no line fits every point, or a tangent was not finite) admit none and
// stay NaN through every later insert, so the paper's bound stands.
type wedge struct {
	lo, hi  geom.Vec // unit vectors
	dropped int      // two-arc intersections one arc was kept of; reset keeps it
}

var noDirection = geom.Vec{X: math.NaN(), Y: math.NaN()}

// reset reopens the wedge for the next segment.
func (w *wedge) reset() { *w = wedge{dropped: w.dropped} }

// insert narrows the wedge by the tangent pair of the local point v: v turned
// by ∓asin(ε/r), which with c = √(r² − ε²) is (v.x·c ± v.y·ε, v.y·c ∓ v.x·ε),
// scaled by 1/r² to unit length so that no later cross product overflows. A v
// the rotation's rounding brought within ε constrains nothing.
func (w *wedge) insert(v geom.Vec, eps float64) {
	r2 := v.Norm2()
	c2 := r2 - eps*eps
	if c2 <= 0 {
		return
	}
	c, inv := math.Sqrt(c2), 1/r2
	a := geom.Vec{X: (v.X*c + v.Y*eps) * inv, Y: (v.Y*c - v.X*eps) * inv}
	b := geom.Vec{X: (v.X*c - v.Y*eps) * inv, Y: (v.Y*c + v.X*eps) * inv}
	if !a.IsFinite() || !b.IsFinite() {
		a, b = noDirection, noDirection
	}
	if w.lo == (geom.Vec{}) {
		w.lo, w.hi = a, b
		return
	}
	// Mod π the new wedge is a → b and −a → −b. The arc can meet both only
	// when the two widths pass a half turn together, so only while some
	// tracked point is within √2·ε of the start; the wider piece stays, any
	// subset of the intersection being sound.
	l, h, ok := meet(w.lo, w.hi, a, b)
	if fl, fh, fok := meet(w.lo, w.hi, a.Scale(-1), b.Scale(-1)); fok {
		if ok {
			w.dropped++
		}
		if !ok || fl.Dot(fh) < l.Dot(h) {
			l, h, ok = fl, fh, true
		}
	}
	if !ok {
		l, h = noDirection, noDirection
	}
	w.lo, w.hi = l, h
}

// meet intersects the arcs lo → hi and a → b, each under a half turn, on the
// full circle: one arc or nothing. Ends compare by cross-product sign only
// where they are under a half turn apart, which overlapping arcs' ends are;
// so each end is taken on that assumption and then required to lie in the arc
// it was not taken from, which it does iff the arcs overlap.
func meet(lo, hi, a, b geom.Vec) (l, h geom.Vec, ok bool) {
	late, early := lo.Cross(a) > 0, b.Cross(hi) > 0 // a starts after lo; b ends before hi
	l, h = lo, hi
	if late {
		l = a
	}
	if early {
		h = b
	}
	ok = (!late && early || a.Cross(hi) >= 0) && (late && !early || lo.Cross(b) >= 0)
	return l, h, ok
}

// admits reports whether the path line along le keeps every inserted point
// within ε: le or −le in the arc, which is le on the same side of both ends.
func (w *wedge) admits(le geom.Vec) bool {
	s, t := w.lo.Cross(le), le.Cross(w.hi)
	return s >= 0 && t >= 0 || s <= 0 && t <= 0
}
