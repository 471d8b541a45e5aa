package core

import (
	"math"

	"github.com/trajcomp/bqs/internal/geom"
)

// fanDegrees are the slope fan's axes, as angles from the local y axis
// towards +x, ascending and symmetric about 0. The data-centric rotation
// lays the segment along the local x axis, so the path line's normal sits
// within ε/L of the y axis for a segment of length L: the resolution that
// matters is there, and the gaps double away from it. The set is a constant
// sized by measurement, not an option (DESIGN.md, "The slope fan", has the
// table: 5 axes recover 70 % of what these 11 do, 13 and 15 add nothing, 17
// spread evenly over the half turn do no better than 5).
var fanDegrees = [...]float64{-32, -16, -8, -4, -2, 0, 2, 4, 8, 16, 32}

const fanAxes = len(fanDegrees)

// fanDir[j] is the unit vector d(θⱼ) = (sin θⱼ, cos θⱼ); fanInvGap[j] is
// 1 / sin(θⱼ − θⱼ₋₁), the inverse of the cross product of adjacent axes.
var fanDir, fanInvGap = func() (dir [fanAxes]geom.Vec, inv [fanAxes]float64) {
	for j, deg := range fanDegrees {
		s, c := math.Sincos(deg * math.Pi / 180)
		dir[j] = geom.Vec{X: s, Y: c}
		if j > 0 {
			inv[j] = 1 / math.Sin((deg-fanDegrees[j-1])*math.Pi/180)
		}
	}
	return dir, inv
}()

// slopeFan tightens the quadrants' upper bound where their box ∩ wedge hull
// is loose: long thin segments, whose path line tilts away from the frame
// the first few far points fixed. Per axis it keeps the range of the tracked
// points' projections — the tracked set's support function sampled in
// fanAxes directions and their opposites. The segment start projects to 0
// and lies on every path line, so the zero value is the empty fan.
type slopeFan struct {
	ax [fanAxes]span
}

// span is the range of projections on one axis. The builtin min and max keep
// a NaN, so a projection that overflowed poisons its axis until the next
// anchor.
type span struct{ lo, hi float64 }

func (a *span) extend(p float64) {
	a.lo = min(a.lo, p)
	a.hi = max(a.hi, p)
}

// insert adds a local point. The axes come in mirror pairs about the y axis,
// so a pair's projections y·cos θ ± x·sin θ share their two products.
func (s *slopeFan) insert(v geom.Vec) {
	const mid = fanAxes / 2
	s.ax[mid].extend(v.Y)
	for k, d := range fanDir[mid+1:] {
		xs, yc := d.X*v.X, d.Y*v.Y
		s.ax[mid+1+k].extend(yc + xs)
		s.ax[mid-1-k].extend(yc - xs)
	}
}

// upper bounds the distance of every inserted point from the path line
// through the origin and le, given inv = 1/|le|. The distance of p is |n·p|
// for the line's unit normal n, taken with nᵧ ≥ 0. A support function is
// sublinear: when n lies between adjacent axes, n = a·dⱼ₋₁ + b·dⱼ with
// a, b ≥ 0, every p has n·p = a(dⱼ₋₁·p) + b(dⱼ·p) ≤ a·hiⱼ₋₁ + b·hiⱼ, and
// ≥ a·loⱼ₋₁ + b·loⱼ likewise. With n = d(φ), n × dⱼ = sin(φ − θⱼ), so the
// cross products' signs find j and their sizes are a and b (Cramer's rule)
// with no angle materialized. A normal outside the fan's range returns +Inf
// and a non-finite normal or a poisoned axis +Inf or NaN: neither is below
// any bound.
func (s *slopeFan) upper(le geom.Vec, inv float64) float64 {
	n := geom.Vec{X: -le.Y * inv, Y: le.X * inv}
	if n.Y < 0 {
		n = geom.Vec{X: -n.X, Y: -n.Y}
	}
	prev := n.Cross(fanDir[0])
	if !(prev >= 0) {
		return math.Inf(1)
	}
	for j := 1; j < fanAxes; j++ {
		next := n.Cross(fanDir[j])
		if next <= 0 {
			a, b := -next*fanInvGap[j], prev*fanInvGap[j]
			l, r := s.ax[j-1], s.ax[j]
			return max(a*l.hi+b*r.hi, -(a*l.lo + b*r.lo))
		}
		prev = next
	}
	return math.Inf(1)
}
