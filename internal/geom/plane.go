package geom

import "math"

// Plane is the set of points p with N·p = D, oriented by its normal N.
// The half-space "below" the plane is N·p ≤ D.
type Plane struct {
	N Vec3
	D float64
}

// Eval returns the signed distance of p from the plane (positive on the
// normal side) assuming a unit normal.
func (pl Plane) Eval(p Vec3) float64 { return pl.N.Dot(p) - pl.D }

// Box3 is an axis-aligned box in 3-space (the paper's "bounding right
// rectangular prism"). Like Box it must be created with EmptyBox3.
type Box3 struct {
	Min, Max Vec3
}

// EmptyBox3 returns a 3-D box containing no points.
func EmptyBox3() Box3 {
	inf := math.Inf(1)
	return Box3{Vec3{inf, inf, inf}, Vec3{-inf, -inf, -inf}}
}

// Empty reports whether the box contains no points.
func (b Box3) Empty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Extend grows the box to include p.
func (b *Box3) Extend(p Vec3) {
	b.Min.X = math.Min(b.Min.X, p.X)
	b.Min.Y = math.Min(b.Min.Y, p.Y)
	b.Min.Z = math.Min(b.Min.Z, p.Z)
	b.Max.X = math.Max(b.Max.X, p.X)
	b.Max.Y = math.Max(b.Max.Y, p.Y)
	b.Max.Z = math.Max(b.Max.Z, p.Z)
}

// Contains reports whether p is inside the closed box (Eps slack).
func (b Box3) Contains(p Vec3) bool {
	return !b.Empty() &&
		p.X >= b.Min.X-Eps && p.X <= b.Max.X+Eps &&
		p.Y >= b.Min.Y-Eps && p.Y <= b.Max.Y+Eps &&
		p.Z >= b.Min.Z-Eps && p.Z <= b.Max.Z+Eps
}

// Corners returns the eight corners of the box.
func (b Box3) Corners() [8]Vec3 {
	return [8]Vec3{
		{b.Min.X, b.Min.Y, b.Min.Z},
		{b.Max.X, b.Min.Y, b.Min.Z},
		{b.Max.X, b.Max.Y, b.Min.Z},
		{b.Min.X, b.Max.Y, b.Min.Z},
		{b.Min.X, b.Min.Y, b.Max.Z},
		{b.Max.X, b.Min.Y, b.Max.Z},
		{b.Max.X, b.Max.Y, b.Max.Z},
		{b.Min.X, b.Max.Y, b.Max.Z},
	}
}

// Faces returns the six faces of the box as quadrilaterals (each a 4-vertex
// planar polygon). Arrays, not slices: go 1.24.0 builds a [6][]Vec3 literal
// of non-constant values in one static buffer, which concurrent callers —
// the engine's shard workers under "timesensitive" — then share.
func (b Box3) Faces() [6][4]Vec3 {
	c := b.Corners()
	return [6][4]Vec3{
		{c[0], c[1], c[2], c[3]}, // z = min
		{c[4], c[5], c[6], c[7]}, // z = max
		{c[0], c[1], c[5], c[4]}, // y = min
		{c[3], c[2], c[6], c[7]}, // y = max
		{c[0], c[3], c[7], c[4]}, // x = min
		{c[1], c[2], c[6], c[5]}, // x = max
	}
}

// ClipPolygonPlane3 clips a convex planar polygon against the half-space
// N·p ≤ D (Sutherland–Hodgman against one plane). The result may be empty.
func ClipPolygonPlane3(poly []Vec3, pl Plane) []Vec3 {
	if len(poly) == 0 {
		return nil
	}
	inside := func(p Vec3) bool { return pl.Eval(p) <= Eps }
	var out []Vec3
	n := len(poly)
	for i := 0; i < n; i++ {
		cur, next := poly[i], poly[(i+1)%n]
		curIn, nextIn := inside(cur), inside(next)
		if curIn {
			out = append(out, cur)
		}
		if curIn != nextIn {
			ec, en := pl.Eval(cur), pl.Eval(next)
			den := ec - en
			if math.Abs(den) > Eps {
				t := ec / den
				out = append(out, cur.Add(next.Sub(cur).Scale(t)))
			}
		}
	}
	return out
}
