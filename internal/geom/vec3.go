package geom

import "math"

// Vec3 is a point or displacement in 3-space. In the 3-D BQS the z axis
// carries either altitude (metres) or scaled time, as chosen by the caller.
type Vec3 struct {
	X, Y, Z float64
}

// V3 is shorthand for Vec3{x, y, z}.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v scaled by k.
func (v Vec3) Scale(k float64) Vec3 { return Vec3{v.X * k, v.Y * k, v.Z * k} }

// Dot returns the dot product v · o.
func (v Vec3) Dot(o Vec3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Cross returns the cross product v × o.
func (v Vec3) Cross(o Vec3) Vec3 {
	return Vec3{
		v.Y*o.Z - v.Z*o.Y,
		v.Z*o.X - v.X*o.Z,
		v.X*o.Y - v.Y*o.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns the distance between v and o.
func (v Vec3) Dist(o Vec3) float64 { return v.Sub(o).Norm() }

// Unit returns v normalized to unit length (zero vector unchanged).
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n < Eps {
		return v
	}
	return v.Scale(1 / n)
}

// XY projects v onto the XY plane.
func (v Vec3) XY() Vec { return Vec{v.X, v.Y} }

// IsFinite reports whether all components are finite.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// DistToLine3 returns the distance from p to the infinite 3-D line through
// a and b; for a degenerate line it returns the distance to a.
func DistToLine3(p, a, b Vec3) float64 {
	d := b.Sub(a)
	n := d.Norm()
	if n < Eps {
		return p.Dist(a)
	}
	return d.Cross(p.Sub(a)).Norm() / n
}

// DistToSegment3 returns the distance from p to the closed 3-D segment [a,b].
func DistToSegment3(p, a, b Vec3) float64 {
	d := b.Sub(a)
	n2 := d.Norm2()
	if n2 < Eps*Eps {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(d) / n2
	switch {
	case t <= 0:
		return p.Dist(a)
	case t >= 1:
		return p.Dist(b)
	default:
		return p.Dist(a.Add(d.Scale(t)))
	}
}
