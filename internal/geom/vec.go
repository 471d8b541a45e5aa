// Package geom provides the plane and solid geometry primitives the BQS
// compression algorithms are built on: vectors, point-to-line and
// point-to-segment distances, minimal bounding boxes, ray/box clipping,
// convex hulls and convex polygon clipping.
//
// Everything operates on projected metric coordinates (metres); the geo
// package is responsible for getting GPS fixes into that space.
package geom

import "math"

// Eps is the absolute tolerance used for degenerate-case decisions
// (parallel lines, zero-length directions, on-boundary classification).
// Coordinates are metres, so 1e-9 m is far below GPS noise.
const Eps = 1e-9

// Vec is a point or displacement in the plane.
type Vec struct {
	X, Y float64
}

// V is shorthand for Vec{x, y}.
func V(x, y float64) Vec { return Vec{x, y} }

// Add returns v + o.
func (v Vec) Add(o Vec) Vec { return Vec{v.X + o.X, v.Y + o.Y} }

// Sub returns v - o.
func (v Vec) Sub(o Vec) Vec { return Vec{v.X - o.X, v.Y - o.Y} }

// Scale returns v scaled by k.
func (v Vec) Scale(k float64) Vec { return Vec{v.X * k, v.Y * k} }

// Dot returns the dot product v · o.
func (v Vec) Dot(o Vec) float64 { return v.X*o.X + v.Y*o.Y }

// Cross returns the z component of the cross product v × o.
// Positive when o is counter-clockwise from v.
func (v Vec) Cross(o Vec) float64 { return v.X*o.Y - v.Y*o.X }

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec) Norm2() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and o.
func (v Vec) Dist(o Vec) float64 { return v.Sub(o).Norm() }

// Unit returns v scaled to length 1. The zero vector is returned unchanged.
func (v Vec) Unit() Vec {
	n := v.Norm()
	if n < Eps {
		return v
	}
	return v.Scale(1 / n)
}

// Angle returns the angle of v measured counter-clockwise from the +x axis,
// normalized to [0, 2π).
func (v Vec) Angle() float64 {
	a := math.Atan2(v.Y, v.X)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// Rotate returns v rotated counter-clockwise by phi radians.
func (v Vec) Rotate(phi float64) Vec {
	s, c := math.Sincos(phi)
	return Vec{v.X*c - v.Y*s, v.X*s + v.Y*c}
}

// IsFinite reports whether both components are finite numbers.
func (v Vec) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0)
}

// Lerp returns the linear interpolation between a and b at parameter t,
// with t = 0 yielding a and t = 1 yielding b.
func Lerp(a, b Vec, t float64) Vec {
	return Vec{a.X + (b.X-a.X)*t, a.Y + (b.Y-a.Y)*t}
}

// NormalizeAngle maps an angle in radians into [0, 2π).
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}
