package geom

import "math"

// Box is an axis-aligned rectangle. An empty box (no points added yet) is
// represented by Min > Max and reports Empty() == true; the zero Box value
// is NOT empty (it is the degenerate rectangle at the origin), so new boxes
// must be created with EmptyBox.
type Box struct {
	Min, Max Vec
}

// EmptyBox returns a box containing no points.
func EmptyBox() Box {
	return Box{
		Min: Vec{math.Inf(1), math.Inf(1)},
		Max: Vec{math.Inf(-1), math.Inf(-1)},
	}
}

// Empty reports whether the box contains no points.
func (b Box) Empty() bool { return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y }

// Extend grows the box to include p.
func (b *Box) Extend(p Vec) {
	b.Min.X = min(b.Min.X, p.X)
	b.Min.Y = min(b.Min.Y, p.Y)
	b.Max.X = max(b.Max.X, p.X)
	b.Max.Y = max(b.Max.Y, p.Y)
}

// Contains reports whether p lies inside the closed box (with Eps slack).
func (b Box) Contains(p Vec) bool {
	return !b.Empty() &&
		p.X >= b.Min.X-Eps && p.X <= b.Max.X+Eps &&
		p.Y >= b.Min.Y-Eps && p.Y <= b.Max.Y+Eps
}

// Intersects reports whether the two closed boxes overlap.
func (b Box) Intersects(o Box) bool {
	if b.Empty() || o.Empty() {
		return false
	}
	return b.Min.X <= o.Max.X+Eps && o.Min.X <= b.Max.X+Eps &&
		b.Min.Y <= o.Max.Y+Eps && o.Min.Y <= b.Max.Y+Eps
}

// Inflate returns the box grown by r on every side.
func (b Box) Inflate(r float64) Box {
	if b.Empty() {
		return b
	}
	return Box{Vec{b.Min.X - r, b.Min.Y - r}, Vec{b.Max.X + r, b.Max.Y + r}}
}

// Corners returns the four corners in counter-clockwise order starting from
// Min: (minX,minY), (maxX,minY), (maxX,maxY), (minX,maxY).
func (b Box) Corners() [4]Vec {
	return [4]Vec{
		{b.Min.X, b.Min.Y},
		{b.Max.X, b.Min.Y},
		{b.Max.X, b.Max.Y},
		{b.Min.X, b.Max.Y},
	}
}

// ClipRay clips the ray origin + t*dir (t ≥ 0) against the closed box using
// the slab method. It returns the parameter interval [t0, t1] of the portion
// inside the box and ok=false when the ray misses the box entirely.
// A zero direction yields ok=false.
func (b Box) ClipRay(origin, dir Vec) (t0, t1 float64, ok bool) {
	// Norm2 spares the Hypot: |dir| < Eps ⟺ |dir|² < Eps², and the clip
	// runs on the hot bound-refresh path.
	if b.Empty() || dir.Norm2() < Eps*Eps {
		return 0, 0, false
	}
	t0, t1 = 0, math.Inf(1)
	// x slab
	if math.Abs(dir.X) < Eps {
		if origin.X < b.Min.X-Eps || origin.X > b.Max.X+Eps {
			return 0, 0, false
		}
	} else {
		ta := (b.Min.X - origin.X) / dir.X
		tb := (b.Max.X - origin.X) / dir.X
		if ta > tb {
			ta, tb = tb, ta
		}
		t0 = max(t0, ta)
		t1 = min(t1, tb)
	}
	// y slab
	if math.Abs(dir.Y) < Eps {
		if origin.Y < b.Min.Y-Eps || origin.Y > b.Max.Y+Eps {
			return 0, 0, false
		}
	} else {
		ta := (b.Min.Y - origin.Y) / dir.Y
		tb := (b.Max.Y - origin.Y) / dir.Y
		if ta > tb {
			ta, tb = tb, ta
		}
		t0 = max(t0, ta)
		t1 = min(t1, tb)
	}
	if t0 > t1+Eps {
		return 0, 0, false
	}
	return t0, t1, true
}

// ClipLineThroughOrigin clips the ray from the origin in direction dir
// against the box and returns the entry and exit points. This is the
// operation BQS uses to turn a bounding line into its two intersection
// points with the bounding box (the points called l1/l2 and u1/u2 in the
// paper). ok is false when the ray misses the box.
func (b Box) ClipLineThroughOrigin(dir Vec) (entry, exit Vec, ok bool) {
	t0, t1, ok := b.ClipRay(Vec{}, dir)
	if !ok {
		return Vec{}, Vec{}, false
	}
	return dir.Scale(t0), dir.Scale(t1), true
}
