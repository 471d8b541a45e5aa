package geom

import "math"

// Line is an infinite line through two points A and B. When A == B the line
// is degenerate and distance queries fall back to point distance, which is
// the behaviour the compression algorithms want: the deviation from a
// zero-length path line is the distance to its single anchor point.
type Line struct {
	A, B Vec
}

// Dir returns the (non-normalized) direction B - A.
func (l Line) Dir() Vec { return l.B.Sub(l.A) }

// DistToLine returns the perpendicular distance from p to the infinite
// line l. For a degenerate line it returns the distance to l.A.
func DistToLine(p Vec, l Line) float64 {
	d := l.Dir()
	n := d.Norm()
	if n < Eps {
		return p.Dist(l.A)
	}
	return math.Abs(d.Cross(p.Sub(l.A))) / n
}

// DistToSegment returns the distance from p to the closed segment [a, b].
func DistToSegment(p, a, b Vec) float64 {
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

// MaxDistToLine returns the maximum perpendicular distance from any point in
// pts to the line l, along with the index of the attaining point. It returns
// (0, -1) for an empty slice.
func MaxDistToLine(pts []Vec, l Line) (float64, int) {
	maxD, arg := 0.0, -1
	for i, p := range pts {
		if d := DistToLine(p, l); d > maxD {
			maxD, arg = d, i
		}
	}
	return maxD, arg
}

// MaxDistToSegment is MaxDistToLine with the point-to-segment metric.
func MaxDistToSegment(pts []Vec, a, b Vec) (float64, int) {
	maxD, arg := 0.0, -1
	for i, p := range pts {
		if d := DistToSegment(p, a, b); d > maxD {
			maxD, arg = d, i
		}
	}
	return maxD, arg
}
