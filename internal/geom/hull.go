package geom

import "sort"

// ConvexHull returns the convex hull of pts in counter-clockwise order using
// Andrew's monotone chain. Collinear boundary points are dropped. The input
// slice is not modified. Degenerate inputs return what is available:
// 0 or 1 points unchanged, 2 distinct points as a segment.
func ConvexHull(pts []Vec) []Vec {
	n := len(pts)
	if n < 3 {
		out := make([]Vec, n)
		copy(out, pts)
		return out
	}
	sorted := make([]Vec, n)
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	// Deduplicate.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		last := uniq[len(uniq)-1]
		if p.Sub(last).Norm() > Eps {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) < 3 {
		return uniq
	}

	hull := make([]Vec, 0, 2*len(uniq))
	// Lower hull.
	for _, p := range uniq {
		for len(hull) >= 2 && hull[len(hull)-1].Sub(hull[len(hull)-2]).Cross(p.Sub(hull[len(hull)-2])) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(uniq) - 2; i >= 0; i-- {
		p := uniq[i]
		for len(hull) >= lower && hull[len(hull)-1].Sub(hull[len(hull)-2]).Cross(p.Sub(hull[len(hull)-2])) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

// InConvexPolygon reports whether p lies inside or on the boundary of the
// convex polygon poly (vertices in counter-clockwise order, tolerance tol).
func InConvexPolygon(p Vec, poly []Vec, tol float64) bool {
	n := len(poly)
	switch n {
	case 0:
		return false
	case 1:
		return p.Dist(poly[0]) <= tol
	case 2:
		return DistToSegment(p, poly[0], poly[1]) <= tol
	}
	for i := 0; i < n; i++ {
		a, b := poly[i], poly[(i+1)%n]
		d := b.Sub(a)
		if d.Cross(p.Sub(a)) < -tol*d.Norm() {
			return false
		}
	}
	return true
}
