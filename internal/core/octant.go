package core

import (
	"math"

	"github.com/trajcomp/bqs/internal/geom"
)

// octant is one 3-D Bounded Quadrant System (Section V-G): the bounding
// structure for tracked points falling into one octant of the local
// coordinate system. It maintains
//
//   - the bounding right rectangular prism (minimal 3-D box) with witness
//     data points for all six extremes,
//   - the pair of "vertical" bounding planes Θmin/Θmax, which contain the z
//     axis and bound the azimuth of every point, and
//   - the pair of "inclined" bounding planes Φmin/Φmax through the octant's
//     two anchor points (sign(x)·1, −sign(y)·1, 0) and (−sign(x)·1,
//     sign(y)·1, 0), which bound the elevation of every point above the XY
//     plane.
//
// Like the 2-D quadrant, the angular machinery is trig-free: azimuth
// ordering within one XY quadrant is the cross-product sign of the XY
// projections, and inclination φ = atan2(√2·|z|, |x|+|y|) is ordered by
// comparing the (|x|+|y|, √2·|z|) ratio pairs — both components are
// non-negative inside an octant, so the cross-product sign again decides
// the atan2 ordering exactly. The bounding-plane normals are later rebuilt
// directly from the witness coordinates (one Sqrt each) instead of
// Sincos/Tan of stored angles.
//
// The prism clipped by the four plane half-spaces is a convex polyhedron
// that contains every tracked point; its vertices (the paper's ≤ 17
// significant points, computed here by polygon clipping as the paper
// suggests doing with GEOS/CGAL) drive the upper bound, while the tracked
// witness data points drive the lower bound.
type octant struct {
	idx int // 0..7: quadrantOf(x,y) + 4 if z < 0
	n   int

	prism geom.Box3
	// Witness data points attaining each prism extreme.
	wMinX, wMaxX, wMinY, wMaxY, wMinZ, wMaxZ geom.Vec3

	wPsiMin, wPsiMax geom.Vec3 // witnesses attaining the azimuth extremes
	psiSet           bool      // at least one off-axis point seen

	// Inclination extremes as (den, a) = (|x|+|y|, √2·|z|) ratio pairs of
	// the witnesses; tan(φ) = a/den, so the pairs carry everything the
	// bounding planes need without evaluating an angle.
	phiMinDen, phiMinA float64
	phiMaxDen, phiMaxA float64
	wPhiMin, wPhiMax   geom.Vec3

	// The significant points and witnesses depend only on the structure,
	// not on the candidate end point; cache them between inserts.
	sigValid bool
	sigCache []geom.Vec3
	witCache []geom.Vec3
}

// octantOf returns the octant index of a local 3-D point.
func octantOf(v geom.Vec3) int {
	idx := quadrantOf(v.XY())
	if v.Z < 0 {
		idx += 4
	}
	return idx
}

var (
	octSX = [4]float64{1, -1, -1, 1}
	octSY = [4]float64{1, 1, -1, -1}
)

// signs returns the octant's coordinate signs (+1 or -1).
func (o *octant) signs() (sx, sy, sz float64) {
	sx, sy, sz = octSX[o.idx&3], octSY[o.idx&3], 1
	if o.idx >= 4 {
		sz = -1
	}
	return sx, sy, sz
}

// inclinationPair returns the (den, a) ratio pair representing the
// elevation angle of p in this octant: φ = atan2(a, den) with
// a = √2·|z| ≥ 0 and den = |x|+|y| ≥ 0 inside the octant.
func (o *octant) inclinationPair(p geom.Vec3) (den, a float64) {
	sx, sy, sz := o.signs()
	return sx*p.X + sy*p.Y, math.Sqrt2 * sz * p.Z
}

func (o *octant) reset(idx int) {
	*o = octant{idx: idx, prism: geom.EmptyBox3()}
}

// insert adds a local point to the bounding structure.
func (o *octant) insert(p geom.Vec3) {
	if o.n == 0 {
		o.wMinX, o.wMaxX, o.wMinY, o.wMaxY, o.wMinZ, o.wMaxZ = p, p, p, p, p, p
	} else {
		if p.X < o.prism.Min.X {
			o.wMinX = p
		}
		if p.X > o.prism.Max.X {
			o.wMaxX = p
		}
		if p.Y < o.prism.Min.Y {
			o.wMinY = p
		}
		if p.Y > o.prism.Max.Y {
			o.wMaxY = p
		}
		if p.Z < o.prism.Min.Z {
			o.wMinZ = p
		}
		if p.Z > o.prism.Max.Z {
			o.wMaxZ = p
		}
	}
	o.prism.Extend(p)

	// Azimuth: skip points on (or numerically at) the z axis; the vertical
	// plane constraints hold for them regardless. Within one XY quadrant
	// the azimuth ordering is the cross-product sign of the projections,
	// exactly as in the 2-D quadrant.
	xy := p.XY()
	if xy.Norm() > geom.Eps {
		if !o.psiSet {
			o.wPsiMin, o.wPsiMax = p, p
			o.psiSet = true
		} else {
			if o.wPsiMin.XY().Cross(xy) < 0 {
				o.wPsiMin = p
			}
			if o.wPsiMax.XY().Cross(xy) > 0 {
				o.wPsiMax = p
			}
		}
	}

	// Inclination: φ1 < φ2 ⟺ a1·den2 < a2·den1 (cross-product sign of
	// the first-quadrant ratio pairs).
	den, a := o.inclinationPair(p)
	if o.n == 0 {
		o.phiMinDen, o.phiMinA = den, a
		o.phiMaxDen, o.phiMaxA = den, a
		o.wPhiMin, o.wPhiMax = p, p
	} else {
		if a*o.phiMinDen < o.phiMinA*den {
			o.phiMinDen, o.phiMinA, o.wPhiMin = den, a, p
		}
		if a*o.phiMaxDen > o.phiMaxA*den {
			o.phiMaxDen, o.phiMaxA, o.wPhiMax = den, a, p
		}
	}
	o.n++
	o.sigValid = false
}

// halfSpaces returns the bounding-plane half-space constraints in the form
// N·p ≤ 0, suitable for ClipPolygonPlane3. Constraints that are vacuous
// (full azimuth/elevation span to the octant boundary) are omitted. The
// normals are built from the witness coordinates — sin ψ and cos ψ are the
// witness's normalized XY components, tan φ is the witness's a/den ratio —
// and normalized to unit length so the clipper's Eps classification keeps
// its metric meaning.
func (o *octant) halfSpaces() []geom.Plane {
	var hs []geom.Plane
	if o.psiSet {
		// Azimuth ψ ≥ ψmin: (−sin ψmin, cos ψmin, 0)·p ≥ 0 → negate.
		w := o.wPsiMin.XY()
		r := math.Hypot(w.X, w.Y)
		hs = append(hs, geom.Plane{N: geom.V3(w.Y/r, -w.X/r, 0)})
		// Azimuth ψ ≤ ψmax.
		w = o.wPsiMax.XY()
		r = math.Hypot(w.X, w.Y)
		hs = append(hs, geom.Plane{N: geom.V3(-w.Y/r, w.X/r, 0)})
	}
	sx, sy, sz := o.signs()
	// Elevation φ ≤ φmax: √2·sz·z − tan(φmax)·(sx·x + sy·y) ≤ 0, scaled by
	// den(φmax) > 0 to avoid the tangent; vacuous as φmax → π/2 (den → 0).
	if o.phiMaxDen > 1e-9*o.phiMaxA {
		n := geom.V3(-o.phiMaxA*sx, -o.phiMaxA*sy, math.Sqrt2*sz*o.phiMaxDen)
		hs = append(hs, geom.Plane{N: n.Unit()})
	}
	// Elevation φ ≥ φmin: negated; vacuous as φmin → 0 (a → 0).
	if o.phiMinA > 1e-9*o.phiMinDen {
		n := geom.V3(o.phiMinA*sx, o.phiMinA*sy, -math.Sqrt2*sz*o.phiMinDen)
		hs = append(hs, geom.Plane{N: n.Unit()})
	}
	return hs
}

// significantPoints3 returns the (cached) vertex candidates of the prism
// clipped by the bounding half-spaces: the paper's significant points for
// the 3-D case. The set always contains the polyhedron's true vertices
// (every vertex lies on a prism face, except possibly the origin, through
// which all four cutting planes pass).
func (o *octant) significantPoints3() []geom.Vec3 {
	if o.n == 0 {
		return nil
	}
	if !o.sigValid {
		o.sigCache = o.computeSignificant()
		o.witCache = o.computeWitnesses()
		o.sigValid = true
	}
	return o.sigCache
}

// computeSignificant performs the actual clipping.
func (o *octant) computeSignificant() []geom.Vec3 {
	hs := o.halfSpaces()
	var out []geom.Vec3
	for _, face := range o.prism.Faces() {
		poly := face[:]
		for _, h := range hs {
			poly = geom.ClipPolygonPlane3(poly, h)
			if len(poly) == 0 {
				break
			}
		}
		out = append(out, poly...)
	}
	if len(out) == 0 {
		// All faces clipped away numerically; fall back to the prism
		// corners (always a valid, if looser, enclosure).
		c := o.prism.Corners()
		return c[:]
	}
	if o.prism.Contains(geom.Vec3{}) {
		out = append(out, geom.Vec3{})
	}
	return out
}

// witnesses returns the (cached) tracked witness data points (≤ 10).
func (o *octant) witnesses() []geom.Vec3 {
	if o.n == 0 {
		return nil
	}
	if !o.sigValid {
		o.sigCache = o.computeSignificant()
		o.witCache = o.computeWitnesses()
		o.sigValid = true
	}
	return o.witCache
}

func (o *octant) computeWitnesses() []geom.Vec3 {
	w := []geom.Vec3{o.wMinX, o.wMaxX, o.wMinY, o.wMaxY, o.wMinZ, o.wMaxZ,
		o.wPhiMin, o.wPhiMax}
	if o.psiSet {
		w = append(w, o.wPsiMin, o.wPsiMax)
	}
	return w
}

// bounds computes the per-octant lower and upper bounds on the maximum
// deviation from the 3-D path line origin→le.
//
// The lower bound is the largest deviation among the tracked witness data
// points — every witness is a real data point, so this is always a valid
// floor, and it touches every face and bounding plane of the enclosure.
// The upper bound is the largest deviation among the significant points,
// whose convex hull contains every tracked point.
func (o *octant) bounds(le geom.Vec3, metric Metric) (dlb, dub float64) {
	if o.n == 0 {
		return 0, 0
	}
	origin := geom.Vec3{}
	distLB := func(p geom.Vec3) float64 { return geom.DistToLine3(p, origin, le) }
	distUB := distLB
	if metric == MetricSegment {
		distUB = func(p geom.Vec3) float64 { return geom.DistToSegment3(p, origin, le) }
	}
	for _, w := range o.witnesses() {
		if d := distLB(w); d > dlb {
			dlb = d
		}
	}
	for _, s := range o.significantPoints3() {
		if d := distUB(s); d > dub {
			dub = d
		}
	}
	// Guard against clip-rounding: the upper bound may never undercut the
	// witnessed lower bound.
	if metric == MetricLine && dub < dlb {
		dub = dlb
	} else if metric == MetricSegment {
		for _, w := range o.witnesses() {
			if d := distUB(w); d > dub {
				dub = d
			}
		}
	}
	return dlb, dub
}
