package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/geom"
)

// refOctant is the pre-rewrite angle-based 3-D bounding structure: Atan2
// per insert for azimuth and inclination, Sincos/Tan when building the
// bounding-plane normals. The trig-free octant must agree with it on the
// witnesses it selects and (up to clip rounding at the normals' last ulp)
// on the bounds it produces.
type refOctant struct {
	idx int
	n   int

	prism                                    geom.Box3
	wMinX, wMaxX, wMinY, wMaxY, wMinZ, wMaxZ geom.Vec3

	psiMin, psiMax   float64
	wPsiMin, wPsiMax geom.Vec3
	psiSet           bool

	phiMin, phiMax   float64
	wPhiMin, wPhiMax geom.Vec3
}

func (o *refOctant) signs() (sx, sy, sz float64) {
	sx = []float64{1, -1, -1, 1}[o.idx%4]
	sy = []float64{1, 1, -1, -1}[o.idx%4]
	sz = 1
	if o.idx >= 4 {
		sz = -1
	}
	return sx, sy, sz
}

func (o *refOctant) inclination(p geom.Vec3) float64 {
	sx, sy, sz := o.signs()
	den := sx*p.X + sy*p.Y
	return math.Atan2(math.Sqrt2*sz*p.Z, den)
}

func (o *refOctant) reset(idx int) {
	*o = refOctant{idx: idx, prism: geom.EmptyBox3()}
}

func (o *refOctant) insert(p geom.Vec3) {
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

	if p.XY().Norm() > geom.Eps {
		psi := p.XY().Angle()
		if !o.psiSet {
			o.psiMin, o.psiMax = psi, psi
			o.wPsiMin, o.wPsiMax = p, p
			o.psiSet = true
		} else {
			if psi < o.psiMin {
				o.psiMin, o.wPsiMin = psi, p
			}
			if psi > o.psiMax {
				o.psiMax, o.wPsiMax = psi, p
			}
		}
	}

	phi := o.inclination(p)
	if o.n == 0 {
		o.phiMin, o.phiMax = phi, phi
		o.wPhiMin, o.wPhiMax = p, p
	} else {
		if phi < o.phiMin {
			o.phiMin, o.wPhiMin = phi, p
		}
		if phi > o.phiMax {
			o.phiMax, o.wPhiMax = phi, p
		}
	}
	o.n++
}

func (o *refOctant) halfSpaces() []geom.Plane {
	var hs []geom.Plane
	if o.psiSet {
		sMin, cMin := math.Sincos(o.psiMin)
		hs = append(hs, geom.Plane{N: geom.V3(sMin, -cMin, 0)})
		sMax, cMax := math.Sincos(o.psiMax)
		hs = append(hs, geom.Plane{N: geom.V3(-sMax, cMax, 0)})
	}
	sx, sy, sz := o.signs()
	if o.phiMax < math.Pi/2-1e-9 {
		t := math.Tan(o.phiMax)
		hs = append(hs, geom.Plane{N: geom.V3(-t*sx, -t*sy, math.Sqrt2*sz)})
	}
	if o.phiMin > 1e-9 {
		t := math.Tan(o.phiMin)
		hs = append(hs, geom.Plane{N: geom.V3(t*sx, t*sy, -math.Sqrt2*sz)})
	}
	return hs
}

func (o *refOctant) computeSignificant() []geom.Vec3 {
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
		c := o.prism.Corners()
		return c[:]
	}
	if o.prism.Contains(geom.Vec3{}) {
		out = append(out, geom.Vec3{})
	}
	return out
}

func (o *refOctant) witnessSet() []geom.Vec3 {
	w := []geom.Vec3{o.wMinX, o.wMaxX, o.wMinY, o.wMaxY, o.wMinZ, o.wMaxZ,
		o.wPhiMin, o.wPhiMax}
	if o.psiSet {
		w = append(w, o.wPsiMin, o.wPsiMax)
	}
	return w
}

func (o *refOctant) bounds(le geom.Vec3, metric Metric) (dlb, dub float64) {
	if o.n == 0 {
		return 0, 0
	}
	origin := geom.Vec3{}
	distLB := func(p geom.Vec3) float64 { return geom.DistToLine3(p, origin, le) }
	distUB := distLB
	if metric == MetricSegment {
		distUB = func(p geom.Vec3) float64 { return geom.DistToSegment3(p, origin, le) }
	}
	for _, w := range o.witnessSet() {
		if d := distLB(w); d > dlb {
			dlb = d
		}
	}
	for _, s := range o.computeSignificant() {
		if d := distUB(s); d > dub {
			dub = d
		}
	}
	if metric == MetricLine && dub < dlb {
		dub = dlb
	} else if metric == MetricSegment {
		for _, w := range o.witnessSet() {
			if d := distUB(w); d > dub {
				dub = d
			}
		}
	}
	return dlb, dub
}

// octantPoint draws a random point inside octant idx, occasionally on an
// axis or in the XY plane.
func octantPoint(rng *rand.Rand, idx int) geom.Vec3 {
	sx := []float64{1, -1, -1, 1}[idx%4]
	sy := []float64{1, 1, -1, -1}[idx%4]
	sz := 1.0
	if idx >= 4 {
		sz = -1
	}
	for {
		x := rng.Float64() * 50
		y := rng.Float64() * 50
		z := rng.Float64() * 50
		switch rng.Intn(10) {
		case 0:
			z = 0
		case 1:
			x, y = 0, 0
		case 2:
			x = 0
		}
		p := geom.V3(sx*x, sy*y, sz*z)
		if p != (geom.Vec3{}) && octantOf(p) == idx {
			return p
		}
	}
}

// TestOctantDifferentialBounds fuzzes insert sequences through the
// trig-free octant and the angle-based reference. Witness selection must
// match exactly; bounds must match up to the clip rounding introduced by
// the (differently scaled but identically oriented) plane normals.
func TestOctantDifferentialBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 4000; trial++ {
		idx := rng.Intn(8)
		var o octant
		var r refOctant
		o.reset(idx)
		r.reset(idx)
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			p := octantPoint(rng, idx)
			o.insert(p)
			r.insert(p)
		}
		if o.wPsiMin != r.wPsiMin || o.wPsiMax != r.wPsiMax {
			t.Fatalf("trial %d oct %d: azimuth witnesses diverge: (%v,%v) vs (%v,%v)",
				trial, idx, o.wPsiMin, o.wPsiMax, r.wPsiMin, r.wPsiMax)
		}
		if o.wPhiMin != r.wPhiMin || o.wPhiMax != r.wPhiMax {
			t.Fatalf("trial %d oct %d: inclination witnesses diverge: (%v,%v) vs (%v,%v)",
				trial, idx, o.wPhiMin, o.wPhiMax, r.wPhiMin, r.wPhiMax)
		}
		le := geom.V3(rng.NormFloat64()*40, rng.NormFloat64()*40, rng.NormFloat64()*40)
		if rng.Intn(10) == 0 {
			le = geom.Vec3{}
		}
		for _, m := range []Metric{MetricLine, MetricSegment} {
			lb, ub := o.bounds(le, m)
			rlb, rub := r.bounds(le, m)
			tol := 1e-6 * (1 + math.Max(ub, rub))
			if math.Abs(lb-rlb) > tol || math.Abs(ub-rub) > tol {
				t.Fatalf("trial %d oct %d metric %v le=%v: bounds diverge: (%v,%v) vs (%v,%v)",
					trial, idx, m, le, lb, ub, rlb, rub)
			}
		}
	}
}
