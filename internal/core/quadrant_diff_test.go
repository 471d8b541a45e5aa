package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/geom"
)

// This file pins the trig-free quadrant rewrite to the original
// angle-based formulation: refQuadrant is a faithful copy of the previous
// implementation (Atan2 on insert, Sincos when clipping the bounding
// lines, angle folding for the line-in-quadrant test, closure-based
// distance evaluations). Fuzzed traces must produce the same extreme
// witnesses, the same bounds and — decisive for the emitted key points —
// the same include/cut decisions.

// refQuadrant is the pre-rewrite angle-based bounding structure.
type refQuadrant struct {
	idx                int
	n                  int
	box                geom.Box
	thetaMin, thetaMax float64
	pMin, pMax         geom.Vec
}

func (q *refQuadrant) reset(idx int) {
	*q = refQuadrant{idx: idx, box: geom.EmptyBox()}
}

func (q *refQuadrant) insert(v geom.Vec) {
	a := v.Angle()
	if q.n == 0 {
		q.thetaMin, q.thetaMax = a, a
		q.pMin, q.pMax = v, v
	} else {
		if a < q.thetaMin {
			q.thetaMin, q.pMin = a, v
		}
		if a > q.thetaMax {
			q.thetaMax, q.pMax = a, v
		}
	}
	q.box.Extend(v)
	q.n++
}

func (q *refQuadrant) lineInQuadrant(theta float64) bool {
	m := math.Mod(geom.NormalizeAngle(theta), math.Pi)
	if q.idx == 0 || q.idx == 2 {
		return m < math.Pi/2
	}
	return m >= math.Pi/2
}

func (q *refQuadrant) computeIntersections() (l1, l2, u1, u2 geom.Vec, ok bool) {
	ok = true
	dirMin := geom.Vec{X: math.Cos(q.thetaMin), Y: math.Sin(q.thetaMin)}
	dirMax := geom.Vec{X: math.Cos(q.thetaMax), Y: math.Sin(q.thetaMax)}
	var okL, okU bool
	l1, l2, okL = q.box.ClipLineThroughOrigin(dirMin)
	if !okL {
		l1, l2, ok = q.pMin, q.pMin, false
	}
	u1, u2, okU = q.box.ClipLineThroughOrigin(dirMax)
	if !okU {
		u1, u2, ok = q.pMax, q.pMax, false
	}
	return l1, l2, u1, u2, ok
}

func (q *refQuadrant) nearFarCorners() (cn, cf geom.Vec) {
	b := q.box
	switch q.idx {
	case 0:
		return b.Min, b.Max
	case 1:
		return geom.Vec{X: b.Max.X, Y: b.Min.Y}, geom.Vec{X: b.Min.X, Y: b.Max.Y}
	case 2:
		return b.Max, b.Min
	default:
		return geom.Vec{X: b.Min.X, Y: b.Max.Y}, geom.Vec{X: b.Max.X, Y: b.Min.Y}
	}
}

func (q *refQuadrant) bounds(le geom.Vec, norm float64, metric Metric) (dlb, dub float64) {
	if q.n == 0 {
		return 0, 0
	}
	theta := le.Angle()
	degenerate := norm < geom.Eps
	var inv float64
	if !degenerate {
		inv = 1 / norm
	}
	distLine := func(p geom.Vec) float64 {
		if degenerate {
			return math.Hypot(p.X, p.Y)
		}
		return math.Abs(le.X*p.Y-le.Y*p.X) * inv
	}
	distUB := distLine
	if metric == MetricSegment {
		distUB = func(p geom.Vec) float64 { return geom.DistToSegment(p, geom.Vec{}, le) }
	}
	l1, l2, u1, u2, clipOK := q.computeIntersections()
	cn, cf := q.nearFarCorners()

	dlb = math.Max(
		math.Min(distLine(l1), distLine(l2)),
		math.Min(distLine(u1), distLine(u2)),
	)

	corners := q.box.Corners()
	if !degenerate && q.lineInQuadrant(theta) {
		dlb = math.Max(dlb, math.Max(distLine(cn), distLine(cf)))
		if clipOK {
			dub = max(distUB(l1), distUB(l2), distUB(u1), distUB(u2))
			if metric == MetricSegment {
				dub = math.Max(dub, math.Max(distUB(cn), distUB(cf)))
			}
		} else {
			dub = max(distUB(corners[0]), distUB(corners[1]), distUB(corners[2]), distUB(corners[3]))
		}
		return dlb, dub
	}

	d0, d1, d2, d3 := distLine(corners[0]), distLine(corners[1]), distLine(corners[2]), distLine(corners[3])
	if !degenerate {
		dlb = math.Max(dlb, thirdLargest(d0, d1, d2, d3))
	} else {
		dlb = distLine(cn)
	}
	dub = max(distUB(corners[0]), distUB(corners[1]), distUB(corners[2]), distUB(corners[3]))
	return dlb, dub
}

// quadrantPoint draws a random point inside quadrant idx, occasionally on
// an axis to exercise boundary handling.
func quadrantPoint(rng *rand.Rand, idx int) geom.Vec {
	sx := []float64{1, -1, -1, 1}[idx]
	sy := []float64{1, 1, -1, -1}[idx]
	for {
		x := rng.Float64() * 100
		y := rng.Float64() * 100
		if rng.Intn(16) == 0 {
			x = 0
		}
		if rng.Intn(16) == 0 {
			y = 0
		}
		p := geom.V(sx*x, sy*y)
		if p != (geom.Vec{}) && quadrantOf(p) == idx {
			return p
		}
	}
}

// relClose compares two bound values with a relative tolerance that
// absorbs the last-ulp differences between the Sincos round-trip of the
// reference and the direct witness arithmetic of the rewrite.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// TestQuadrantDifferentialBounds fuzzes insert sequences and end points
// through both implementations and requires matching witnesses and bounds.
func TestQuadrantDifferentialBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	for trial := 0; trial < 20000; trial++ {
		idx := rng.Intn(4)
		var q quadrant
		var r refQuadrant
		q.reset(idx)
		r.reset(idx)
		n := 1 + rng.Intn(16)
		for i := 0; i < n; i++ {
			p := quadrantPoint(rng, idx)
			q.insert(p)
			r.insert(p)
		}
		if q.pMin != r.pMin || q.pMax != r.pMax {
			t.Fatalf("trial %d quad %d: witnesses diverge: cross (%v,%v) vs angle (%v,%v)",
				trial, idx, q.pMin, q.pMax, r.pMin, r.pMax)
		}
		e := geom.V(rng.NormFloat64()*80, rng.NormFloat64()*80)
		switch rng.Intn(12) {
		case 0:
			e = geom.Vec{}
		case 1:
			e = e.Scale(1e-8)
		case 2:
			e = geom.V(e.X, 0)
		case 3:
			e = geom.V(0, e.Y)
		}
		for _, m := range []Metric{MetricLine, MetricSegment} {
			lb, ub := q.boundsAt(e, m)
			rlb, rub := r.bounds(e, math.Hypot(e.X, e.Y), m)
			if !relClose(lb, rlb) || !relClose(ub, rub) {
				t.Fatalf("trial %d quad %d metric %v e=%v: bounds diverge: cross (%v,%v) vs angle (%v,%v)",
					trial, idx, m, e, lb, ub, rlb, rub)
			}
		}
	}
}

// refFrame is the production 2-D frame with the angle-based reference
// quadrants substituted for the trig-free ones: translation, rotation, the
// near-point test and the tangent wedge are quadFrame's, the bounding structure
// is refQuadrant's.
type refFrame struct {
	quadFrame
	refs [4]refQuadrant
}

func (f *refFrame) anchor(p Point) {
	f.quadFrame.anchor(p)
	for i := range f.refs {
		f.refs[i].reset(i)
	}
}

func (f *refFrame) orient(warmup []Point) {
	f.quadFrame.orient(warmup)
	for _, w := range warmup {
		f.insert(w)
	}
}

func (f *refFrame) insert(p Point) {
	lv := f.local(p)
	f.refs[quadrantOf(lv)].insert(lv)
	f.wedge.insert(lv, f.tol)
}

func (f *refFrame) bounds(e Point, metric Metric) (dlb, dub float64) {
	le := f.local(e)
	norm := math.Hypot(le.X, le.Y)
	for i := range f.refs {
		lb, ub := f.refs[i].bounds(le, norm, metric)
		dlb, dub = math.Max(dlb, lb), math.Max(dub, ub)
	}
	return dlb, f.wedgeBound(le, norm, metric, dlb, dub)
}

// TestQuadrantDifferentialDecisions runs the decision loop that ships —
// segmenter — over fuzzed random-walk traces, once on the production
// quadrant frame and once on the angle-based reference frame, and requires
// the same key point (or none) from every Push and the same Stats: every
// include, cut and exact scan falls the same way.
func TestQuadrantDifferentialDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		pts := randomWalk(rng, 2000, 5+rng.Float64()*20)
		cfg, err := Config{
			Tolerance:      10,
			Metric:         []Metric{MetricLine, MetricSegment}[trial%2],
			Mode:           []Mode{ModeFast, ModeExact}[trial/2%2],
			RotationWarmup: []int{0, DefaultRotationWarmup}[trial/4%2],
		}.Validate()
		if err != nil {
			t.Fatal(err)
		}
		line := lineFrame{tol: cfg.Tolerance}
		prod := newSegmenter[Point](cfg, &quadFrame{lineFrame: line})
		ref := newSegmenter[Point](cfg, &refFrame{quadFrame: quadFrame{lineFrame: line}})
		for i, p := range pts {
			kp, ok := prod.Push(p)
			rkp, rok := ref.Push(p)
			if kp != rkp || ok != rok {
				t.Fatalf("trial %d (%+v) point %d: decisions diverge: cross (%v, %v) vs angle (%v, %v)",
					trial, cfg, i, kp, ok, rkp, rok)
			}
		}
		kp, ok := prod.Flush()
		rkp, rok := ref.Flush()
		if kp != rkp || ok != rok {
			t.Fatalf("trial %d: flush diverges: cross (%v, %v) vs angle (%v, %v)", trial, kp, ok, rkp, rok)
		}
		if prod.Stats() != ref.Stats() {
			t.Fatalf("trial %d (%+v): stats diverge:\n cross %+v\n angle %+v", trial, cfg, prod.Stats(), ref.Stats())
		}
	}
}
