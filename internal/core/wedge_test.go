package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"github.com/trajcomp/bqs/internal/geom"
)

// quadrantsOnly is the paper's bound pair, what quadFrame.bounds returns
// with no tangent wedge: the four quadrants' bounds aggregated.
func quadrantsOnly(f *quadFrame, e Point, metric Metric) (dlb, dub float64) {
	le := f.local(e)
	for i := range f.quads {
		lb, ub := f.quads[i].boundsAt(le, metric)
		dlb, dub = max(dlb, lb), max(dub, ub)
	}
	return dlb, dub
}

// trackedSets are point sets relative to the segment start, in metres, each
// with the tolerance it is built against. The first five are built the way a
// segment grows (in order, away from the start); the rest are what a wedge
// mod π has to survive.
var trackedSets = []struct {
	name string
	eps  float64
	gen  func(rng *rand.Rand) []geom.Vec
}{
	// Long and thin: where the box ∩ wedge hull is loose and the tangent
	// wedge earns its state.
	{"thin", 10, func(rng *rand.Rand) []geom.Vec {
		h := rng.Float64() * 2 * math.Pi
		n := 6 + rng.Intn(60)
		out := make([]geom.Vec, n)
		for i := range out {
			along, across := 15*float64(i+1), rng.NormFloat64()*3
			out[i] = geom.V(along*math.Cos(h)-across*math.Sin(h), along*math.Sin(h)+across*math.Cos(h))
		}
		return out
	}},
	// A slow bend: the path line tilts away from the warm-up direction.
	{"bend", 10, func(rng *rand.Rand) []geom.Vec {
		h, turn := rng.Float64()*2*math.Pi, rng.NormFloat64()*0.01
		n := 6 + rng.Intn(60)
		out := make([]geom.Vec, n)
		var p geom.Vec
		for i := range out {
			h += turn
			p = p.Add(geom.V(12*math.Cos(h), 12*math.Sin(h)))
			out[i] = p
		}
		return out
	}},
	// All four quadrants, whatever the rotation; most of it within ε.
	{"cloud", 150, func(rng *rand.Rand) []geom.Vec {
		out := make([]geom.Vec, 5+rng.Intn(30))
		for i := range out {
			out[i] = geom.V(rng.NormFloat64()*80, rng.NormFloat64()*80)
		}
		return out
	}},
	{"spiral", 60, func(rng *rand.Rand) []geom.Vec {
		out := make([]geom.Vec, 8+rng.Intn(32))
		for i := range out {
			a, r := float64(i)*0.4, 10+float64(i)*4
			out[i] = geom.V(r*math.Cos(a), r*math.Sin(a))
		}
		return out
	}},
	// Exactly on the unrotated axes and diagonals.
	{"axes", 40, func(rng *rand.Rand) []geom.Vec {
		all := []geom.Vec{geom.V(50, 0), geom.V(0, 50), geom.V(-50, 0), geom.V(0, -50), geom.V(30, 30), geom.V(-30, 30), geom.V(60, 0)}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:5+rng.Intn(3)]
	}},
	// A ring at r ∈ (ε, 1.5 ε] on both sides of the start: wedges past a
	// quarter turn wide, whose intersection mod π comes apart into two arcs.
	{"ring", 10, func(rng *rand.Rand) []geom.Vec {
		h, spread := rng.Float64()*2*math.Pi, rng.Float64()*math.Pi
		out := make([]geom.Vec, 5+rng.Intn(6))
		for i := range out {
			a := h + (rng.Float64()-0.5)*spread + float64(rng.Intn(2))*math.Pi
			r := 10 * (1.0001 + 0.4999*rng.Float64())
			out[i] = geom.V(r*math.Cos(a), r*math.Sin(a))
		}
		return out
	}},
	// Out along a heading, back through the start and out the other side.
	{"doubleback", 10, func(rng *rand.Rand) []geom.Vec {
		h := rng.Float64() * 2 * math.Pi
		reach := 4 + rng.Intn(12)
		out := make([]geom.Vec, 0, 4*reach)
		for i := 1; i <= 3*reach; i++ {
			along := 9 * float64(i)
			if i > reach {
				along = 9 * float64(2*reach-i)
			}
			across := rng.NormFloat64() * 2
			out = append(out, geom.V(along*math.Cos(h)-across*math.Sin(h), along*math.Sin(h)+across*math.Cos(h)))
		}
		return out
	}},
	// Exact multiples of one integer vector, both senses, with repeats, the
	// start itself among them: every cross product of two members is ±0.
	{"collinear", 10, func(rng *rand.Rand) []geom.Vec {
		d := [...]geom.Vec{geom.V(3, 4), geom.V(1, 0), geom.V(0, -1), geom.V(-5, 12)}[rng.Intn(4)]
		out := make([]geom.Vec, 6+rng.Intn(20))
		for i := range out {
			out[i] = d.Scale(float64(rng.Intn(41) - 20))
		}
		return out
	}},
}

// frameEnds returns candidate end points for a frame of tracked points
// (relative to the start, in metres): random ones, the direction the points
// left in, a sweep of bearings about the rotation, path lines too short to
// have a direction, and lines grazing a tracked point's ε-circle a hair
// inside and outside its tangents.
func frameEnds(rng *rand.Rand, f *quadFrame, tracked []geom.Vec, eps float64) []geom.Vec {
	last := tracked[len(tracked)-1]
	ends := []geom.Vec{
		last.Scale(1.1),
		last.Add(geom.V(rng.NormFloat64()*8, rng.NormFloat64()*8)),
		geom.V(rng.NormFloat64()*200, rng.NormFloat64()*200),
		{},
		geom.V(3e-10, -2e-10),
	}
	for _, deg := range []float64{0, 1, -3, 11, -32, 45, 90, -90, 135, 180} {
		a := f.rot + deg*math.Pi/180
		l := 50 + rng.Float64()*500
		ends = append(ends, geom.V(l*math.Cos(a), l*math.Sin(a)))
	}
	for k := 0; k < 4; k++ {
		v := tracked[rng.Intn(len(tracked))]
		if r := v.Norm(); r > eps {
			side := float64(2*rng.Intn(2) - 1)
			graze := side * (math.Asin(eps/r) + []float64{-1e-3, -1e-7, 1e-7, 1e-3}[k])
			ends = append(ends, v.Rotate(graze).Scale(0.3+2*rng.Float64()))
		}
	}
	return ends
}

// frameCase is one tracked set in one frame: scaled, anchored, oriented or
// not, inserted.
type frameCase struct {
	name  string
	f     *quadFrame
	pts   []Point    // the tracked set as raw points
	ends  []geom.Vec // candidate ends, relative to the start, unscaled
	raw   func(geom.Vec) Point
	scale float64
}

// walkFrames visits every tracked set × scale {1, 1e150} × warm-up {0, 5},
// trials times over.
func walkFrames(seed int64, trials int, visit func(c frameCase)) {
	rng := rand.New(rand.NewSource(seed))
	origin := geom.V(1234.5, -987.25)
	for trial := 0; trial < trials; trial++ {
		for _, set := range trackedSets {
			local := set.gen(rng)
			for _, scale := range []float64{1, 1e150} {
				for _, warmup := range []int{0, DefaultRotationWarmup} {
					raw := func(v geom.Vec) Point {
						w := origin.Add(v).Scale(scale)
						return Point{X: w.X, Y: w.Y}
					}
					pts := make([]Point, len(local))
					for i, v := range local {
						pts[i] = raw(v)
						pts[i].T = float64(i + 1)
					}
					f := &quadFrame{lineFrame: lineFrame{tol: set.eps * scale}}
					f.anchor(raw(geom.Vec{}))
					rest := pts
					if warmup > 0 {
						f.orient(pts[:warmup])
						rest = pts[warmup:]
					}
					for _, p := range rest {
						f.insert(p)
					}
					visit(frameCase{
						name: fmt.Sprintf("%s/scale=%g/warmup=%d", set.name, scale, warmup),
						f:    f, pts: pts, ends: frameEnds(rng, f, local, set.eps), raw: raw, scale: scale,
					})
				}
			}
		}
	}
}

// TestFrameBoundsSandwich is the frame's licence: over random and adversarial
// tracked sets × end points the frame's bounds sandwich the exact deviation,
// with and without the data-centric rotation, at metre and at 1e150 scale.
// Beyond that it pins when the wedge may speak: never on the lower bound,
// never under the segment metric, never for a sub-Eps path line, never when
// the quadrants' bounds do not straddle the tolerance — and then only to
// lower the upper bound to the tolerance itself. A NaN or ±Inf bound passes
// the sandwich by comparing false, which is how the decision loop reads it:
// dub ≤ d is false, so it can cut but never include.
func TestFrameBoundsSandwich(t *testing.T) {
	fired := map[string]int{}
	walkFrames(26, 300, func(c frameCase) {
		f, tol := c.f, c.f.tol
		for _, end := range c.ends {
			e := c.raw(end)
			for _, metric := range []Metric{MetricLine, MetricSegment} {
				truth := MaxDeviation(c.pts, f.origin, e, metric)
				qlb, qub := quadrantsOnly(f, e, metric)
				lb, ub := f.bounds(e, metric)
				if slack := 1e-9 * (c.scale + truth); lb > truth+slack || ub < truth-slack {
					t.Fatalf("%s metric %v e=%v: bounds [%v, %v] miss the deviation %v (quadrants alone [%v, %v])",
						c.name, metric, end, lb, ub, truth, qlb, qub)
				}
				if !sameFloat(lb, qlb) {
					t.Fatalf("%s metric %v e=%v: lower bound %v moved off the quadrants' %v", c.name, metric, end, lb, qlb)
				}
				if sameFloat(ub, qub) {
					continue
				}
				switch {
				case ub != tol:
					t.Fatalf("%s metric %v e=%v: upper bound %v is neither the quadrants' %v nor the tolerance %v", c.name, metric, end, ub, qub, tol)
				case metric == MetricSegment:
					t.Fatalf("%s e=%v: the wedge lowered a segment-metric bound %v → %v", c.name, end, qub, ub)
				case f.local(e).Norm() < geom.Eps:
					t.Fatalf("%s e=%v: the wedge lowered the bound of a degenerate path line %v → %v", c.name, end, qub, ub)
				case !(qlb <= tol && tol < qub):
					t.Fatalf("%s e=%v: the wedge answered with nothing to decide: quadrants' (%v, %v), tolerance %v", c.name, end, qlb, qub, tol)
				}
				fired[c.name]++
			}
		}
	})
	// Not vacuous: the wedge decided something in the families whose
	// segments are long, at both scales, rotated or not.
	for _, set := range []string{"thin", "bend", "doubleback"} {
		for _, scale := range []float64{1, 1e150} {
			for _, warmup := range []int{0, DefaultRotationWarmup} {
				name := fmt.Sprintf("%s/scale=%g/warmup=%d", set, scale, warmup)
				if fired[name] == 0 {
					t.Errorf("%s: the wedge never lowered the upper bound", name)
				}
			}
		}
	}
}

func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// TestWedgeExact holds the wedge to its iff against the brute-force
// deviation, asked directly (not only in the straddle). Soundness, always: an
// admitted path line has every tracked point within ε(1 + 1e-12). Exactness,
// for a wedge that dropped no arc: a refused path line has some tracked point
// beyond ε(1 − 1e-12) — also where the wedge is shut, which none of these
// sets may do by overflowing a tangent.
func TestWedgeExact(t *testing.T) {
	type tally struct{ admitted, refused, dropped, shut int }
	seen := map[string]*tally{}
	walkFrames(28, 300, func(c frameCase) {
		f, eps := c.f, c.f.tol
		n := seen[c.name]
		if n == nil {
			n = &tally{}
			seen[c.name] = n
		}
		if f.wedge.lo != f.wedge.lo {
			n.shut++
		}
		if f.wedge.dropped > 0 {
			n.dropped++
		}
		for _, end := range c.ends {
			e := c.raw(end)
			le := f.local(e)
			if le.Norm() < geom.Eps {
				continue
			}
			truth := MaxDeviation(c.pts, f.origin, e, MetricLine)
			if f.wedge.admits(le) {
				n.admitted++
				if !(truth <= eps*(1+1e-12)) {
					t.Fatalf("%s e=%v: admitted, but a tracked point deviates %v > ε = %v (wedge %+v)", c.name, end, truth, eps, f.wedge)
				}
			} else if f.wedge.dropped == 0 {
				n.refused++
				if !(truth > eps*(1-1e-12)) {
					t.Fatalf("%s e=%v: refused by an unsplit wedge, but every tracked point is within %v < ε = %v (wedge %+v)", c.name, end, truth, eps, f.wedge)
				}
			}
		}
	})
	var total tally
	for name, n := range seen {
		if n.admitted == 0 || n.refused == 0 {
			t.Errorf("%s: %d admitted, %d refused: one side of the iff went untested", name, n.admitted, n.refused)
		}
		if set, _, _ := strings.Cut(name, "/"); (set == "ring" || set == "axes" || set == "cloud") && n.dropped == 0 {
			t.Errorf("%s: no intersection came apart into two arcs", name)
		}
		total.admitted, total.refused = total.admitted+n.admitted, total.refused+n.refused
		total.dropped, total.shut = total.dropped+n.dropped, total.shut+n.shut
	}
	t.Logf("%d frame families: %+v", len(seen), total)
}

// TestWedgePoisonedByOverflow: local coordinates that overflow on their way
// into the frame must not leave the wedge admitting a line it did not
// measure, whatever is inserted after; the next anchor clears it.
func TestWedgePoisonedByOverflow(t *testing.T) {
	for _, v := range []geom.Vec{
		{X: math.Inf(1), Y: 5}, {X: 5, Y: math.Inf(-1)}, {X: math.NaN(), Y: 5}, {X: 5, Y: math.NaN()},
		{X: math.Inf(1), Y: math.Inf(-1)}, {X: math.MaxFloat64, Y: math.MaxFloat64}, {X: 1e160, Y: 1},
	} {
		var w wedge
		w.insert(geom.V(100, 1), 10)
		w.insert(v, 10)
		w.insert(geom.V(200, -1), 10)
		for _, deg := range []float64{-40, -2, -1, 0, 0.5, 1, 2, 5, 32, 90} {
			a := deg * math.Pi / 180
			if w.admits(geom.V(300*math.Cos(a), 300*math.Sin(a))) {
				t.Errorf("after inserting %v the wedge admits the line at %v°", v, deg)
			}
		}
	}
	f := &quadFrame{lineFrame: lineFrame{tol: 10}}
	f.anchor(Point{})
	f.insert(Point{X: math.Inf(1), Y: 5})
	f.anchor(Point{X: 1, Y: 1})
	f.insert(Point{X: 101, Y: 2})
	if !f.wedge.admits(geom.V(300, 3)) {
		t.Error("a shut wedge survived the next anchor")
	}
}

// TestBoundHoldsAtExtremeScale drives both modes over a smooth track at
// 1e150 and 1e153 times metre scale — products of two coordinates reach past
// 1e306 and overflow in places — and holds the emitted key points to the
// tolerance: whatever the bounds turned into, they cut, they did not include.
func TestBoundHoldsAtExtremeScale(t *testing.T) {
	for _, scale := range []float64{1e150, 1e153} {
		for _, mode := range []Mode{ModeFast, ModeExact} {
			pts := smoothWalk(rand.New(rand.NewSource(5)), 4000)
			for i := range pts {
				pts[i].X *= scale
				pts[i].Y *= scale
			}
			tol := 10 * scale
			c := mustCompressor(t, Config{Tolerance: tol, Mode: mode, RotationWarmup: -1})
			keys := c.CompressBatch(pts)
			if len(keys) < 2 {
				t.Errorf("scale %g %v: %d key points of %d fixes", scale, mode, len(keys), len(pts))
			}
			// The oracle is rescaled to metres so that it does not overflow
			// where the compressor had to cope.
			down := func(ps []Point) []Point {
				out := make([]Point, len(ps))
				for i, p := range ps {
					out[i] = Point{X: p.X / scale, Y: p.Y / scale, T: p.T}
				}
				return out
			}
			if dev := Deviation(down(pts), down(keys), MetricLine.Dist); !(dev <= 10*(1+1e-9)) {
				t.Errorf("scale %g %v: worst deviation %v × scale exceeds the tolerance", scale, mode, dev)
			}
		}
	}
}

// smoothWalk is a track of long thin segments — 12 m steps, a heading that
// drifts by about a degree a step and turns sharply every hundred or so —
// the regime of the paper's Section VI-A walk, where FBQS's uncertain cuts
// are.
func smoothWalk(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	var x, y float64
	h := rng.Float64() * 2 * math.Pi
	for i := range pts {
		if rng.Intn(100) == 0 {
			h += rng.NormFloat64()
		}
		h += rng.NormFloat64() * 0.02
		x += 12 * math.Cos(h)
		y += 12 * math.Sin(h)
		pts[i] = Point{X: x + rng.NormFloat64(), Y: y + rng.NormFloat64(), T: float64(i)}
	}
	return pts
}

// TestFrameStateIsCounted pins what a 2-D frame holds
// (TestFastModeConstantSpace: nothing that grows with the segment). FBQS's
// line frame is the segment start, the tolerance and the wedge — two vectors
// and the dropped-arc counter — in at most 80 B; the quadrant frame is that
// plus the rotation and four quadrants.
func TestFrameStateIsCounted(t *testing.T) {
	w, line := unsafe.Sizeof(wedge{}), unsafe.Sizeof(lineFrame{})
	if w > 48 || line != unsafe.Sizeof(Point{})+8+w || line > 80 {
		t.Errorf("wedge is %d B and the line frame %d B, want a wedge ≤ 48 B + the start and the tolerance, ≤ 80 B", w, line)
	}
	if quad := unsafe.Sizeof(quadFrame{}); quad != line+3*8+4*unsafe.Sizeof(quadrant{}) {
		t.Errorf("quadFrame is %d B, want the line frame's %d B + the rotation + four quadrants", quad, line)
	}
}
