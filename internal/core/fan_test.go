package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/trajcomp/bqs/internal/geom"
)

// quadrantsOnly is the paper's bound pair, what quadFrame.bounds returns
// with no slope fan: the four quadrants' bounds aggregated.
func quadrantsOnly(f *quadFrame, e Point, metric Metric) (dlb, dub float64) {
	le := f.local(e)
	for i := range f.quads {
		lb, ub := f.quads[i].boundsAt(le, metric)
		dlb, dub = max(dlb, lb), max(dub, ub)
	}
	return dlb, dub
}

// trackedSets are point sets relative to the segment start, each built the
// way a segment grows (in order, away from the start), in metres.
var trackedSets = []struct {
	name string
	gen  func(rng *rand.Rand) []geom.Vec
}{
	// Long and thin: where the box ∩ wedge hull is loose and the fan earns
	// its state.
	{"thin", func(rng *rand.Rand) []geom.Vec {
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
	{"bend", func(rng *rand.Rand) []geom.Vec {
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
	// All four quadrants, whatever the rotation.
	{"cloud", func(rng *rand.Rand) []geom.Vec {
		out := make([]geom.Vec, 5+rng.Intn(30))
		for i := range out {
			out[i] = geom.V(rng.NormFloat64()*80, rng.NormFloat64()*80)
		}
		return out
	}},
	{"spiral", func(rng *rand.Rand) []geom.Vec {
		out := make([]geom.Vec, 40)
		for i := range out {
			a, r := float64(i)*0.4, 10+float64(i)*4
			out[i] = geom.V(r*math.Cos(a), r*math.Sin(a))
		}
		return out
	}},
	// Exactly on the unrotated axes and diagonals.
	{"axes", func(rng *rand.Rand) []geom.Vec {
		return []geom.Vec{geom.V(50, 0), geom.V(0, 50), geom.V(-50, 0), geom.V(0, -50), geom.V(30, 30), geom.V(-30, 30), geom.V(60, 0)}
	}},
}

// frameEnds returns candidate end points for a frame: random ones, the
// direction the tracked points left in, path lines whose normal sits inside,
// exactly on, just past and far outside the fan's ±32° about the local y
// axis, and path lines too short to have a direction.
func frameEnds(rng *rand.Rand, f *quadFrame, last geom.Vec) []geom.Vec {
	ends := []geom.Vec{
		last.Scale(1.1),
		last.Add(geom.V(rng.NormFloat64()*8, rng.NormFloat64()*8)),
		geom.V(rng.NormFloat64()*200, rng.NormFloat64()*200),
		{},
		geom.V(3e-10, -2e-10),
	}
	for _, deg := range []float64{0, 1, -3, 11, -31.999, 32, -32, 32.001, 45, 90, -90, 135, 180} {
		a := f.rot + deg*math.Pi/180
		l := 50 + rng.Float64()*500
		ends = append(ends, geom.V(l*math.Cos(a), l*math.Sin(a)))
	}
	return ends
}

// TestFrameBoundsSandwich is the fan's licence: over random and adversarial
// tracked sets × end points the frame's bounds still sandwich the exact
// deviation, with and without the data-centric rotation, at metre and at
// 1e150 scale. Beyond that it pins when the fan may speak: never on the
// lower bound, never under the segment metric, never for a sub-Eps path
// line or a normal outside its range, never when the quadrants' bounds do
// not straddle the tolerance — and then only to lower the upper bound. A NaN
// or ±Inf bound passes the sandwich by comparing false, which is how the
// decision loop reads it: dub ≤ d is false, so it can cut but never include.
func TestFrameBoundsSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	origin := geom.V(1234.5, -987.25)
	fired := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		for _, set := range trackedSets {
			local := set.gen(rng)
			for _, scale := range []float64{1, 1e150} {
				for _, warmup := range []int{0, DefaultRotationWarmup} {
					name := fmt.Sprintf("%s/scale=%g/warmup=%d", set.name, scale, warmup)
					pts := make([]Point, len(local))
					for i, v := range local {
						w := origin.Add(v).Scale(scale)
						pts[i] = Point{X: w.X, Y: w.Y, T: float64(i + 1)}
					}
					o := origin.Scale(scale)
					f := &quadFrame{}
					f.anchor(Point{X: o.X, Y: o.Y})
					rest := pts
					if warmup > 0 {
						f.orient(pts[:warmup])
						rest = pts[warmup:]
					}
					for _, p := range rest {
						f.insert(p)
					}
					for _, end := range frameEnds(rng, f, local[len(local)-1]) {
						w := origin.Add(end).Scale(scale)
						e := Point{X: w.X, Y: w.Y, T: 1e6}
						for _, metric := range []Metric{MetricLine, MetricSegment} {
							truth := MaxDeviation(pts, f.origin, e, metric)
							qlb, qub := quadrantsOnly(f, e, metric)
							slack := 1e-9 * (scale + truth)

							// Outside the straddle the fan is not asked.
							for _, tol := range []float64{qlb / 2, qub, qub * 2} {
								if qlb <= tol && tol < qub {
									continue // qlb = 0
								}
								f.tol = tol
								if lb, ub := f.bounds(e, metric); !sameFloat(lb, qlb) || !sameFloat(ub, qub) {
									t.Fatalf("%s metric %v tol %v e=%v: bounds (%v, %v) moved off the quadrants' (%v, %v) with nothing to decide",
										name, metric, tol, end, lb, ub, qlb, qub)
								}
							}

							f.tol = (qlb + qub) / 2
							lb, ub := f.bounds(e, metric)
							if lb > truth+slack || ub < truth-slack {
								t.Fatalf("%s metric %v e=%v: bounds [%v, %v] miss the deviation %v (quadrants alone [%v, %v])",
									name, metric, end, lb, ub, truth, qlb, qub)
							}
							if !sameFloat(lb, qlb) || ub > qub {
								t.Fatalf("%s metric %v e=%v: bounds (%v, %v) against the quadrants' (%v, %v): the fan may only lower the upper bound",
									name, metric, end, lb, ub, qlb, qub)
							}
							if sameFloat(ub, qub) {
								continue
							}
							le := f.local(e)
							tilt := math.Abs(math.Atan(le.Y/le.X)) * 180 / math.Pi // of the normal from the local y axis
							switch {
							case metric == MetricSegment:
								t.Fatalf("%s e=%v: the fan lowered a segment-metric bound %v → %v", name, end, qub, ub)
							case le.Norm() < geom.Eps:
								t.Fatalf("%s e=%v: the fan lowered the bound of a degenerate path line %v → %v", name, end, qub, ub)
							case tilt > 32+1e-6:
								t.Fatalf("%s e=%v: the fan answered for a normal %.4f° off its axis range", name, end, tilt)
							}
							fired[name]++
						}
					}
				}
			}
		}
	}
	// Not vacuous: the fan tightened something in every family of sets, at
	// both scales, rotated or not.
	for _, set := range trackedSets {
		for _, scale := range []float64{1, 1e150} {
			for _, warmup := range []int{0, DefaultRotationWarmup} {
				name := fmt.Sprintf("%s/scale=%g/warmup=%d", set.name, scale, warmup)
				if fired[name] == 0 {
					t.Errorf("%s: the fan never lowered the upper bound", name)
				}
			}
		}
	}
}

func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// TestFanPoisonedByOverflow: local coordinates that overflow on their way
// into the frame must not leave the fan claiming a finite bound it did not
// measure.
func TestFanPoisonedByOverflow(t *testing.T) {
	for _, v := range []geom.Vec{
		{X: math.Inf(1), Y: 5}, {X: 5, Y: math.Inf(-1)}, {X: math.NaN(), Y: 5}, {X: 5, Y: math.NaN()},
		{X: math.Inf(1), Y: math.Inf(-1)}, {X: math.MaxFloat64, Y: math.MaxFloat64},
	} {
		var s slopeFan
		s.insert(geom.V(100, 1))
		s.insert(v)
		s.insert(geom.V(200, -1))
		for _, deg := range []float64{-40, -32, -20, -2, -1, 0, 1, 2, 5, 32, 90} {
			a := deg * math.Pi / 180
			le := geom.V(300*math.Cos(a), 300*math.Sin(a))
			if ub := s.upper(le, 1/le.Norm()); ub < 1e300 {
				t.Errorf("after inserting %v the fan bounds the line at %v° by %v", v, deg, ub)
			}
		}
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

// TestFrameStateIsCounted pins what the fan added to a session: two scalars
// per axis and the tolerance (TestFastModeConstantSpace: nothing that grows
// with the segment).
func TestFrameStateIsCounted(t *testing.T) {
	const parent = unsafe.Sizeof(Point{}) + 3*8 // origin, rot, rotSin, rotCos
	grew := unsafe.Sizeof(quadFrame{}) - parent - 4*unsafe.Sizeof(quadrant{})
	if grew > 192 || grew != unsafe.Sizeof(slopeFan{})+8 {
		t.Errorf("quadFrame grew by %d B over its quadrants (fan %d B), want fan + tolerance ≤ 192 B", grew, unsafe.Sizeof(slopeFan{}))
	}
	if got := unsafe.Sizeof(slopeFan{}); got != uintptr(fanAxes)*16 {
		t.Errorf("slopeFan is %d B for %d axes, want two float64 per axis", got, fanAxes)
	}
}
