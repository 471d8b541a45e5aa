package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/trajcomp/bqs/internal/geom"
)

// TestGridSnap pins where the grid frame ends a segment, on streams small
// enough to follow by hand: ε = 10 m, a grid of 2 m anchored at the start,
// the origin at t = 0, one fix tracked at (100, 0) — a line through the
// start keeps it within ε at slopes within ±0.1005 — then the fix the key
// is for, at t = 2, and a flush. The key is the first grid point that fits:
// not the start, within ε of the fix, in the wedge, in the plane, and under
// the cap, which asks |q|² ≥ r2 − ε² of the largest squared distance r2 of a
// tracked fix.
func TestGridSnap(t *testing.T) {
	keys := func(pts ...Point) []Point {
		t.Helper()
		c, err := NewCompressor(Config{Tolerance: 10, Mode: ModeFast, Snap: true})
		if err != nil {
			t.Fatal(err)
		}
		return c.CompressBatch(pts)
	}
	s, e1 := Point{}, Point{X: 100, T: 1}
	for _, c := range []struct {
		what string
		pts  []Point
		want []Point
	}{
		{"one fix: its nearest grid point", []Point{s, {X: 3.4, Y: -0.2, T: 2}}, []Point{s, {X: 4, T: 2}}},
		{"the start's place at a later time: the corner away from it", []Point{s, {X: 0.3, Y: 0.2, T: 2}}, []Point{s, {X: 2, Y: 2, T: 2}}},
		{"the nearest", []Point{s, e1, {X: 150.3, Y: 0.9, T: 2}}, []Point{s, {X: 150, T: 2}}},
		// (150, 0) is 150.57 m short of the cap's √(150.9² + 0.9² − 10²).
		{"the nearest under the cap: the corner away", []Point{s, e1, {X: 150.9, Y: 0.9, T: 2}}, []Point{s, {X: 152, Y: 2, T: 2}}},
		// (150, 16) and (152, 18) lie past the slope of 0.1005 (100, 0)
		// allows; the fix's foot on the wedge's middle direction lies in the
		// cell from (150, 10), whose first corner is under the cap.
		{"both refused: a corner by a foot", []Point{s, e1, {X: 150, Y: 16, T: 2}}, []Point{s, {X: 152, Y: 10, T: 2}}},
		// No point within ε of (50, 0) is 99.5 m from the start: the segment
		// ends at (100, 0)'s own grid point, and (50, 0) starts the next.
		{"back towards the start: a cut", []Point{s, e1, {X: 50, T: 2}}, []Point{s, {X: 100, T: 1}, {X: 50, T: 2}}},
		// (−20, 0.5) is within ε of the line along (100, 0), behind the
		// start: no segment from it holds both.
		{"behind the start: a cut", []Point{s, e1, {X: -20, Y: 0.5, T: 2}}, []Point{s, {X: 100, T: 1}, {X: -20, T: 2}}},
	} {
		if got := keys(c.pts...); !slices.Equal(got, c.want) {
			t.Errorf("%s: keys %v, want %v", c.what, got, c.want)
		}
	}

	// A grid coarser than ε leaves a fix next to the start no grid point
	// but the start within ε: its key is the fix.
	f := gridFrame{lineFrame: lineFrame{tol: 1}, step: 1, inv: 1}
	f.anchor(Point{T: 10})
	if p := (Point{X: 0.3, Y: 0.2, T: 11}); f.snap(p) != p {
		t.Errorf("on a grid of ε, snap(%v) = %v, want the fix", p, f.snap(p))
	}

	// On the plane's edge every candidate for a fix 0.3 m inside it lies
	// past it, with nothing tracked and with the fix tracked, so the key is
	// the fix.
	for _, sx := range []float64{1, -1} {
		for _, sy := range []float64{1, -1} {
			for _, c := range []struct {
				what string
				p    Point // from the start, mirrored into the quadrant
			}{{"east or west, near", Point{X: 1.2, Y: 0.3}}, {"north or south, near", Point{X: 0.3, Y: 1.2}}, {"east or west, far", Point{X: 101.2}}} {
				start := Point{X: sx * (planeX - 1.5), Y: sy * (planeY - 1.5), T: 1}
				if c.p.X > 50 {
					start.X = sx * (planeX - 101.5)
				}
				fix := Point{X: start.X + sx*c.p.X, Y: start.Y + sy*c.p.Y, T: 2}
				if got := keys(start, fix); !slices.Equal(got, []Point{start, fix}) {
					t.Errorf("at the edge, %s (%+g, %+g): keys %v, want the start and the fix", c.what, sx, sy, got)
				}
			}
		}
	}
}

// TestGridNeverEndsAtTheStart: a segment whose wedge admits no grid point
// within ε of the newest fix but its start cuts there, and no key lies where
// the key before it does. The start is admitted by every wedge (its cross
// products are 0); as a joint it would end a segment of length zero, under
// which a line distance is a point distance. Fixes 1 km off at 0 and 15 m
// across leave slopes of 0.005 to 0.01, which no grid point near the start
// but the start has.
func TestGridNeverEndsAtTheStart(t *testing.T) {
	c, err := NewCompressor(Config{Tolerance: 10, Mode: ModeFast, Snap: true})
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{{}, {X: 1000, T: 1}, {X: 1000, Y: 15, T: 2}, {X: 0.4, Y: 0.3, T: 3}}
	var keys []Point
	for i, p := range pts {
		if i == len(pts)-1 {
			f := c.frame.(*gridFrame)
			for x := -6.0; x <= 6; x++ {
				for y := -6.0; y <= 6; y++ {
					q := geom.Vec{X: x * f.step, Y: y * f.step}
					if q != (geom.Vec{}) && q.Dist(p.Vec()) <= 10 && f.wedge.admits(q) {
						t.Fatalf("the wedge admits %v, within ε of %v", q, p)
					}
				}
			}
		}
		kp, ok := c.Push(p)
		if ok {
			keys = append(keys, kp)
		}
		if cut := i == len(pts)-1; ok != (i == 0 || cut) {
			t.Fatalf("push %d %v: key %v, %v; want one for the first fix and a cut at the last", i, p, kp, ok)
		}
	}
	if kp, ok := c.Flush(); ok {
		keys = append(keys, kp)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i].Vec() == keys[i-1].Vec() {
			t.Fatalf("keys %v: key %d lies where the key before it does", keys, i)
		}
	}
	if worst := Deviation(pts, keys, MetricSegment.Dist); worst > 10 {
		t.Fatalf("keys %v: a fix lies %g m from its segment", keys, worst)
	}
}

// TestGridKeepsTheStart: a key at the segment start never moves, so a flush
// after one fix — or after that fix again — emits no second key, at every
// tolerance (grid steps of 1 cm to 7 m) and wherever in the plane the fix is.
func TestGridKeepsTheStart(t *testing.T) {
	for _, tol := range []float64{0.01, 1.5, 5, 35} {
		for _, p := range []Point{{}, {X: 123456.78, Y: -8876543.21, T: 5}, {X: 0.005, Y: 1e7 + 0.015, T: 1}} {
			c, err := NewCompressor(Config{Tolerance: tol, Mode: ModeFast, Snap: true})
			if err != nil {
				t.Fatal(err)
			}
			for repeats := 1; repeats <= 2; repeats++ {
				var keys []Point
				for i := 0; i < repeats; i++ {
					if kp, ok := c.Push(p); ok {
						keys = append(keys, kp)
					}
				}
				if kp, ok := c.Flush(); ok {
					keys = append(keys, kp)
				}
				if len(keys) != 1 || keys[0] != p {
					t.Fatalf("tolerance %g, %d× %v: keys %v, want the fix once", tol, repeats, p, keys)
				}
			}
		}
	}
}

// TestGridConfig: only FBQS under the line metric snaps, on a grid of
// ε/5 in whole centimetres; it runs on the grid frame and keeps the bound
// on a random walk, with every key but the first on the grid of the key
// before it or its own fix.
func TestGridConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Tolerance: 10, Mode: ModeExact, Snap: true},
		{Tolerance: 10, Mode: ModeFast, Metric: MetricSegment, Snap: true},
	} {
		if _, err := NewCompressor(cfg); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
	for tol, want := range map[float64]float64{10: 2, 0.3: 0.06, 0.01: 0.01, 1e-6: 0.01, 0.333: 0.07} {
		if got := GridStep(tol); got != want {
			t.Errorf("GridStep(%g) = %g, want %g", tol, got, want)
		}
	}
	c, err := NewCompressor(Config{Tolerance: 10, Mode: ModeFast, RotationWarmup: -1, Snap: true})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := c.frame.(*gridFrame); !ok || f.step != 2 || c.Config().RotationWarmup != 0 {
		t.Fatalf("frame %#v, warm-up %d: want the grid frame of 2 m, no warm-up", c.frame, c.Config().RotationWarmup)
	}
	pts := randomWalk(rand.New(rand.NewSource(3)), 5000, 4)
	keys := c.CompressBatch(pts)
	if worst := Deviation(pts, keys, MetricLine.Dist); worst > 10 {
		t.Fatalf("worst deviation %g past ε", worst)
	}
	at := map[float64]Point{}
	for _, p := range pts {
		at[p.T] = p
	}
	moved := 0
	for i := 1; i < len(keys); i++ {
		d := keys[i].Vec().Sub(keys[i-1].Vec())
		if fix := at[keys[i].T]; keys[i] != fix {
			moved++
			if d = d.Scale(0.5); math.Abs(d.X-math.Round(d.X)) > 1e-6 || math.Abs(d.Y-math.Round(d.Y)) > 1e-6 {
				t.Fatalf("key %d %v: neither its fix %v nor on the grid of %v", i, keys[i], fix, keys[i-1])
			}
		}
	}
	if moved < len(keys)/2 {
		t.Fatalf("%d of %d keys snapped", moved, len(keys))
	}
}
