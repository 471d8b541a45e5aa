package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestGridSnap pins the grid frame's snap on a wedge built by hand — the
// start at the origin, ε = 1 m, points tracked at (100, 0) and (100, 1.5),
// so that a line keeps both within ε only at slopes of about 0.005 to 0.01 —
// on a grid of 1 m.
func TestGridSnap(t *testing.T) {
	f := gridFrame{lineFrame{tol: 1}, 1, 1}
	f.anchor(Point{T: 10})
	for i, c := range []struct {
		p, want Point
	}{
		{Point{X: 3.4, Y: -0.2, T: 10}, Point{T: 10}},             // at the start's time, nothing tracked: the start
		{Point{X: 3.4, Y: -0.2, T: 11}, Point{X: 3, Y: 0, T: 11}}, // nothing tracked: the nearest point
		{Point{X: 0.3, Y: 0.2, T: 11}, Point{X: 0, Y: 0, T: 11}},  // the start's place, nothing tracked: it is within ε of every line
		{Point{X: 7, Y: -2, T: 11}, Point{X: 7, Y: -2, T: 11}},    // on the grid already
		{Point{X: 1.5, Y: -0.5, T: 11}, Point{X: 2, Y: 0, T: 11}}, // a tie rounds to even
	} {
		if got := f.snap(c.p); got != c.want {
			t.Errorf("case %d, nothing tracked: snap(%v) = %v, want %v", i, c.p, got, c.want)
		}
	}
	f.insert(Point{X: 100})
	f.insert(Point{X: 100, Y: 1.5})
	for _, c := range []struct {
		what    string
		p, want Point
	}{
		{"the nearest admitted", Point{X: 120.3, Y: 0.7, T: 12}, Point{X: 120, Y: 1, T: 12}},
		{"the nearest refused, the one across y admitted", Point{X: 120.3, Y: 0.45, T: 12}, Point{X: 120, Y: 1, T: 12}},
		{"no corner admitted: the fix", Point{X: 60.3, Y: 0.45, T: 12}, Point{X: 60.3, Y: 0.45, T: 12}},
		{"the start, which has no direction, and no corner admitted", Point{T: 12}, Point{T: 12}},
		{"at the start's time, something tracked", Point{X: 120.3, Y: 0.7, T: 10}, Point{X: 120, Y: 1, T: 10}},
	} {
		if got := f.snap(c.p); got != c.want {
			t.Errorf("%s: snap(%v) = %v, want %v", c.what, c.p, got, c.want)
		}
	}
	f.wedge.lo, f.wedge.hi = noDirection, noDirection // no line fits every point
	if p := (Point{X: 120.3, Y: 0.7, T: 12}); f.snap(p) != p {
		t.Errorf("a wedge that admits nothing snapped %v to %v", p, f.snap(p))
	}

	// On the plane's edge the nearest grid point can lie past it: the corner
	// inside is taken, or where the wedge refuses that, the fix. The grid of
	// 2 m from 101.7 m inside the edge puts the point nearest a fix 0.5 m
	// inside it 0.3 m outside, the corner inside 1.7 m inside.
	for _, sx := range []float64{1, -1} {
		for _, sy := range []float64{1, -1} {
			start := Point{X: sx * (planeX - 101.7), Y: sy * (planeY - 101.7), T: 1}
			for _, c := range []struct {
				what    string
				track   bool
				p, want Point
			}{
				{"east or west", false, Point{X: sx * (planeX - 0.5), Y: start.Y, T: 2}, Point{X: sx * (planeX - 1.7), Y: start.Y, T: 2}},
				{"north or south", false, Point{X: start.X, Y: sy * (planeY - 0.5), T: 2}, Point{X: start.X, Y: sy * (planeY - 1.7), T: 2}},
				{"the corner inside refused", true, Point{X: sx * (planeX - 0.5), Y: start.Y, T: 2}, Point{X: sx * (planeX - 0.5), Y: start.Y, T: 2}},
			} {
				f := gridFrame{lineFrame{tol: 1}, 2, 0.5}
				f.anchor(start)
				if c.track { // a point 1 km off at a slope of 0.03 narrows the wedge to ±0.001 about it
					f.insert(Point{X: start.X + sx*1000, Y: start.Y + sy*30})
				}
				got := f.snap(c.p)
				if math.Abs(got.X) > planeX || math.Abs(got.Y) > planeY || math.Abs(got.X-c.want.X) > 1e-6 || math.Abs(got.Y-c.want.Y) > 1e-6 {
					t.Errorf("at the edge, %s (%+g, %+g): snap(%v) = %v, want %v", c.what, sx, sy, c.p, got, c.want)
				}
			}
		}
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
