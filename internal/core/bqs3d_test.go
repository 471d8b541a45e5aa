package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/trajcomp/bqs/internal/geom"
)

func TestOctantOf(t *testing.T) {
	cases := []struct {
		v    geom.Vec3
		want int
	}{
		{geom.V3(1, 1, 1), 0},
		{geom.V3(-1, 1, 1), 1},
		{geom.V3(-1, -1, 1), 2},
		{geom.V3(1, -1, 1), 3},
		{geom.V3(1, 1, -1), 4},
		{geom.V3(-1, 1, -1), 5},
		{geom.V3(-1, -1, -1), 6},
		{geom.V3(1, -1, -1), 7},
		{geom.V3(0, 0, 0), 0},
	}
	for _, c := range cases {
		if got := octantOf(c.v); got != c.want {
			t.Errorf("octantOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestOctantInclination(t *testing.T) {
	// inclinationPair represents φ = atan2(a, den); evaluate the angle it
	// encodes to pin the representation to the paper's definition.
	phi := func(o *octant, v geom.Vec3) float64 {
		den, a := o.inclinationPair(v)
		return math.Atan2(a, den)
	}
	var o octant
	o.reset(0)
	// A point in the XY plane has inclination 0.
	if got := phi(&o, geom.V3(1, 1, 0)); !almostEq(got, 0, 1e-12) {
		t.Errorf("planar inclination = %v", got)
	}
	// A point on the z axis has inclination π/2.
	if got := phi(&o, geom.V3(0, 0, 5)); !almostEq(got, math.Pi/2, 1e-12) {
		t.Errorf("axial inclination = %v", got)
	}
	// Symmetric point: z = (x+y)/√2 gives 45°.
	if got := phi(&o, geom.V3(1, 1, math.Sqrt2)); !almostEq(got, math.Pi/4, 1e-12) {
		t.Errorf("45° inclination = %v", got)
	}
	// Bottom octant: negative z maps positively.
	var ob octant
	ob.reset(4)
	if got := phi(&ob, geom.V3(1, 1, -math.Sqrt2)); !almostEq(got, math.Pi/4, 1e-12) {
		t.Errorf("bottom 45° inclination = %v", got)
	}
}

// Every tracked point must satisfy every emitted half-space constraint.
func TestOctantHalfSpacesContainPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 2000; trial++ {
		idx := rng.Intn(8)
		sx := []float64{1, -1, -1, 1}[idx%4]
		sy := []float64{1, 1, -1, -1}[idx%4]
		sz := 1.0
		if idx >= 4 {
			sz = -1
		}
		var o octant
		o.reset(idx)
		n := 1 + rng.Intn(15)
		pts := make([]geom.Vec3, n)
		for i := range pts {
			p := geom.V3(sx*rng.Float64()*50, sy*rng.Float64()*50, sz*rng.Float64()*50)
			if octantOf(p) != idx {
				p = geom.V3(sx*(rng.Float64()*50+0.01), sy*(rng.Float64()*50+0.01), sz*(rng.Float64()*50+0.01))
			}
			pts[i] = p
			o.insert(p)
		}
		for _, h := range o.halfSpaces() {
			for _, p := range pts {
				if h.Eval(p) > 1e-6*(1+p.Norm()) {
					t.Fatalf("trial %d oct %d: point %v violates half-space %+v (eval %v)",
						trial, idx, p, h, h.Eval(p))
				}
			}
		}
	}
}

// 3-D analogue of the bound sandwich property.
func TestOctantBoundsSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 8000; trial++ {
		idx := rng.Intn(8)
		sx := []float64{1, -1, -1, 1}[idx%4]
		sy := []float64{1, 1, -1, -1}[idx%4]
		sz := 1.0
		if idx >= 4 {
			sz = -1
		}
		var o octant
		o.reset(idx)
		n := 1 + rng.Intn(15)
		pts := make([]geom.Vec3, n)
		for i := range pts {
			x, y, z := rng.Float64()*50, rng.Float64()*50, rng.Float64()*50
			if rng.Intn(15) == 0 {
				x, y = 0, 0 // on the z axis
			}
			if rng.Intn(15) == 0 {
				z = 0 // in the XY plane
			}
			p := geom.V3(sx*x, sy*y, sz*z)
			if octantOf(p) != idx {
				p = geom.V3(sx*(x+0.01), sy*(y+0.01), sz*(z+0.01))
			}
			pts[i] = p
			o.insert(p)
		}
		e := geom.V3(rng.NormFloat64()*40, rng.NormFloat64()*40, rng.NormFloat64()*40)
		if rng.Intn(10) == 0 {
			e = geom.V3(0, 0, 0)
		}
		for _, m := range []Metric{MetricLine, MetricSegment} {
			lb, ub := o.bounds(e, m)
			var truth float64
			for _, p := range pts {
				var d float64
				if m == MetricSegment {
					d = geom.DistToSegment3(p, geom.Vec3{}, e)
				} else {
					d = geom.DistToLine3(p, geom.Vec3{}, e)
				}
				if d > truth {
					truth = d
				}
			}
			tol := 1e-6 * (1 + truth)
			if lb > truth+tol {
				t.Fatalf("trial %d oct %d metric %v: lb %v > truth %v", trial, idx, m, lb, truth)
			}
			if ub < truth-tol {
				t.Fatalf("trial %d oct %d metric %v: ub %v < truth %v (pts %v, e %v)",
					trial, idx, m, ub, truth, pts, e)
			}
		}
	}
}

// The significant-point count stays within the paper's budget: at most 4
// intersections per bounding plane (4 planes) plus the prism summary. We
// allow the full clipped-polyhedron vertex set, which is still O(1).
func TestOctantSignificantPointsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 500; trial++ {
		var o octant
		o.reset(0)
		for i := 0; i < 50; i++ {
			o.insert(geom.V3(rng.Float64()*50+0.01, rng.Float64()*50+0.01, rng.Float64()*50+0.01))
		}
		n := len(o.significantPoints3())
		if n == 0 || n > 64 {
			t.Fatalf("significant point count = %d", n)
		}
	}
}

func randomWalk3(rng *rand.Rand, n int, step float64) []Point3 {
	pts := make([]Point3, n)
	x, y, z := 0.0, 0.0, 100.0
	heading := rng.Float64() * 2 * math.Pi
	climb := 0.0
	for i := 0; i < n; i++ {
		heading += rng.NormFloat64() * 0.3
		climb += rng.NormFloat64() * 0.1
		climb = math.Max(-0.5, math.Min(0.5, climb))
		speed := step * (0.2 + rng.Float64())
		x += math.Cos(heading) * speed
		y += math.Sin(heading) * speed
		z += climb * speed
		pts[i] = Point3{X: x, Y: y, Z: z, T: float64(i)}
	}
	return pts
}

func maxSegmentError3(orig, keys []Point3, metric Metric) float64 {
	var worst float64
	for ki := 0; ki+1 < len(keys); ki++ {
		s, e := keys[ki], keys[ki+1]
		var interior []Point3
		for _, p := range orig {
			if p.T > s.T && p.T < e.T {
				interior = append(interior, p)
			}
		}
		if d := MaxDeviation3(interior, s, e, metric); d > worst {
			worst = d
		}
	}
	return worst
}

func TestErrorBoundInvariant3D(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		pts := randomWalk3(rng, 300+rng.Intn(300), 10)
		tol := []float64{2, 5, 10, 20}[rng.Intn(4)]
		for _, mode := range []Mode{ModeExact, ModeFast} {
			for _, metric := range []Metric{MetricLine, MetricSegment} {
				for _, w := range []int{0, 5} {
					c, err := NewCompressor3(Config{Tolerance: tol, Mode: mode, Metric: metric, RotationWarmup: w})
					if err != nil {
						t.Fatal(err)
					}
					keys := c.CompressBatch3(pts)
					if got := maxSegmentError3(pts, keys, metric); got > tol*(1+1e-9) {
						t.Fatalf("trial %d mode %v metric %v warmup %d: error %v > %v",
							trial, mode, metric, w, got, tol)
					}
					if len(keys) < 2 {
						t.Fatalf("keys = %v", keys)
					}
					if !keys[0].Equal(pts[0]) || !keys[len(keys)-1].Equal(pts[len(pts)-1]) {
						t.Fatal("endpoints not preserved")
					}
				}
			}
		}
	}
}

func TestStraightLine3DCompressesToTwoPoints(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeFast} {
		c, err := NewCompressor3(Config{Tolerance: 5, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var pts []Point3
		for i := 0; i < 500; i++ {
			pts = append(pts, Point3{X: float64(i) * 10, Y: float64(i) * 3, Z: float64(i) * 2, T: float64(i)})
		}
		keys := c.CompressBatch3(pts)
		if len(keys) != 2 {
			t.Errorf("mode %v: 3-D straight line kept %d points", mode, len(keys))
		}
	}
}

func TestCompressor3FastConstantSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomWalk3(rng, 3000, 15)
	c, err := NewCompressor3(Config{Tolerance: 5, Mode: ModeFast})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		c.Push(p)
		if got := c.BufferedPoints(); got > DefaultRotationWarmup {
			t.Fatalf("fast 3-D mode buffered %d points", got)
		}
	}
}

func TestCompressor3Validation(t *testing.T) {
	if _, err := NewCompressor3(Config{Tolerance: -2}); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestCompressor3ResetAndFlush(t *testing.T) {
	c, err := NewCompressor3(Config{Tolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Flush(); ok {
		t.Error("flush of empty 3-D stream emitted")
	}
	c.Push(Point3{X: 1, T: 0})
	c.Push(Point3{X: 100, T: 1})
	kp, ok := c.Flush()
	if !ok || kp.X != 100 {
		t.Errorf("flush = (%v,%v)", kp, ok)
	}
	c.Reset()
	if c.Stats().Points != 0 {
		t.Error("stats survive reset")
	}
}

func TestTimeSensitiveMetric(t *testing.T) {
	// An object that pauses mid-segment is invisible to the spatial metric
	// but must force extra key points under the time-sensitive metric.
	var pts []Point
	tt := 0.0
	for i := 0; i <= 20; i++ { // steady motion
		pts = append(pts, Point{X: float64(i) * 10, Y: 0, T: tt})
		tt += 10
	}
	for i := 0; i < 20; i++ { // long pause at x = 200
		pts = append(pts, Point{X: 200, Y: 0, T: tt})
		tt += 10
	}
	for i := 1; i <= 20; i++ { // steady motion again
		pts = append(pts, Point{X: 200 + float64(i)*10, Y: 0, T: tt})
		tt += 10
	}

	spatial, err := NewCompressor(Config{Tolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	nSpatial := len(spatial.CompressBatch(pts))

	tsc, err := NewTimeSensitive(Config{Tolerance: 5}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var nTS int
	for _, p := range pts {
		if _, ok := tsc.Push(p); ok {
			nTS++
		}
	}
	if _, ok := tsc.Flush(); ok {
		nTS++
	}
	if nSpatial != 2 {
		t.Errorf("spatial metric kept %d points, want 2 (straight line)", nSpatial)
	}
	if nTS <= nSpatial {
		t.Errorf("time-sensitive metric kept %d points, want > %d", nTS, nSpatial)
	}
}

// One first fix with a NaN/Inf timestamp must cost that fix only: latched
// as the time origin it would turn every later z into NaN and drop the
// whole trajectory.
func TestTimeSensitiveLatchesFirstFinitePoint(t *testing.T) {
	pts := randomWalk(rand.New(rand.NewSource(9)), 100, 10)
	compress := func(t *testing.T, pts []Point) ([]Point, Stats) {
		tsc, err := NewTimeSensitive(Config{Tolerance: 10, Mode: ModeFast}, 1)
		if err != nil {
			t.Fatal(err)
		}
		var keys []Point
		for _, p := range pts {
			if kp, ok := tsc.Push(p); ok {
				keys = append(keys, kp)
			}
		}
		if kp, ok := tsc.Flush(); ok {
			keys = append(keys, kp)
		}
		return keys, tsc.Stats()
	}
	want, _ := compress(t, pts)
	for _, bad := range []Point{{T: math.NaN()}, {T: math.Inf(1)}, {X: math.NaN(), T: 1e6}} {
		got, s := compress(t, append([]Point{bad}, pts...))
		if s.DroppedPoints != 1 || s.Points != len(pts) {
			t.Errorf("first fix %v: dropped %d, processed %d; want 1, %d", bad, s.DroppedPoints, s.Points, len(pts))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("first fix %v: %d key points, the clean stream gives %d", bad, len(got), len(want))
		}
	}
}

func TestTimeSensitiveValidation(t *testing.T) {
	if _, err := NewTimeSensitive(Config{Tolerance: 5}, 0); err == nil {
		t.Error("gamma 0 accepted")
	}
	if _, err := NewTimeSensitive(Config{Tolerance: 5}, math.NaN()); err == nil {
		t.Error("gamma NaN accepted")
	}
	if _, err := NewTimeSensitive(Config{Tolerance: 0}, 1); err == nil {
		t.Error("bad inner config accepted")
	}
}
