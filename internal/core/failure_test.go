package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Failure injection: corrupted GPS fixes must not poison the compressor or
// break the error bound for the surviving points.
func TestNonFinitePointsDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	clean := randomWalk(rng, 400, 10)
	// Corrupt a copy with NaN/Inf fixes interleaved.
	var dirty []Point
	bad := 0
	for i, p := range clean {
		dirty = append(dirty, p)
		switch i % 97 {
		case 13:
			dirty = append(dirty, Point{X: math.NaN(), Y: p.Y, T: p.T + 0.5})
			bad++
		case 41:
			dirty = append(dirty, Point{X: p.X, Y: math.Inf(1), T: p.T + 0.5})
			bad++
		case 71:
			dirty = append(dirty, Point{X: p.X, Y: p.Y, T: math.NaN()})
			bad++
		}
	}
	for _, mode := range []Mode{ModeExact, ModeFast} {
		c := mustCompressor(t, Config{Tolerance: 10, Mode: mode})
		keys := c.CompressBatch(dirty)
		s := c.Stats()
		if s.DroppedPoints != bad {
			t.Errorf("mode %v: dropped %d, want %d", mode, s.DroppedPoints, bad)
		}
		if s.Points != len(clean) {
			t.Errorf("mode %v: processed %d, want %d", mode, s.Points, len(clean))
		}
		for _, k := range keys {
			if !k.IsFinite() {
				t.Fatalf("mode %v: non-finite key point %v", mode, k)
			}
		}
		if err := Deviation(clean, keys, MetricLine.Dist); err > 10*(1+1e-9) {
			t.Errorf("mode %v: bound broken after corruption: %v", mode, err)
		}
	}
}

// nonFiniteSubjects adapt the three compressors to one coordinate-slice
// shape (k spatial coordinates, then T), so one table drives the shared
// loop's non-finite drop through every frame.
var nonFiniteSubjects = []struct {
	name string
	dims int
	new  func(t *testing.T, mode Mode) (push func(c []float64) ([]float64, bool), flush func() ([]float64, bool), stats func() Stats)
}{
	{"2d", 2, func(t *testing.T, mode Mode) (func([]float64) ([]float64, bool), func() ([]float64, bool), func() Stats) {
		c := mustCompressor(t, Config{Tolerance: 5, Mode: mode})
		out := func(kp Point, ok bool) ([]float64, bool) { return []float64{kp.X, kp.Y, kp.T}, ok }
		return func(v []float64) ([]float64, bool) { return out(c.Push(Point{X: v[0], Y: v[1], T: v[2]})) },
			func() ([]float64, bool) { return out(c.Flush()) }, c.Stats
	}},
	{"3d", 3, func(t *testing.T, mode Mode) (func([]float64) ([]float64, bool), func() ([]float64, bool), func() Stats) {
		c, err := NewCompressor3(Config{Tolerance: 5, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		out := func(kp Point3, ok bool) ([]float64, bool) { return []float64{kp.X, kp.Y, kp.Z, kp.T}, ok }
		return func(v []float64) ([]float64, bool) { return out(c.Push(Point3{X: v[0], Y: v[1], Z: v[2], T: v[3]})) },
			func() ([]float64, bool) { return out(c.Flush()) }, c.Stats
	}},
	{"nd", 4, func(t *testing.T, mode Mode) (func([]float64) ([]float64, bool), func() ([]float64, bool), func() Stats) {
		c, err := NewCompressorN(Config{Tolerance: 5, Mode: mode}, 4)
		if err != nil {
			t.Fatal(err)
		}
		out := func(kp PointN, ok bool) ([]float64, bool) { return append(append([]float64(nil), kp.C...), kp.T), ok }
		return func(v []float64) ([]float64, bool) {
				kp, ok, err := c.Push(PointN{C: v[:4], T: v[4]})
				if err != nil {
					t.Fatal(err)
				}
				return out(kp, ok)
			},
			func() ([]float64, bool) { return out(c.Flush()) }, c.Stats
	}},
}

// A NaN/±Inf in any coordinate or the timestamp — as the first fix, in mid
// segment, or as the last point before a cut, where an undropped one would
// be emitted — is dropped and counted, and leaves no trace: the key points
// are those of the clean stream.
func TestNonFiniteAnyComponent(t *testing.T) {
	for _, sub := range nonFiniteSubjects {
		// An L-shaped path: 20 fixes east, then 20 north; the cut falls
		// just after the corner.
		var clean [][]float64
		for i := 0; i < 40; i++ {
			v := make([]float64, sub.dims+1)
			v[0], v[1] = math.Min(float64(i), 19)*10, math.Max(float64(i)-19, 0)*10
			v[sub.dims] = float64(i)
			clean = append(clean, v)
		}
		run := func(t *testing.T, mode Mode, pts [][]float64) ([][]float64, Stats) {
			push, flush, stats := sub.new(t, mode)
			var keys [][]float64
			for _, v := range pts {
				if kp, ok := push(v); ok {
					keys = append(keys, kp)
				}
			}
			if kp, ok := flush(); ok {
				keys = append(keys, kp)
			}
			return keys, stats()
		}
		for _, mode := range []Mode{ModeExact, ModeFast} {
			t.Run(fmt.Sprintf("%s/%v", sub.name, mode), func(t *testing.T) {
				want, _ := run(t, mode, clean)
				if len(want) < 3 {
					t.Fatalf("the probe path did not cut: %v", want)
				}
				for comp := 0; comp <= sub.dims; comp++ {
					for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
						for _, at := range []int{0, 10, 20, 21} {
							v := append([]float64(nil), clean[at]...)
							v[comp] = bad
							dirty := append(append(append([][]float64(nil), clean[:at]...), v), clean[at:]...)
							got, s := run(t, mode, dirty)
							if s.DroppedPoints != 1 || s.Points != len(clean) {
								t.Errorf("component %d = %v before fix %d: dropped %d, processed %d; want 1, %d",
									comp, bad, at, s.DroppedPoints, s.Points, len(clean))
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("component %d = %v before fix %d: key points\n got  %v\n want %v", comp, bad, at, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// testing/quick: the error bound must hold for arbitrary short trajectories
// generated by the quick framework itself, not just by our walk generators.
func TestQuickErrorBound(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}
	f := func(raw [][3]float64, tolSeed uint8, fast bool) bool {
		tol := 1 + float64(tolSeed%40)
		pts := make([]Point, 0, len(raw))
		for i, r := range raw {
			x := math.Mod(r[0], 1e5)
			y := math.Mod(r[1], 1e5)
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			pts = append(pts, Point{X: x, Y: y, T: float64(i)})
		}
		mode := ModeExact
		if fast {
			mode = ModeFast
		}
		c, err := NewCompressor(Config{Tolerance: tol, Mode: mode})
		if err != nil {
			return false
		}
		keys := c.CompressBatch(pts)
		if len(pts) > 0 && len(keys) == 0 {
			return false
		}
		return Deviation(pts, keys, MetricLine.Dist) <= tol*(1+1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// testing/quick: compression is idempotent — re-compressing the key points
// at the same tolerance keeps them all (every key survived a verification
// against its own segment already).
func TestQuickIdempotent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(17))}
	f := func(seed int64, tolSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tol := 2 + float64(tolSeed%20)
		pts := randomWalk(rng, 150, 8)
		c, err := NewCompressor(Config{Tolerance: tol})
		if err != nil {
			return false
		}
		keys := c.CompressBatch(pts)
		c2, err := NewCompressor(Config{Tolerance: tol})
		if err != nil {
			return false
		}
		again := c2.CompressBatch(keys)
		// Compressing a compressed trajectory may only drop points that are
		// now collinear; it must never break the bound against the keys.
		return Deviation(keys, again, MetricLine.Dist) <= tol*(1+1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// testing/quick: Reset makes a compressor indistinguishable from a new one —
// what lets the engine recycle a closed session's compressor. The first
// trajectory is abandoned without a Flush, so nothing but Reset clears it.
func TestQuickResetReplay(t *testing.T) {
	type resettable interface {
		Push(Point) (Point, bool)
		Flush() (Point, bool)
		Stats() Stats
		Reset()
	}
	replay := func(c resettable, pts []Point) ([]Point, Stats) {
		var keys []Point
		for _, p := range pts {
			if kp, ok := c.Push(p); ok {
				keys = append(keys, kp)
			}
		}
		if kp, ok := c.Flush(); ok {
			keys = append(keys, kp)
		}
		return keys, c.Stats()
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(23))}
	f := func(seed int64, fast, timeSensitive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		conf := Config{Tolerance: 8, RotationWarmup: -1}
		if fast {
			conf.Mode = ModeFast
		}
		fresh := func() resettable {
			if timeSensitive {
				c, err := NewTimeSensitive(conf, 1)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			return mustCompressor(t, conf)
		}
		first, second := randomWalk(rng, 120, 8), randomWalk(rng, 120, 8)
		used := fresh()
		for _, p := range first {
			used.Push(p)
		}
		used.Reset()
		gotKeys, gotStats := replay(used, second)
		wantKeys, wantStats := replay(fresh(), second)
		return reflect.DeepEqual(gotKeys, wantKeys) && gotStats == wantStats
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
