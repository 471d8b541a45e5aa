package stream

import (
	"math"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/synth"
)

// TestRegistryErrorBound asserts the paper's core guarantee for EVERY
// registered compressor at once: on synthetic vehicle and walk traces the
// track strays from what the key points say by no more than the tolerance,
// measured — by Deviation, with no branch on the name here — as that name
// states its bound: the line distance to the time-matched segment unless
// the registration says otherwise ("dr": the prediction error;
// "timesensitive": the line distance in (x, y, γt)). Any future Register'd
// compressor is automatically held to the default.
//
// The log line also gives the 2-D line distance to the polyline, the figure
// every name but "dr" was held to before each stated its own: for
// "timesensitive" it is about a third of the lifted one (8.4 m against
// 22.99 m at tolerance 25 on the vehicle trace), so a compressor breaking
// its stated bound twice over would have passed.
func TestRegistryErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trace sweep")
	}
	traces := registryTraces()
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, tol := range []float64{5, 25} {
				for _, tr := range traces {
					c, err := New(name, tol)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					keys := Compress(c, tr.pts)
					if len(keys) == 0 {
						t.Fatalf("%s/%s: no key points from %d samples", name, tr.name, len(tr.pts))
					}
					worst, err := Deviation(name, tr.pts, keys)
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("%s/%s tol %g: worst deviation %.4g (2-D line distance to the polyline %.4g)",
						name, tr.name, tol, worst, core.Deviation(tr.pts, keys, core.MetricLine.Dist))
					if worst > tol*(1+1e-9) {
						t.Errorf("%s/%s tol %g: worst deviation %g exceeds the bound", name, tr.name, tol, worst)
					}
				}
			}
		})
	}
}

type boundTrace struct {
	name string
	pts  []core.Point
}

func registryTraces() []boundTrace {
	vcfg := synth.DefaultVehicleConfig(11)
	vcfg.Days = 1
	wcfg := synth.DefaultWalkConfig(12)
	wcfg.N = 4000
	return []boundTrace{
		{"vehicle", synth.Vehicle(vcfg).Points()},
		{"walk", synth.Walk(wcfg).Points()},
	}
}

// TestDeviationStatesEachBound pins what Deviation measures per name on a
// track small enough to check by hand: B sits 3 m off the line A–C and
// 4 s late on it.
func TestDeviationStatesEachBound(t *testing.T) {
	a, b, c := core.Point{X: 0, Y: 0, T: 0}, core.Point{X: 5, Y: 3, T: 9}, core.Point{X: 10, Y: 0, T: 10}
	orig, keys := []core.Point{a, b, c}, []core.Point{a, c}
	for name, want := range map[string]float64{
		"fbqs": 3, // |y|: the line distance in the plane
		// The line through (0,0,0) and (10,0,10γ), γ = 1: B − A = (5,3,9)
		// leaves (−2,3,2) once its projection 7·(1,0,1) is taken off.
		"timesensitive": 4.123105625617661, // √17
		// A is reported at rest (no sample before it), so B is predicted at A.
		"dr": 5.830951894845301, // √34
	} {
		got, err := Deviation(name, orig, keys)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("Deviation(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := Deviation("definitely-not-registered", orig, keys); err == nil {
		t.Error("an unregistered name has a deviation")
	}
}
