package core_test

import (
	"fmt"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/synth"
)

// TestWedgeDifferentialFBQSIsBQS: under the line metric the tangent wedge
// answers the question BQS's buffer scan answers, so FBQS — NewCompressor's
// line frame, the wedge alone — emits the key points of BQS over its
// quadrants bit for bit: on the decision pin's traces, DESIGN.md's table set
// (40 walks × 20 000 fixes), the bat and vehicle traces and a street grid,
// with BQS rotated and not (FBQS ignores the warm-up). The one licence to
// differ is a two-arc intersection the wedge kept one arc of, and the frame
// counts those.
func TestWedgeDifferentialFBQSIsBQS(t *testing.T) {
	type trace struct {
		name string
		tol  float64
		pts  []core.Point
	}
	var traces []trace
	for i, pts := range core.DecisionTraces() {
		traces = append(traces, trace{fmt.Sprintf("decisions/%d", i), 10, pts})
	}
	for seed := int64(1); seed <= 40; seed++ {
		cfg := synth.DefaultWalkConfig(seed)
		cfg.N = 20000
		traces = append(traces, trace{fmt.Sprintf("walk/%d", seed), 10, synth.Walk(cfg).Points()})
	}
	traces = append(traces,
		trace{"bat", 10, synth.Bat(synth.DefaultBatConfig(7)).Points()},
		trace{"vehicle", 25, synth.Vehicle(synth.DefaultVehicleConfig(7)).Points()},
		trace{"grid", 10, synth.StreetGrid(7, 20000)},
	)
	var fixes, keys, dropped int
	for _, tr := range traces {
		for _, warmup := range []int{0, -1} {
			cfg := core.Config{Tolerance: tr.tol, Metric: core.MetricLine, Mode: core.ModeExact, RotationWarmup: warmup}
			bqs, err := core.NewCompressor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Mode = core.ModeFast
			fbqs, err := core.NewCompressor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, got := bqs.CompressBatch(tr.pts), fbqs.CompressBatch(tr.pts)
			fixes, keys, dropped = fixes+len(tr.pts), keys+len(got), dropped+fbqs.ArcsDropped()
			same := len(got) == len(want)
			for i := 0; same && i < len(got); i++ {
				same = got[i] == want[i]
			}
			if !same && fbqs.ArcsDropped() == 0 {
				t.Errorf("%s warmup=%d: FBQS kept %d key points, BQS %d, and the wedge dropped no arc", tr.name, warmup, len(got), len(want))
			} else if !same {
				t.Logf("%s warmup=%d: FBQS kept %d key points, BQS %d; the wedge dropped %d arcs", tr.name, warmup, len(got), len(want), fbqs.ArcsDropped())
			}
		}
	}
	t.Logf("%d traces × 2 warm-ups, %d fixes, %d key points, %d arcs dropped", len(traces), fixes, keys, dropped)
}
