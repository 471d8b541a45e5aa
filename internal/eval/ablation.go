package eval

import (
	"fmt"
	"strings"

	"github.com/trajcomp/bqs/internal/baseline"
	"github.com/trajcomp/bqs/internal/core"
)

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Name    string
	Rate    float64
	Pruning float64
	Keys    int
}

// AblationResult collects the design-choice ablations DESIGN.md calls out:
// data-centric rotation on/off and warmup size, deviation metric, and the
// SQUISH-E comparison at matched compression.
type AblationResult struct {
	Dataset   string
	Tolerance float64
	Rows      []AblationRow
	// SquishSEDWorst is the worst SED of SQUISH-E(λ) matched to BQS's
	// compression rate — demonstrating the unbounded error the paper
	// criticizes.
	SquishSEDWorst float64
	// BQSDevWorst is BQS's worst deviation at the same rate (≤ tolerance).
	BQSDevWorst float64
}

// Ablation runs the ablation suite on one dataset.
func Ablation(ds Dataset, tolerance float64) (AblationResult, error) {
	res := AblationResult{Dataset: ds.Name, Tolerance: tolerance}

	type variant struct {
		name string
		cfg  core.Config
	}
	// FBQS has one row: under the line metric it runs on the tangent wedge
	// alone, which has no rotation to fix, so every warm-up reads the same.
	variants := []variant{
		{"BQS (rotation 5)", core.Config{Tolerance: tolerance, Mode: core.ModeExact, RotationWarmup: 5}},
		{"BQS (no rotation)", core.Config{Tolerance: tolerance, Mode: core.ModeExact, RotationWarmup: 0}},
		{"BQS (rotation 3)", core.Config{Tolerance: tolerance, Mode: core.ModeExact, RotationWarmup: 3}},
		{"BQS (rotation 10)", core.Config{Tolerance: tolerance, Mode: core.ModeExact, RotationWarmup: 10}},
		{"FBQS (wedge, no rotation)", core.Config{Tolerance: tolerance, Mode: core.ModeFast}},
		{"BQS (segment metric)", core.Config{Tolerance: tolerance, Mode: core.ModeExact, RotationWarmup: 5, Metric: core.MetricSegment}},
		{"BQS (buffer capped 32)", core.Config{Tolerance: tolerance, Mode: core.ModeExact, RotationWarmup: 5, MaxBuffer: 32}},
	}
	var bqsKeys []core.Point
	for _, v := range variants {
		c, err := core.NewCompressor(v.cfg)
		if err != nil {
			return res, err
		}
		keys := c.CompressBatch(ds.Points)
		if v.name == "BQS (rotation 5)" {
			bqsKeys = keys
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:    v.name,
			Rate:    float64(len(keys)) / float64(len(ds.Points)),
			Pruning: c.Stats().PruningPower(),
			Keys:    len(keys),
		})
	}

	// SQUISH-E(λ) at BQS's compression ratio: same point budget, no bound.
	if len(bqsKeys) > 0 {
		lambda := float64(len(ds.Points)) / float64(len(bqsKeys))
		sq, err := baseline.SquishELambda(ds.Points, lambda)
		if err != nil {
			return res, err
		}
		res.SquishSEDWorst = core.Deviation(ds.Points, sq, core.SyncDist)
		res.BQSDevWorst = core.Deviation(ds.Points, bqsKeys, core.MetricLine.Dist)
		res.Rows = append(res.Rows, AblationRow{
			Name: fmt.Sprintf("SQUISH-E(λ=%.0f)", lambda),
			Rate: float64(len(sq)) / float64(len(ds.Points)),
			Keys: len(sq),
		})
	}
	return res, nil
}

// String renders the ablation results.
func (r AblationResult) String() string {
	t := &textTable{header: []string{"configuration", "rate", "pruning", "keys"}}
	for _, row := range r.Rows {
		pr := "—"
		if row.Pruning > 0 {
			pr = f3(row.Pruning)
		}
		t.addRow(row.Name, pc(row.Rate), pr, fmt.Sprintf("%d", row.Keys))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablations — %s data, d = %.0f m\n%s", r.Dataset, r.Tolerance, t.String())
	fmt.Fprintf(&sb, "error at matched budget: BQS worst deviation %.1f m (bounded) vs SQUISH-E worst SED %.1f m (unbounded)\n",
		r.BQSDevWorst, r.SquishSEDWorst)
	return sb.String()
}
