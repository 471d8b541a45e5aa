package eval

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/trajcomp/bqs/internal/synth"
)

var (
	quickOnce sync.Once
	quick     *Suite
)

func quickSuite(t *testing.T) *Suite {
	t.Helper()
	quickOnce.Do(func() { quick = NewSuite(ScaleQuick) })
	return quick
}

func TestSuiteGeneration(t *testing.T) {
	s := quickSuite(t)
	if len(s.Bat.Points) == 0 || len(s.Vehicle.Points) == 0 || len(s.Walk.Points) == 0 {
		t.Fatalf("empty datasets: %s", s.Describe())
	}
	if len(s.Combined.Points) != len(s.Bat.Points)+len(s.Vehicle.Points) {
		t.Errorf("combined size mismatch")
	}
	// Timestamps strictly increasing within each dataset.
	for _, ds := range []Dataset{s.Bat, s.Vehicle, s.Walk, s.Combined} {
		for i := 1; i < len(ds.Points); i++ {
			if ds.Points[i].T <= ds.Points[i-1].T {
				t.Fatalf("%s: time not increasing at %d", ds.Name, i)
			}
		}
	}
	if !strings.Contains(s.Describe(), "bat=") {
		t.Error("Describe malformed")
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	s := quickSuite(t)
	for _, algo := range []Algo{AlgoBQS, AlgoFBQS, AlgoBDP, AlgoBGD, AlgoDP, AlgoDR} {
		r, err := Run(algo, s.Bat, 10, s.BufSize)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if r.Keys < 2 || r.Keys > r.Points {
			t.Errorf("%s: keys = %d of %d", algo, r.Keys, r.Points)
		}
		// Measured for every algorithm, DR's replay included: every one of
		// them discards fixes on this trace, so the figure is above zero.
		if !r.BoundOK || !(r.WorstDev > 0 && r.WorstDev <= 10*(1+1e-9)) {
			t.Errorf("%s: error bound violated (worst %v, BoundOK %v)", algo, r.WorstDev, r.BoundOK)
		}
		if r.Rate <= 0 || r.Rate > 1 {
			t.Errorf("%s: rate = %v", algo, r.Rate)
		}
	}
	if _, err := Run(Algo("nope"), s.Bat, 10, 32); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestFig3(t *testing.T) {
	s := quickSuite(t)
	r, err := Fig3(s.Bat, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no traced rows")
	}
	if len(r.Rows) > 100 {
		t.Errorf("rows = %d > 100", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.LB > row.UB+1e-9 {
			t.Errorf("row %d: lb %v > ub %v", row.Index, row.LB, row.UB)
		}
		if !math.IsNaN(row.Actual) && (row.Actual < row.LB-1e-6 || row.Actual > row.UB+1e-6) {
			t.Errorf("row %d: actual %v outside bounds", row.Index, row.Actual)
		}
	}
	// The paper: "in more than 90% of the occasions we can determine if a
	// point is a key point by using only the bounds".
	if r.Decisive < 0.5 {
		t.Errorf("bounds decisive on only %.0f%% of traced points", 100*r.Decisive)
	}
	if !strings.Contains(r.String(), "Figure 3") {
		t.Error("String() malformed")
	}
}

func TestFig6(t *testing.T) {
	s := quickSuite(t)
	r, err := Fig6(s.Bat, []float64{2, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Pruning < 0.5 || row.Pruning > 1 {
			t.Errorf("pruning at %v m = %v", row.Tolerance, row.Pruning)
		}
	}
	if !strings.Contains(r.String(), "pruning") {
		t.Error("String() malformed")
	}
}

func TestFig7Orderings(t *testing.T) {
	s := quickSuite(t)
	r, err := Fig7(s.Bat, []float64{10, 20}, s.BufSize)
	if err != nil {
		t.Fatal(err)
	}
	if !r.BoundOK {
		t.Error("some error-bounded run violated its bound")
	}
	for _, row := range r.Rows {
		if row.Rate[AlgoBQS] > row.Rate[AlgoFBQS]*(1+1e-9) {
			t.Errorf("d=%v: BQS rate %v > FBQS %v", row.Tolerance, row.Rate[AlgoBQS], row.Rate[AlgoFBQS])
		}
		// The windowed baselines keep notably more than BQS (the paper
		// reports 30-50%).
		if row.Rate[AlgoBDP] < row.Rate[AlgoBQS] {
			t.Errorf("d=%v: BDP beat BQS", row.Tolerance)
		}
		if row.Rate[AlgoBGD] < row.Rate[AlgoBQS] {
			t.Errorf("d=%v: BGD beat BQS", row.Tolerance)
		}
	}
	if !strings.Contains(r.String(), "Figure 7") {
		t.Error("String() malformed")
	}
}

// The relationship DESIGN.md states for FBQS against BQS, with its numbers:
// both bound the line distance here, and under it FBQS's tangent wedge
// decides what BQS's buffer scan decides, so the two keep the same number of
// key points — on the paper's own Section VI-A walk (30 000 points, ε = 10 m:
// 654) and on the bat and vehicle traces. The wedge also lowers BQS's upper
// bound: on the walk BQS decides 89 % of its points with no scan.
func TestFBQSWithinBQS(t *testing.T) {
	s := quickSuite(t)
	walk := makeDataset("walk", synth.Walk(synth.DefaultWalkConfig(99)).Samples)
	if len(walk.Points) != 30000 {
		t.Fatalf("the paper's walk is 30 000 points, generated %d", len(walk.Points))
	}
	for _, row := range []struct {
		ds   Dataset
		tol  float64
		prun float64
	}{
		{walk, 10, 0.89},
		{s.Bat, 10, 0.81},
		{s.Vehicle, 25, 0.83},
	} {
		b, err := Run(AlgoBQS, row.ds, row.tol, s.BufSize)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Run(AlgoFBQS, row.ds, row.tol, s.BufSize)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s at %v m: BQS %d keys (pruning %.3f), FBQS %d keys (pruning %.3f)", row.ds.Name, row.tol, b.Keys, b.Pruning, f.Keys, f.Pruning)
		if !b.BoundOK || !f.BoundOK {
			t.Errorf("%s: error bound violated (BQS %v, FBQS %v)", row.ds.Name, b.WorstDev, f.WorstDev)
		}
		if f.Keys != b.Keys {
			t.Errorf("%s: FBQS kept %d key points, BQS %d, want the same", row.ds.Name, f.Keys, b.Keys)
		}
		if b.Pruning < row.prun {
			t.Errorf("%s: BQS pruning power %.3f, want ≥ %.2f", row.ds.Name, b.Pruning, row.prun)
		}
	}
}

func TestFig8(t *testing.T) {
	s := quickSuite(t)
	r, err := Fig8(s.Walk, []float64{2, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxX-r.MinX > 10001 || r.MaxY-r.MinY > 10001 {
		t.Errorf("walk extent too large: %+v", r)
	}
	for _, row := range r.Rows {
		if row.DR <= row.FBQS {
			t.Errorf("d=%v: DR %d ≤ FBQS %d; paper expects DR to need more points",
				row.Tolerance, row.DR, row.FBQS)
		}
	}
	if !strings.Contains(r.String(), "Figure 8") {
		t.Error("String() malformed")
	}
}

func TestTable1Scaling(t *testing.T) {
	r, err := Table1([]int{2000, 4000, 8000, 16000})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatal("rows missing")
	}
	// FBQS per-point cost must stay roughly flat; the windowed baseline's
	// grows roughly linearly. Thresholds are generous: timing noise on a
	// shared machine.
	if r.FBQSExponent > 0.5 {
		t.Errorf("FBQS per-point exponent = %v, want ≈ 0", r.FBQSExponent)
	}
	if r.BGDExponent < 0.45 {
		t.Errorf("BGD per-point exponent = %v, want ≈ 1", r.BGDExponent)
	}
	for _, row := range r.Rows {
		if row.FBQSSpace != 0 {
			t.Errorf("n=%d: FBQS buffered %d points, want 0: the tangent wedge buffers none", row.N, row.FBQSSpace)
		}
	}
	if !strings.Contains(r.String(), "Table I") {
		t.Error("String() malformed")
	}
}

func TestTable2(t *testing.T) {
	s := quickSuite(t)
	r, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	days := map[Algo]float64{}
	for _, row := range r.Rows {
		if row.Days <= r.UncompressedDays {
			t.Errorf("%s: %v days not better than uncompressed %v", row.Algo, row.Days, r.UncompressedDays)
		}
		days[row.Algo] = row.Days
	}
	// Orderings of Table II: BQS ≥ FBQS > BDP/BGD.
	if days[AlgoBQS] < days[AlgoFBQS]*(1-1e-9) {
		t.Errorf("BQS days %v < FBQS %v", days[AlgoBQS], days[AlgoFBQS])
	}
	if days[AlgoFBQS] <= days[AlgoBDP] || days[AlgoFBQS] <= days[AlgoBGD] {
		t.Errorf("FBQS days %v not above BDP %v / BGD %v", days[AlgoFBQS], days[AlgoBDP], days[AlgoBGD])
	}
	if r.DROverhead <= 0 {
		t.Errorf("DR overhead = %v", r.DROverhead)
	}
	if !strings.Contains(r.String(), "Table II") {
		t.Error("String() malformed")
	}
}

func TestTable3(t *testing.T) {
	s := quickSuite(t)
	r, err := Table3(s, []int{32, 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1+2*2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var fbqsRate float64
	rates := map[Algo]map[int]float64{AlgoBDP: {}, AlgoBGD: {}}
	for _, row := range r.Rows {
		if row.Algo == AlgoFBQS {
			fbqsRate = row.Rate
			continue
		}
		rates[row.Algo][row.BufSize] = row.Rate
	}
	// Larger buffers improve the windowed baselines' rates.
	if rates[AlgoBGD][64] > rates[AlgoBGD][32]*(1+1e-9) {
		t.Errorf("BGD rate did not improve with buffer: %v", rates[AlgoBGD])
	}
	// FBQS beats both at the paper's default buffer.
	if fbqsRate > rates[AlgoBDP][32] || fbqsRate > rates[AlgoBGD][32] {
		t.Errorf("FBQS rate %v not best at buffer 32 (%v, %v)",
			fbqsRate, rates[AlgoBDP][32], rates[AlgoBGD][32])
	}
	if !strings.Contains(r.String(), "Table III") {
		t.Error("String() malformed")
	}
	// Truncation works.
	r2, err := Table3(s, []int{32}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Points != 100 {
		t.Errorf("truncated points = %d", r2.Points)
	}
}

func TestAblation(t *testing.T) {
	s := quickSuite(t)
	r, err := Ablation(s.Bat, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The segment metric can only keep more points than the line metric.
	var lineRate, segRate float64
	for _, row := range r.Rows {
		switch row.Name {
		case "BQS (rotation 5)":
			lineRate = row.Rate
		case "BQS (segment metric)":
			segRate = row.Rate
		}
	}
	if segRate < lineRate*(1-1e-9) {
		t.Errorf("segment metric rate %v below line metric %v", segRate, lineRate)
	}
	// BQS's worst deviation is bounded; SQUISH-E's SED at the same budget
	// typically is not.
	if r.BQSDevWorst > 10*(1+1e-9) {
		t.Errorf("BQS worst deviation %v > tolerance", r.BQSDevWorst)
	}
	if !strings.Contains(r.String(), "Ablations") {
		t.Error("String() malformed")
	}
}

func TestFitExponent(t *testing.T) {
	rows := []Table1Row{
		{N: 1000, FBQSPerPt: 100},
		{N: 2000, FBQSPerPt: 100},
		{N: 4000, FBQSPerPt: 100},
	}
	if e := fitExponent(rows, func(r Table1Row) float64 { return float64(r.FBQSPerPt) }); math.Abs(e) > 1e-9 {
		t.Errorf("flat exponent = %v", e)
	}
	rows = []Table1Row{
		{N: 1000, FBQSPerPt: 1000},
		{N: 2000, FBQSPerPt: 2000},
		{N: 4000, FBQSPerPt: 4000},
	}
	if e := fitExponent(rows, func(r Table1Row) float64 { return float64(r.FBQSPerPt) }); math.Abs(e-1) > 1e-9 {
		t.Errorf("linear exponent = %v", e)
	}
	if e := fitExponent(rows[:1], func(r Table1Row) float64 { return 1 }); e != 0 {
		t.Errorf("single-row exponent = %v", e)
	}
}
