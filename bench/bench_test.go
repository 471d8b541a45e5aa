package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/trajcomp/bqs/internal/proto"
)

// TestSmoke runs every workload end to end at smoke scale in traced
// mode — a daemon run (set-up, writers, queries, correctness gate,
// restart, drain) followed by the in-process replay — and holds the
// result to the metric tables: every end-to-end and per-layer metric
// present, finite and carrying its unit, and no failed op.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs bqsd")
	}
	e, err := findEnv()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res := newResult(sp, 7, 0.5)
			res.Host = hostFingerprint(e.out)
			if err := runTraceMode(e, sp, 7, 0.5, true, res); err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Failures {
				t.Errorf("failed op: %s", f)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
			}
			for _, tc := range []struct {
				defs []metricDef
				have map[string]metric
			}{{endToEnd, res.E2E}, {perLayer, res.Layer}} {
				for _, d := range tc.defs {
					m, ok := tc.have[d.Name]
					switch {
					case !ok:
						t.Errorf("%s: not reported", d.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: %v is not finite", d.Name, m.Value)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
				}
				for name := range tc.have {
					if !hasMetric(tc.defs, name) {
						t.Errorf("%s: reported but not in the metric tables", name)
					}
				}
			}
			for _, k := range []string{"cpu", "nproc", "gomaxprocs", "go", "kernel", "fs"} {
				if res.Host[k] == "" {
					t.Errorf("host fingerprint lacks %q", k)
				}
			}
			if _, err := os.Stat(filepath.Join(e.out, "trace-"+sp.name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(start, end int64, parent int32) span {
		return span{Name: "s", Start: start, End: end, Parent: parent}
	}
	for _, tc := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"leaf", []span{sp(0, 100, -1)}, []int64{100}},
		{"nested", []span{sp(0, 100, -1), sp(10, 60, 0), sp(20, 30, 1)}, []int64{50, 40, 10}},
		{"adjacent children", []span{sp(0, 100, -1), sp(10, 40, 0), sp(40, 70, 0)}, []int64{40, 30, 30}},
		{"overlapping children count once", []span{sp(0, 100, -1), sp(10, 50, 0), sp(30, 80, 0)}, []int64{30, 40, 50}},
		{"child inside a sibling", []span{sp(0, 100, -1), sp(10, 90, 0), sp(20, 30, 0)}, []int64{20, 80, 10}},
		{"child clipped to its parent", []span{sp(50, 100, -1), sp(40, 70, 0), sp(90, 130, 0)}, []int64{20, 30, 40}},
		{"children listed out of order", []span{sp(0, 100, -1), sp(60, 80, 0), sp(10, 30, 0)}, []int64{60, 20, 20}},
	} {
		if got := selfTimes(tc.spans); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
		}
	}
	// A strictly nested tree's self times add up to its root.
	tree := []span{sp(0, 1000, -1), sp(0, 400, 0), sp(100, 300, 1), sp(500, 900, 0), sp(600, 601, 3)}
	var sum int64
	for _, s := range selfTimes(tree) {
		sum += s
	}
	if sum != 1000 {
		t.Errorf("nested self times sum to %d, want the root's 1000", sum)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 0, 1100)
	for i := 1; i <= 1100; i++ {
		xs = append(xs, float64(i))
	}
	// p99 of 1..1000 is 990, with exactly ten samples beyond it.
	if v, ok := tail(xs[:1000], 0.99); v != 990 || !ok {
		t.Errorf("tail(1..1000, 0.99) = %v, %v; want 990, true", v, ok)
	}
	if v, ok := tail(xs[:999], 0.99); v != 990 || ok {
		t.Errorf("tail(1..999, 0.99) = %v, %v; want 990, false (nine beyond)", v, ok)
	}
	if v, ok := tail(xs, 0.99); v != 1089 || !ok {
		t.Errorf("tail(1..1100, 0.99) = %v, %v; want 1089, true", v, ok)
	}
	if _, ok := tail(xs[:19], 0.5); ok {
		t.Error("the 10th of 19 samples has only nine beyond it; tail must say so")
	}
	if _, ok := tail(nil, 0.99); ok {
		t.Error("tail of nothing reported ok")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// inputDigest hashes everything a run would send: every writer frame as
// encoded on the wire, then the query list.
func inputDigest(sp *spec, seed int64) [32]byte {
	z := sp.sizesFor(0.5, true)
	in := sp.generate(seed, z)
	h := sha256.New()
	for _, g := range in.gens {
		for j := 0; j < z.framesPerConn; j++ {
			p, err := proto.AppendIngest(nil, proto.Ingest{Seq: uint64(j), Batches: g.fill(j)})
			if err != nil {
				panic(err)
			}
			h.Write(p)
		}
	}
	for _, q := range in.qs {
		fmt.Fprintf(h, "%+v\n", q)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func TestInputsArePureFunctionOfWorkloadAndSeed(t *testing.T) {
	seen := map[[32]byte]string{}
	for _, sp := range specs {
		a, b, c := inputDigest(sp, 3), inputDigest(sp, 3), inputDigest(sp, 4)
		if a != b {
			t.Errorf("%s: the same seed produced different frames or queries", sp.name)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 produced identical inputs", sp.name)
		}
		if other, dup := seen[a]; dup {
			t.Errorf("%s and %s share inputs at the same seed", sp.name, other)
		}
		seen[a] = sp.name
	}
}

func TestTrackTilesContinuously(t *testing.T) {
	for _, cut := range []bool{false, true} {
		fl := newFleet(1, "tile", 0, 1, 4, 50, cut)
		tr := &fl.tracks[0]
		lat0, lon0 := tr.at(49)
		lat1, lon1 := tr.at(50) // first fix of lap 1 sits where lap 0 ended
		if lat0 != lat1 || lon0 != lon1 {
			t.Errorf("cut=%v: lap 1 starts at (%d,%d), lap 0 ended at (%d,%d)", cut, lat1, lon1, lat0, lon0)
		}
		k := geoKey(lat1, lon1, 50)
		if units(k.Lat) != lat1 || units(k.Lon) != lon1 || k.T != firstT+50 {
			t.Errorf("cut=%v: geoKey does not round-trip the lattice: %+v", cut, k)
		}
	}
}

// TestBenchmarkJSON holds the committed BENCHMARK.json to the metric
// and workload tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	e, err := findEnv()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", bm.Command, bm.Paths)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", bm.RunSeconds, defaultSeconds)
	}
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(bm.Workloads), len(specs))
	}
	for i, w := range bm.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q, want %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bm.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the table:\n%+v\n%+v", bm.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bm.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the table")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (unit %q): duplicate or over the contract's length limits", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
