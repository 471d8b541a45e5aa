// Command bqsbench regenerates every table and figure of the paper's
// evaluation section against the generated stand-in datasets.
//
// Usage:
//
//	bqsbench [-exp all|fig3|fig6|fig7|fig8|table1|table2|table3|ablation]
//	         [-quick] [-csv dir]
//
// -quick shrinks the datasets for a fast smoke run; -csv writes the raw
// series (plus the Figure 8(a) scatter data) as CSV files for plotting.
// An unknown -exp exits 2 naming the experiments.
//
// Measurement lives elsewhere: `go test -bench . | benchstat` per layer
// (add -cpuprofile to profile one), and `go run ./bench` for wire → disk
// → query against the real daemon, with the per-layer ledger.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/trajcomp/bqs/internal/eval"
	"github.com/trajcomp/bqs/internal/stream"
)

// experiments names what -exp accepts besides "all", in the order run.
var experiments = []string{"fig3", "fig6", "fig7", "fig8", "table1", "table2", "table3", "ablation"}

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, "+strings.Join(experiments, ", "))
	quick := flag.Bool("quick", false, "use small datasets for a fast smoke run")
	csvDir := flag.String("csv", "", "directory to write raw CSV series into")
	flag.Parse()

	if *exp != "all" && !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "bqsbench: unknown experiment %q (want all, %s)\n", *exp, strings.Join(experiments, ", "))
		os.Exit(2)
	}

	scale := eval.ScaleFull
	if *quick {
		scale = eval.ScaleQuick
	}
	fmt.Fprintln(os.Stderr, "generating datasets...")
	suite := eval.NewSuite(scale)
	fmt.Println(suite.Describe() + "\n")

	want := func(name string) bool { return *exp == "all" || *exp == name }
	// Figures 6 and 7 sweep both datasets over their own tolerances.
	sweeps := []struct {
		d    eval.Dataset
		tols []float64
	}{
		{suite.Bat, eval.BatTolerances()},
		{suite.Vehicle, eval.VehicleTolerances()},
	}

	if want("fig3") {
		r, err := eval.Fig3(suite.Bat, 5, 100)
		if err != nil {
			fail(err)
		}
		fmt.Println(r)
		if *csvDir != "" {
			var sb strings.Builder
			sb.WriteString("index,lower,upper,actual\n")
			for _, row := range r.Rows {
				fmt.Fprintf(&sb, "%d,%.4f,%.4f,%.4f\n", row.Index, row.LB, row.UB, row.Actual)
			}
			writeFile(*csvDir, "fig3_bounds.csv", sb.String())
		}
	}

	if want("fig6") {
		for _, ds := range sweeps {
			r, err := eval.Fig6(ds.d, ds.tols)
			if err != nil {
				fail(err)
			}
			fmt.Println(r)
			if *csvDir != "" {
				var sb strings.Builder
				sb.WriteString("tolerance,pruning\n")
				for _, row := range r.Rows {
					fmt.Fprintf(&sb, "%.1f,%.4f\n", row.Tolerance, row.Pruning)
				}
				writeFile(*csvDir, "fig6_"+ds.d.Name+".csv", sb.String())
			}
		}
	}

	if want("fig7") {
		for _, ds := range sweeps {
			r, err := eval.Fig7(ds.d, ds.tols, suite.BufSize)
			if err != nil {
				fail(err)
			}
			fmt.Println(r)
			if !r.BoundOK {
				fail(fmt.Errorf("fig7 %s: an error-bounded run violated its bound", ds.d.Name))
			}
			if *csvDir != "" {
				var sb strings.Builder
				sb.WriteString("tolerance")
				for _, a := range eval.Fig7Algos {
					sb.WriteString("," + string(a))
				}
				sb.WriteString("\n")
				for _, row := range r.Rows {
					fmt.Fprintf(&sb, "%.1f", row.Tolerance)
					for _, a := range eval.Fig7Algos {
						fmt.Fprintf(&sb, ",%.5f", row.Rate[a])
					}
					sb.WriteString("\n")
				}
				writeFile(*csvDir, "fig7_"+ds.d.Name+".csv", sb.String())
			}
		}
	}

	if want("fig8") {
		r, err := eval.Fig8(suite.Walk, eval.BatTolerances())
		if err != nil {
			fail(err)
		}
		fmt.Println(r)
		if *csvDir != "" {
			var sb strings.Builder
			sb.WriteString("tolerance,fbqs,dr\n")
			for _, row := range r.Rows {
				fmt.Fprintf(&sb, "%.1f,%d,%d\n", row.Tolerance, row.FBQS, row.DR)
			}
			writeFile(*csvDir, "fig8b_points.csv", sb.String())
			// Figure 8(a): the scatter itself.
			sb.Reset()
			if err := stream.WriteCSV(&sb, suite.Walk.Points); err != nil {
				fail(err)
			}
			writeFile(*csvDir, "fig8a_walk.csv", sb.String())
		}
	}

	if want("table1") {
		sizes := []int{2000, 4000, 8000, 16000}
		if *quick {
			sizes = []int{1000, 2000, 4000}
		}
		r, err := eval.Table1(sizes)
		if err != nil {
			fail(err)
		}
		fmt.Println(r)
	}

	if want("table2") {
		r, err := eval.Table2(suite)
		if err != nil {
			fail(err)
		}
		fmt.Println(r)
	}

	if want("table3") {
		n := 87704 // the paper's stream length
		if *quick {
			n = 0
		}
		r, err := eval.Table3(suite, []int{32, 64, 128, 256}, n)
		if err != nil {
			fail(err)
		}
		fmt.Println(r)
	}

	if want("ablation") {
		r, err := eval.Ablation(suite.Bat, 10)
		if err != nil {
			fail(err)
		}
		fmt.Println(r)
	}
}

func writeFile(dir, name, content string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bqsbench:", err)
	os.Exit(1)
}
