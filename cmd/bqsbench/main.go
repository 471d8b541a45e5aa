// Command bqsbench regenerates every table and figure of the paper's
// evaluation section against the generated stand-in datasets, and is
// the wire load generator for a bqsd daemon.
//
// Usage:
//
//	bqsbench [-exp all|fig3|fig6|fig7|fig8|table1|table2|table3|ablation]
//	         [-quick] [-csv dir]
//	bqsbench -serve [-devices N] [-fixes N] [-shards M] [-compressor name]
//	         [-tol metres] [-persist dir] [-trail N] [-segbytes N]
//	bqsbench -client host:port [-devices N] [-fixes N]
//	bqsbench ... [-cpuprofile file] [-memprofile file]
//
// -quick shrinks the datasets for a fast smoke run; -csv writes the raw
// series (plus the Figure 8(a) scatter data) as CSV files for plotting.
//
// -serve drives the network ingest path end to end: an in-process
// loopback server (the same engine bqsd runs) is fed N devices of
// synthetic correlated-random-walk fixes through the binary frame
// protocol, honoring backpressure retry hints, then the durable result
// is queried back over the wire. -persist keeps the server's data
// directory (default: a temporary one, removed afterwards) — the quick
// way to make a log for bqsrecover. -client does the same against an
// external bqsd — a live daemon's load generator; the daemon's own
// flags set its shards, compressor, tolerance and storage.
//
// Measurement lives elsewhere: `go test -bench . | benchstat` for the
// per-layer microbenchmarks and `go run ./bench` for wire → disk →
// query against the real daemon, with the per-layer ledger.
//
// -cpuprofile and -memprofile write pprof profiles covering the whole run
// (either mode), for `go tool pprof`; the memory profile is an allocation
// snapshot taken after the run finishes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/trajcomp/bqs/internal/eval"
	"github.com/trajcomp/bqs/internal/stream"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, fig3, fig6, fig7, fig8, table1, table2, table3, ablation)")
	quick := flag.Bool("quick", false, "use small datasets for a fast smoke run")
	csvDir := flag.String("csv", "", "directory to write raw CSV series into")
	serveMode := flag.Bool("serve", false, "run an in-process loopback bqsd server and drive it over the wire protocol instead of the paper experiments")
	clientAddr := flag.String("client", "", "drive an external bqsd at this address over the wire protocol instead of the paper experiments")
	devices := flag.Int("devices", 1000, "-serve/-client: number of concurrent device sessions")
	fixesPer := flag.Int("fixes", 500, "-serve/-client: fixes per device")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "-serve: shard worker count")
	compName := flag.String("compressor", "fbqs", fmt.Sprintf("-serve: compressor name %v", stream.Names()))
	tol := flag.Float64("tol", 10, "-serve: deviation tolerance in metres")
	persistDir := flag.String("persist", "", "-serve: data directory to keep ('' uses a temporary one)")
	trailKeys := flag.Int("trail", 0, "-serve: MaxTrailKeys per session (0 = engine default; small values force chunked records)")
	segBytes := flag.Int64("segbytes", 0, "-serve: segment rotation threshold in bytes (0 = log default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file after the run")
	flag.Parse()

	if *serveMode && *clientAddr != "" {
		fmt.Fprintln(os.Stderr, "bqsbench: -serve and -client are mutually exclusive")
		os.Exit(2)
	}
	if !*serveMode && (*persistDir != "" || *trailKeys != 0 || *segBytes != 0) {
		// They configure the in-process server; an external daemon or the
		// paper experiments would silently ignore them.
		fmt.Fprintln(os.Stderr, "bqsbench: -persist, -trail and -segbytes require -serve")
		os.Exit(2)
	}

	if err := startProfiles(*cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "bqsbench:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	fail := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "bqsbench:", err)
		os.Exit(1)
	}

	if *serveMode || *clientAddr != "" {
		if err := runServerBench(*serveMode, *clientAddr, *devices, *shards, *fixesPer, *compName, *tol, *persistDir, *trailKeys, *segBytes); err != nil {
			fail(err)
		}
		return
	}

	scale := eval.ScaleFull
	if *quick {
		scale = eval.ScaleQuick
	}
	fmt.Fprintln(os.Stderr, "generating datasets...")
	suite := eval.NewSuite(scale)
	fmt.Println(suite.Describe())
	fmt.Println()

	want := func(name string) bool { return *exp == "all" || *exp == name }

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
		for _, ds := range []struct {
			d    eval.Dataset
			tols []float64
		}{
			{suite.Bat, eval.BatTolerances()},
			{suite.Vehicle, eval.VehicleTolerances()},
		} {
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
		for _, ds := range []struct {
			d    eval.Dataset
			tols []float64
		}{
			{suite.Bat, eval.BatTolerances()},
			{suite.Vehicle, eval.VehicleTolerances()},
		} {
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
			f, err := os.Create(filepath.Join(*csvDir, "fig8a_walk.csv"))
			if err != nil {
				fail(err)
			}
			if err := stream.WriteCSV(f, suite.Walk.Points); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
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

// Profile state between startProfiles and stopProfiles.
var (
	cpuProfileFile *os.File
	memProfilePath string
)

// startProfiles begins CPU profiling and records the memory-profile
// destination; either argument may be empty.
func startProfiles(cpuPath, memPath string) error {
	memProfilePath = memPath
	if cpuPath == "" {
		return nil
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // profiling never started; the start error is the story
		return err
	}
	cpuProfileFile = f
	return nil
}

// stopProfiles finishes the CPU profile and writes the allocation profile.
// It is idempotent so error paths can call it before os.Exit.
func stopProfiles() {
	if cpuProfileFile != nil {
		pprof.StopCPUProfile()
		if err := cpuProfileFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bqsbench: cpuprofile:", err)
		}
		cpuProfileFile = nil
	}
	if memProfilePath == "" {
		return
	}
	path := memProfilePath
	memProfilePath = ""
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bqsbench: memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // flush recent allocations into the profile
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "bqsbench: memprofile:", err)
	}
}

func writeFile(dir, name, content string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bqsbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bqsbench:", err)
		os.Exit(1)
	}
}
