// Command bqsbench regenerates every table and figure of the paper's
// evaluation section against the generated stand-in datasets, and
// benchmarks the server-side ingestion engine.
//
// Usage:
//
//	bqsbench [-exp all|fig3|fig6|fig7|fig8|table1|table2|table3|ablation]
//	         [-quick] [-csv dir]
//	bqsbench -engine [-devices N] [-shards M] [-fixes N] [-compressor name]
//	         [-tol metres] [-merge metres] [-persist dir] [-query] [-cachemb N]
//	bqsbench -engine -cpus 1,2,4,8 ...
//	bqsbench -engine -serve [-devices N] [-fixes N] ...
//	bqsbench -engine -client host:port [-devices N] [-fixes N] ...
//	bqsbench ... [-cpuprofile file] [-memprofile file]
//
// -quick shrinks the datasets for a fast smoke run; -csv writes the raw
// series (plus the Figure 8(a) scatter data) as CSV files for plotting.
// -engine switches to a fleet-ingestion throughput run: N devices with
// synthetic correlated-random-walk trajectories are batched through the
// sharded engine and the wall-clock throughput is reported. -persist
// additionally opens a sharded append-only segment log in the given
// directory (one log shard per engine shard, routed by the same device
// hash) and measures the same run with durability on (each flushed
// session is written and fsync'd through the Sync barrier). -query
// (requires -persist) spreads the devices over a spatial grid of
// separate cells, then benchmarks durable window queries on the
// reopened log: a selective window covering a few percent of the fleet
// and a full-extent window, reporting latency and how many records the
// block indexes let the query skip decoding.
//
// -cpus runs the whole engine benchmark once per GOMAXPROCS value — the
// cores axis of the scaling matrix. Unless -shards is given explicitly,
// each pass uses as many shards as cores (the deployment sweet spot:
// one worker per core, each owning its own log shard); -persist runs
// write each pass into its own c<N> subdirectory so the passes stay
// independent.
//
// -serve benchmarks the network ingest path end to end: an in-process
// loopback server (the same engine bqsd runs) is driven through the
// binary frame protocol, honoring backpressure retry hints, then the
// durable result is queried back over the wire. -client does the same
// against an external bqsd — a live daemon's load generator.
//
// -cpuprofile and -memprofile write pprof profiles covering the whole run
// (either mode), for `go tool pprof`; the memory profile is an allocation
// snapshot taken after the run finishes.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/eval"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/synth"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, fig3, fig6, fig7, fig8, table1, table2, table3, ablation)")
	quick := flag.Bool("quick", false, "use small datasets for a fast smoke run")
	csvDir := flag.String("csv", "", "directory to write raw CSV series into")
	engineMode := flag.Bool("engine", false, "run the ingestion-engine throughput benchmark instead of the paper experiments")
	devices := flag.Int("devices", 1000, "engine mode: number of concurrent device sessions")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "engine mode: shard worker count")
	fixesPer := flag.Int("fixes", 500, "engine mode: fixes per device")
	compName := flag.String("compressor", "fbqs", fmt.Sprintf("engine mode: compressor name %v", stream.Names()))
	tol := flag.Float64("tol", 10, "engine mode: deviation tolerance in metres")
	mergeTol := flag.Float64("merge", 5, "engine mode without -persist: in-memory store merge tolerance in metres (0 disables merging)")
	persistDir := flag.String("persist", "", "engine mode: segment-log directory for a durable run ('' keeps the run in-memory)")
	trailKeys := flag.Int("trail", 0, "engine mode: MaxTrailKeys per session (0 = engine default; small values force chunked records)")
	segBytes := flag.Int64("segbytes", 0, "engine mode with -persist: segment rotation threshold in bytes (0 = log default; small values seal segments for -compact)")
	compact := flag.Bool("compact", false, "engine mode with -persist: compact the log after the run and report before/after disk bytes")
	query := flag.Bool("query", false, "engine mode with -persist: benchmark durable window queries (selective + full) on the reopened log")
	cacheMB := flag.Int64("cachemb", 0, "engine mode with -query: read-side record cache budget in MiB for the reopened log (0 = off)")
	cpusFlag := flag.String("cpus", "", "engine mode: comma-separated GOMAXPROCS matrix (e.g. 1,2,4,8); the whole benchmark runs once per value")
	serveMode := flag.Bool("serve", false, "engine mode: run an in-process loopback bqsd server and drive it over the wire protocol")
	clientAddr := flag.String("client", "", "engine mode: drive an external bqsd at this address instead of an in-process engine")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file after the run")
	flag.Parse()

	if err := startProfiles(*cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "bqsbench:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *engineMode {
		cpuList, err := parseCpus(*cpusFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bqsbench:", err)
			os.Exit(2)
		}
		shardsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				shardsSet = true
			}
		})
		fail := func(err error) {
			stopProfiles()
			fmt.Fprintln(os.Stderr, "bqsbench:", err)
			os.Exit(1)
		}
		if *serveMode || *clientAddr != "" {
			if *serveMode && *clientAddr != "" {
				fail(fmt.Errorf("-serve and -client are mutually exclusive"))
			}
			if cpuList != nil {
				fail(fmt.Errorf("-cpus is not supported with -serve/-client"))
			}
			if err := runServerBench(*serveMode, *clientAddr, *devices, *shards, *fixesPer, *compName, *tol, *persistDir, *trailKeys, *segBytes); err != nil {
				fail(err)
			}
			return
		}
		if cpuList == nil {
			if err := runEngineBench(*devices, *shards, *fixesPer, *compName, *tol, *mergeTol, *persistDir, *trailKeys, *segBytes, *cacheMB<<20, *compact, *query); err != nil {
				fail(err)
			}
			return
		}
		prev := runtime.GOMAXPROCS(0)
		for _, c := range cpuList {
			runtime.GOMAXPROCS(c)
			sh := *shards
			if !shardsSet {
				sh = c // one worker per core, each owning its log shard
			}
			dir := *persistDir
			if dir != "" {
				dir = filepath.Join(dir, fmt.Sprintf("c%d", c))
			}
			fmt.Printf("=== GOMAXPROCS=%d shards=%d ===\n", c, sh)
			if err := runEngineBench(*devices, sh, *fixesPer, *compName, *tol, *mergeTol, dir, *trailKeys, *segBytes, *cacheMB<<20, *compact, *query); err != nil {
				fail(err)
			}
			fmt.Println()
		}
		runtime.GOMAXPROCS(prev)
		return
	}
	if *cpusFlag != "" {
		fmt.Fprintln(os.Stderr, "bqsbench: -cpus requires -engine")
		os.Exit(2)
	}
	if *persistDir != "" {
		fmt.Fprintln(os.Stderr, "bqsbench: -persist requires -engine")
		os.Exit(2)
	}
	if *compact {
		fmt.Fprintln(os.Stderr, "bqsbench: -compact requires -engine -persist")
		os.Exit(2)
	}
	if *query {
		fmt.Fprintln(os.Stderr, "bqsbench: -query requires -engine -persist")
		os.Exit(2)
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
	fail := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "bqsbench:", err)
		os.Exit(1)
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

// parseCpus decodes the -cpus matrix; "" yields nil (single pass at the
// current GOMAXPROCS).
func parseCpus(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cpus: bad value %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// runEngineBench pushes devices×fixesPer synthetic fixes through the
// sharded ingestion engine in interleaved batches and reports wall-clock
// throughput plus compression and storage statistics. With persistDir
// set, flushed sessions are also appended to a sharded segment log there
// (one log shard per engine shard) and the final Sync is a durability
// barrier.
func runEngineBench(devices, shards, fixesPer int, compName string, tol, mergeTol float64, persistDir string, trailKeys int, segBytes, cacheBytes int64, compact, query bool) error {
	if devices <= 0 || fixesPer <= 0 {
		return fmt.Errorf("devices and fixes must be positive")
	}
	if compact && persistDir == "" {
		return fmt.Errorf("-compact requires -persist")
	}
	if query && persistDir == "" {
		return fmt.Errorf("-query requires -persist")
	}
	// History has one home: the log with -persist, else the in-memory
	// store (which a durable engine does not keep, and rejects -merge for).
	history := fmt.Sprintf("in-memory store, merge %g m", mergeTol)
	if persistDir != "" {
		history = "segment log at " + persistDir
	}
	fmt.Printf("engine benchmark: %d devices × %d fixes, %d shards, compressor %q, tol %g m, history in %s\n",
		devices, fixesPer, shards, compName, tol, history)

	// Construct the engine first: a bad compressor name, tolerance or
	// log directory fails before the (possibly large) workload is
	// generated.
	cfg := engine.Config{
		Compressor:   compName,
		Tolerance:    tol,
		Shards:       shards,
		MaxTrailKeys: trailKeys,
	}
	var lg *segmentlog.ShardedLog
	if persistDir == "" {
		cfg.Store = trajstore.Config{MergeTolerance: mergeTol}
	} else {
		var err error
		lg, err = segmentlog.OpenSharded(persistDir, shards, segmentlog.Options{MaxSegmentBytes: segBytes})
		if err != nil {
			return err
		}
		// An existing directory's persisted shard count is authoritative;
		// the engine must route devices the same way.
		cfg.Shards = lg.NumShards()
		cfg.Persister = lg
	}
	e, err := engine.New(cfg)
	if err != nil {
		if lg != nil {
			_ = lg.Close() // engine construction failed; nothing was appended
		}
		return err
	}

	// Per-device trajectories from the paper's synthetic walk model,
	// interleaved round-robin so every batch mixes devices — the
	// realistic arrival order of a fleet reporting concurrently.
	fmt.Println("generating workload...")
	// In query mode each device walks inside its own grid cell — a
	// fleet spread over a region rather than stacked on one square —
	// so selective windows have real spatial selectivity to measure.
	const cellSep = 12000 // metres between cell origins (10 km walk + 2 km gap)
	grid := int(math.Ceil(math.Sqrt(float64(devices))))
	tracks := make([][]core.Point, devices)
	names := make([]string, devices)
	for d := range tracks {
		cfg := synth.DefaultWalkConfig(int64(d) + 1)
		cfg.N = fixesPer
		tracks[d] = synth.Walk(cfg).Points()
		if query {
			offX := float64(d%grid) * cellSep
			offY := float64(d/grid) * cellSep
			for i := range tracks[d] {
				tracks[d][i].X += offX
				tracks[d][i].Y += offY
			}
		}
		names[d] = fmt.Sprintf("dev-%06d", d)
	}
	total := devices * fixesPer
	fixes := make([]engine.Fix, 0, total)
	for i := 0; i < fixesPer; i++ {
		for d := range tracks {
			fixes = append(fixes, engine.Fix{Device: names[d], Point: tracks[d][i]})
		}
	}

	const batchSize = 4096
	start := time.Now()
	for lo := 0; lo < total; lo += batchSize {
		if err := e.Ingest(fixes[lo:min(lo+batchSize, total)]); err != nil {
			return err
		}
	}
	if err := e.Sync(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	closeStart := time.Now()
	if err := e.Close(); err != nil { // flushes sessions; durable flush when persisting
		return err
	}
	closeElapsed := time.Since(closeStart)

	s := e.Stats()
	fmt.Printf("ingested %d fixes in %v  (%.0f fixes/s, %.0f ns/fix)\n",
		s.Fixes, elapsed.Round(time.Millisecond),
		float64(s.Fixes)/elapsed.Seconds(), float64(elapsed.Nanoseconds())/float64(s.Fixes))
	fmt.Printf("sessions: %d opened, %d evicted\n", s.SessionsOpened, s.SessionsEvicted)
	fmt.Printf("key points: %d  (compression rate %.4f)\n", s.KeyPoints, s.CompressionRate())
	if lg == nil {
		fmt.Printf("store: %d segments from %d inserted (%d merged), %s wire bytes\n",
			s.Store.Segments, s.Store.Inserted, s.Store.Merged, humanBytes(e.Stores().StorageBytes()))
	} else {
		// The log was closed by e.Close; reopen it to report what landed
		// on disk (also a cheap recovery self-check).
		rl, err := segmentlog.OpenSharded(persistDir, shards, segmentlog.Options{MaxSegmentBytes: segBytes, CacheBytes: cacheBytes})
		if err != nil {
			return fmt.Errorf("reopening log: %w", err)
		}
		defer rl.Close()
		ls := rl.Stats()
		total := elapsed + closeElapsed
		fmt.Printf("persisted %d trajectories to %d segment file(s), %s on disk (flush+close %v)\n",
			ls.Records, ls.Segments, humanBytes(int(ls.Bytes)), closeElapsed.Round(time.Millisecond))
		fmt.Printf("durable throughput incl. final flush: %.0f fixes/s\n",
			float64(s.Fixes)/total.Seconds())
		if ls.Truncated != 0 {
			return fmt.Errorf("log reopen truncated %d bytes after a clean close", ls.Truncated)
		}
		if compact {
			// Chunk-merge plus ageing at twice the ingest tolerance —
			// the standard "old data may be coarser" configuration.
			res, err := rl.Compact(segmentlog.CompactionPolicy{
				MergeChunks:     true,
				CoarseTolerance: 2 * tol,
			})
			if err != nil {
				return fmt.Errorf("compacting log: %w", err)
			}
			after := rl.Stats()
			fmt.Printf("compaction: disk bytes %d before, %d after (saved %.1f%%); %d merged, %d deduped, %d aged, generation %d\n",
				ls.Bytes, after.Bytes, 100*float64(ls.Bytes-after.Bytes)/float64(ls.Bytes),
				res.Merged, res.Deduped, res.Aged, res.Gen)
		}
		if query {
			if err := runQueryBench(rl, devices, grid, cellSep); err != nil {
				return err
			}
		}
	}
	return nil
}

// runQueryBench measures durable window queries on the reopened log:
// a selective window covering the first few device cells (a few percent
// of the fleet) and a full-extent window. The MetersPerDegree default
// (1e5) maps the metric workload grid to the log's degree coordinates.
func runQueryBench(rl *segmentlog.ShardedLog, devices, grid int, cellSep float64) error {
	const m = 1e5
	total := rl.Stats().Records
	type window struct {
		name                   string
		inRange                int
		iters                  int
		minX, minY, maxX, maxY float64
	}
	// Selective: the first k cells of row 0 (~3-5% of the fleet).
	k := min(max(devices/20, 1), grid)
	margin := 50.0
	ws := []window{
		{"selective", k, 20,
			-margin / m, -margin / m,
			(float64(k-1)*cellSep + 10000 + margin) / m, (10000 + margin) / m},
		{"full", devices, 5,
			-margin / m, -margin / m,
			(float64(grid)*cellSep + margin) / m, (float64(grid)*cellSep + margin) / m},
	}
	for _, w := range ws {
		var st segmentlog.WindowStats
		var matched int
		start := time.Now()
		for i := 0; i < w.iters; i++ {
			recs, s, err := rl.QueryWindowStats(w.minX, w.minY, w.maxX, w.maxY, 0, math.MaxUint32)
			if err != nil {
				return fmt.Errorf("window query (%s): %w", w.name, err)
			}
			st = s
			matched = len(recs)
		}
		per := time.Since(start) / time.Duration(w.iters)
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(st.RecordsDecoded) / float64(total)
		}
		fmt.Printf("query window (%s, %d of %d devices): %v/query, decoded %d of %d records (%.1f%%), matched %d, %d/%d segments pruned\n",
			w.name, w.inRange, devices, per.Round(time.Microsecond),
			st.RecordsDecoded, total, pct, matched, st.SegmentsPruned, st.Segments)
		if cs := rl.CacheStats(); cs.Capacity > 0 {
			fmt.Printf("query window (%s) cache: %d hits on last query, %d/%s resident\n",
				w.name, st.CacheHits, cs.Entries, humanBytes(int(cs.Bytes)))
		}
	}
	return nil
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

func humanBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d", n)
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
