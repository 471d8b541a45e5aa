// Command bench is the repository's benchmark: four workloads driven
// through the real bqsd process over loopback TCP (wire → disk →
// query), a correctness gate on what the daemon stored, and — with
// -trace 1 — an in-process replay of the same inputs through each
// layer's public constructors that yields the per-layer metrics and the
// ns/fix ledger. See README.md for the metrics, the workloads, the
// calibration behind the frozen sizes, and the API surface this pins.
//
// Usage (from the repository root):
//
//	go run ./bench -workload fleet-smooth -seed 1 [-seconds 20] [-trace 0|1]
//	go run ./bench -all -seed 1
//	go run ./bench -repeat 2 -seed 1
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed; inputs are a pure function of (workload, seed)")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured phases on the reference box; counts are derived from it")
		trace    = flag.Int("trace", 0, "1 = report the per-layer metrics: the same daemon run, then a traced in-process replay; 0 = the end-to-end metrics")
		all      = flag.Bool("all", false, "run every workload")
		repeat   = flag.Int("repeat", 0, "run this many full sets back to back and hold the later half to the earlier half by the bounds")
		scale    = flag.String("scale", "full", "full, or smoke for a seconds-long pass of every phase (tests)")
		emit     = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the workload and metric tables define it, and exit")
	)
	flag.Parse()
	if *emit {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if err := run(*workload, *seed, *seconds, *trace, *all, *repeat, *scale == "smoke"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchmarkJSON renders BENCHMARK.json from the tables in spec.go and
// metrics.go, so the file and the code cannot drift (a test compares
// them).
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds, EndToEnd: endToEnd, PerLayer: perLayer}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, workload{sp.name, sp.why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables are static data
	}
	return append(b, '\n')
}

func workloadNames() []string {
	var n []string
	for _, s := range specs {
		n = append(n, s.name)
	}
	return n
}

func run(workload string, seed int64, seconds float64, trace int, all bool, repeat int, smoke bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if !(seconds > 0) || seconds > 600 {
		return fmt.Errorf("-seconds must be in (0, 600]")
	}
	e, err := findEnv()
	if err != nil {
		return err
	}
	switch {
	case repeat > 0:
		return runRepeat(e, seed, seconds, repeat, smoke)
	case all:
		bad := 0
		for _, sp := range specs {
			res, err := runOne(e, sp, seed, seconds, trace == 1, smoke)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			bad += res.Failed
		}
		if bad > 0 {
			return fmt.Errorf("%d failed ops", bad)
		}
		return nil
	default:
		sp := specByName(workload)
		if sp == nil {
			return fmt.Errorf("unknown -workload %q (have %s)", workload, strings.Join(workloadNames(), ", "))
		}
		res, err := runOne(e, sp, seed, seconds, trace == 1, smoke)
		if err != nil {
			return err
		}
		if res.Failed > 0 {
			return fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
		}
		return nil
	}
}

// runOne runs one workload in one mode, prints every metric as
// "name value unit" and the contract's JSON object as the last line,
// and leaves the full result under bench/out.
func runOne(e *env, sp *spec, seed int64, seconds float64, traced, smoke bool) (*result, error) {
	res := newResult(sp, seed, seconds)
	res.Host = hostFingerprint(e.out)
	var err error
	if traced {
		err = runTraceMode(e, sp, seed, seconds, smoke, res)
	} else {
		err = runE2E(e, sp, seed, seconds, smoke, res)
	}
	if err != nil {
		return nil, err
	}

	defs, have := endToEnd, res.E2E
	if traced {
		defs, have = perLayer, res.Layer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := have[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.fail("metric %s missing or not finite", d.Name)
			m = metric{0, d.Unit}
		}
		if m.Unit != d.Unit {
			res.fail("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		}
		out.Metrics[d.Name] = m
	}

	fmt.Printf("# %s seed=%d seconds=%g trace=%v\n", sp.name, seed, seconds, traced)
	printMetrics(res.E2E, res.Samples)
	printMetrics(res.Layer, res.Samples)
	for _, k := range sortedKeys(res.Sizes) {
		fmt.Printf("# %s = %v\n", k, res.Sizes[k])
	}
	fmt.Printf("ops_attempted %d count\nops_failed %d count\n", res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	for _, f := range res.Failures {
		fmt.Println("FAIL:", f)
	}
	mode := "e2e"
	if traced {
		mode = "trace"
	}
	if err := writeJSON(filepath.Join(e.out, fmt.Sprintf("result-%s-%s.json", sp.name, mode)), res); err != nil {
		return nil, err
	}
	out.Correct, out.Attempted, out.Failed = res.Failed == 0, max(res.Attempted, 1), res.Failed
	line, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(ms map[string]metric, samples map[string]int) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if c, ok := samples[n]; ok {
			fmt.Printf("%s %.6g %s (n=%d)\n", n, ms[n].Value, ms[n].Unit, c)
		} else {
			fmt.Printf("%s %.6g %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
}

// runTraceMode is -trace 1: the daemon run, exactly as -trace 0 makes
// it, for the layer metrics only the live daemon can give (server.*,
// cache.*), the in-process compressor over the same inputs (which the
// daemon's key-point count must equal), and the traced replay.
func runTraceMode(e *env, sp *spec, seed int64, seconds float64, smoke bool, res *result) error {
	if err := runE2E(e, sp, seed, seconds, smoke, res); err != nil {
		return err
	}
	z := sp.sizesFor(seconds, smoke)
	gen := sp.generate(seed, z)
	if err := coreFull(sp, seed, gen, z, res); err != nil {
		return err
	}
	if err := runTraced(e, sp, seed, gen, z, res); err != nil {
		return err
	}
	l := res.Layer
	l["server.overhead_ns_per_fix"] = metric{l["server.cpu_ns_per_fix"].Value -
		l["engine.ingest_persist_ns_per_fix"].Value - l["proto.parse_ns_per_fix"].Value, "ns/fix"}
	checkPredictions(sp, res)
	return nil
}

// coreFull runs the daemon's compressor in process over every device's
// full input of this run. Where flush points are deterministic the
// daemon's key-point counter must agree exactly: the wire, the queue,
// the sessions and the chunking may not add or lose a key point.
func coreFull(sp *spec, seed int64, gen *inputs, z sizes, res *result) error {
	type part struct {
		fl    *fleet
		fixes int
		want  any // the daemon's count, when it is deterministic
	}
	parts := []part{{gen.fl, sp.fixesPerDevice(z), nil}}
	if !sp.syncFlush {
		parts[0].want = res.Sizes["daemon_keypoints"]
	}
	if gen.pre != nil {
		parts = append(parts, part{gen.pre, sp.preload.fixes, res.Sizes["preload_keypoints"]})
	}
	var keys, fixes int
	for _, p := range parts {
		n := 0
		for i := range p.fl.tracks {
			geo, err := compressTrack(&p.fl.tracks[i], p.fixes)
			if err != nil {
				return err
			}
			n += len(geo)
		}
		if p.want != nil {
			res.check(float64(n) == p.want.(float64), "daemon emitted %v key points, the in-process %s run %d on the same tracks", p.want, compressor, n)
		}
		keys += n
		fixes += p.fixes * len(p.fl.tracks)
	}
	worst := 0.0
	for _, d := range oracleSample(sp, seed, gen.pre, gen.fl, sp.fixesPerDevice(z), z.oracleDevices) {
		tr := &d.fl.tracks[d.i]
		geo, err := compressTrack(tr, d.n)
		if err != nil {
			return err
		}
		dev, _ := maxDeviation(tr, d.n, geo)
		worst = math.Max(worst, dev)
	}
	res.Layer["core.keypoints_per_kfix"] = metric{float64(keys) * 1e3 / float64(fixes), "count"}
	res.Layer["core.max_dev_over_eps"] = metric{worst / tolerance, "ratio"}
	return nil
}

// checkPredictions evaluates the interaction predictions the ledger is
// there to make checkable, prints each verdict, and counts the misses.
func checkPredictions(sp *spec, res *result) {
	l := res.Layer
	share := func(groups ...string) float64 {
		s := 0.0
		for _, g := range groups {
			s += l["ledger.share."+g].Value
		}
		return s
	}
	missed := 0
	verdict := func(ok bool, format string, args ...any) {
		tag := "ok  "
		if !ok {
			tag = "MISS"
			missed++
		}
		fmt.Printf("prediction %s %s\n", tag, fmt.Sprintf(format, args...))
	}
	switch sp.name {
	case "fleet-smooth":
		verdict(share("core", "proto", "engine") >= 0.70, "core+proto+engine = %.2f of the attributed ledger (>= 0.70)", share("core", "proto", "engine"))
		verdict(share("segmentlog", "vfs") <= 0.10, "segmentlog+vfs = %.2f (<= 0.10)", share("segmentlog", "vfs"))
	case "fleet-cutheavy":
		storage := share("trajstore", "segmentlog", "vfs")
		verdict(storage >= share("core") && storage >= share("proto") && storage >= share("engine"),
			"trajstore+segmentlog+vfs = %.2f is the largest group (core %.2f, proto %.2f, engine %.2f)", storage, share("core"), share("proto"), share("engine"))
	case "query-mix":
		verdict(share("core") == 0, "core = %.2f of the query ledger (0)", share("core"))
	}
	l["ledger.predictions_missed"] = metric{float64(missed), "count"}
}
