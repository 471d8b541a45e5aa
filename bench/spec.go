package main

import (
	"fmt"
	"math"
	"time"
)

// Fixed daemon settings shared by every workload. The queue depth is
// deliberately left at bqsd's default: the rejection/retry-after path
// is part of what a client gets.
const (
	tolerance  = 10.0
	compressor = "fbqs"
	shards     = 2
	tenant     = "bench"
)

var baseFlags = []string{"-shards", fmt.Sprint(shards), "-tol", fmt.Sprint(tolerance), "-compressor", compressor}

// spec is one workload. Work is a fixed count derived from --seconds
// and the frozen rates below, never a deadline: the daemon's live store
// grows with the run, so throughput depends on how far in you are, and
// only equal counts compare.
type spec struct {
	name string
	why  string

	// Daemon settings (zero = bqsd's default). The traced in-process
	// passes hand the same values to the layers' constructors.
	trail        int
	segBytes     int64
	compactEvery time.Duration
	cacheMB      int64 // measured daemon only; the preload daemon runs without

	devices int  // devices written during the measured phase
	firstID int  // id of the first written device (after any preloaded ones)
	gridW   int  // cell grid side
	baseLen int  // fixes in one base lap
	cut     bool // urban-grid tracks instead of synth.Walk

	conns        int           // writer connections
	frameDevices int           // device batches per ingest frame
	frameFixes   int           // fixes per device batch
	syncEvery    int           // frames between Sync barriers on a connection
	syncFlush    bool          // periodic barriers flush sessions (Sync(true))
	period       time.Duration // per-connection frame period; 0 = closed loop

	// Frozen calibration (see README.md): what the reference box does
	// per second, and the share of --seconds each phase is sized for, so
	// the measured phases together last about --seconds there.
	framesPerSec  float64 // writer frames per second, all connections together
	writeShare    float64 // share of --seconds the writers are sized for
	queriesPerSec float64 // queries per second of the query phase
	queryShare    float64 // share of --seconds the query phase is sized for
	concurrent    bool    // queries run beside the writers instead of after them

	preload   *preloadSpec
	setupReps int // set-ups timed per run: enough passes of this workload's set-up to fill a second or two, 5 to 15

	fullFrac    float64 // share of grid columns a "full" window spans
	restartKill bool    // restart_ms is timed after SIGKILL instead of a clean drain

	traceFixes int // fixes replayed by the in-process traced passes
}

// preloadSpec is the data set-up loads (and drains cleanly) before the
// measured daemon starts.
type preloadSpec struct {
	devices int
	fixes   int // per device
}

// daemonFlags renders the workload's bqsd flags after baseFlags.
func (s *spec) daemonFlags(cache bool) []string {
	var f []string
	if s.trail > 0 {
		f = append(f, "-trail", fmt.Sprint(s.trail))
	}
	if s.segBytes > 0 {
		f = append(f, "-segbytes", fmt.Sprint(s.segBytes))
	}
	if s.compactEvery > 0 {
		f = append(f, "-compact-interval", s.compactEvery.String())
	}
	if cache && s.cacheMB > 0 {
		f = append(f, "-cache-mb", fmt.Sprint(s.cacheMB))
	}
	return f
}

var specs = []*spec{
	{
		name: "fleet-smooth",
		why:  "2000 walk devices, 50x100-fix frames, closed loop: ~97% of fixes are discarded, so proto parse, engine queueing and core Push do the work and the log sees a trickle",
		// default -trail / -segbytes, no cache, no compaction

		devices: 2000, gridW: 44, baseLen: 1000,
		conns: 2, frameDevices: 50, frameFixes: 100, syncEvery: 16,
		framesPerSec: 460, writeShare: 0.833, queriesPerSec: 110, queryShare: 0.075,
		setupReps: 11, fullFrac: 1.0 / 3, traceFixes: 2_000_000,
	},
	{
		name:  "fleet-cutheavy",
		why:   "closed loop, 500 street-grid devices turning every 2-4 fixes, small trails and segments, compaction, SIGKILL: store insert, trail encode, append, fsync, rotation and compaction dominate",
		trail: 16, segBytes: 65536, compactEvery: 2 * time.Second,

		devices: 500, gridW: 22, baseLen: 2000, cut: true,
		conns: 2, frameDevices: 50, frameFixes: 20, syncEvery: 8,
		framesPerSec: 1500, writeShare: 0.4, queriesPerSec: 40, queryShare: 0.1,
		setupReps: 15, fullFrac: 1.5 / 22, restartKill: true, traceFixes: 1_000_000,
	},
	{
		name:    "gateway-paced",
		why:     "2000 walk devices, one 32x1-fix frame per connection every 640us on a fixed schedule (open loop): per-frame cost, queue wait and the durability barrier set the ack latency, the compressor is noise",
		devices: 2048, gridW: 45, baseLen: 1000,
		conns: 2, frameDevices: 32, frameFixes: 1, syncEvery: 1562,
		period:       640 * time.Microsecond,
		framesPerSec: 3125, writeShare: 0.9, queriesPerSec: 1300, queryShare: 0.065,
		setupReps: 11, fullFrac: 1, traceFixes: 200_000,
	},
	{
		name:  "query-mix",
		why:   "queries over 1024 preloaded devices through a cache a quarter of the working set while a paced writer rotates segments and compaction republishes: index, pread, decode, filter run cold and warm",
		trail: 16, segBytes: 65536, compactEvery: 5 * time.Second, cacheMB: 1,

		devices: 64, firstID: 1024, gridW: 32, baseLen: 2000, cut: true,
		conns: 1, frameDevices: 16, frameFixes: 4, syncEvery: 31, syncFlush: true,
		period:       8 * time.Millisecond,
		framesPerSec: 125, writeShare: 0.9, queriesPerSec: 260, queryShare: 0.9, concurrent: true,
		preload:   &preloadSpec{devices: 1024, fixes: 500},
		setupReps: 5, fullFrac: 1, traceFixes: 700_000,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// sizes are the counts one run executes.
type sizes struct {
	framesPerConn int
	queries       int
	setupReps     int // set-ups timed per run (median reported)
	restarts      int // restart cycles timed per run (median reported)
	oracleDevices int
	checkWindows  int
	syncEvery     int // spec.syncEvery, shortened when a smoke run has too few frames to reach it twice
	traceFixes    int // cap on the fixes the traced passes replay
}

// sizesFor derives the counts from --seconds. Smoke runs (tests) keep
// every phase but shrink it to the minimum that touches every device.
func (s *spec) sizesFor(seconds float64, smoke bool) sizes {
	gen := s.groupsPerConn()
	z := sizes{setupReps: s.setupReps, restarts: 5, oracleDevices: 64, checkWindows: 32, traceFixes: s.traceFixes}
	frames := s.framesPerSec * seconds * s.writeShare / float64(s.conns)
	z.queries = int(math.Round(s.queriesPerSec * seconds * s.queryShare))
	if smoke {
		z.setupReps, z.restarts, z.oracleDevices, z.checkWindows = 1, 1, 8, 4
		z.traceFixes = min(z.traceFixes, 100_000)
	}
	// Whole sweeps only, and at least two, so every device is written
	// and every device has the same number of fixes.
	sweeps := max(int(math.Round(frames/float64(gen))), 2)
	z.framesPerConn = sweeps * gen
	z.syncEvery = max(min(s.syncEvery, z.framesPerConn/2), 1)
	z.queries = max(z.queries/len(mixBlock), 2) * len(mixBlock) // whole blocks of the mix
	return z
}

// fixesPerDevice is how many fixes each written device gets.
func (s *spec) fixesPerDevice(z sizes) int {
	return z.framesPerConn / s.groupsPerConn() * s.frameFixes
}

// groupsPerConn is the number of frames one connection needs to touch
// each of its devices once (one sweep).
func (s *spec) groupsPerConn() int { return s.devices / s.conns / s.frameDevices }
