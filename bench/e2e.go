package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"github.com/trajcomp/bqs/internal/server"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	E2E       map[string]metric `json:"end_to_end"`
	Layer     map[string]metric `json:"per_layer"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Samples   map[string]int    `json:"samples"` // sample count behind each timing
	Sizes     map[string]any    `json:"sizes"`   // the frozen counts and rates this run used
	Host      map[string]string `json:"host"`
}

func newResult(sp *spec, seed int64, seconds float64) *result {
	return &result{Workload: sp.name, Seed: seed, Seconds: seconds,
		E2E: map[string]metric{}, Layer: map[string]metric{}, Samples: map[string]int{}, Sizes: map[string]any{}}
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one verification as an attempted op and fails it when
// ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// timing reports a median or a tail percentile with its sample count.
// A tail with fewer than ten samples beyond it is still printed — every
// run reports every metric — but flagged, so nobody reads two outliers
// as a percentile.
func (r *result) timing(dst map[string]metric, name string, samples []float64, p float64, unit string) {
	r.Samples[name] = len(samples)
	if p == 0.5 {
		dst[name] = metric{median(samples), unit}
		if len(samples) == 0 {
			r.fail("%s: no samples", name)
		}
		return
	}
	v, ok := tail(samples, p)
	dst[name] = metric{v, unit}
	if !ok {
		r.Notes = append(r.Notes, fmt.Sprintf("%s: only %d samples, fewer than %d beyond the percentile", name, len(samples), minBeyond))
	}
}

// e2eRun is the state of one workload run against the daemon.
type e2eRun struct {
	env  *env
	sp   *spec
	z    sizes
	seed int64
	res  *result

	dir     string // run directory under bench/out
	dataDir string
	logPath string

	*inputs
	d      *daemon
	conns  []*server.Client
	qconn  *server.Client
	preFix int // preloaded fixes
}

// writerStats is what one writer connection observed.
type writerStats struct {
	ackMs, syncMs, lateUs []float64
	fixes                 uint64
	frames, syncs         int
	miscounted            int // frames accepted whole whose acks did not add up to the fixes sent
	sleep, wall           time.Duration
	err                   error
}

// sleepUntil blocks until t with hrtimer precision. time.Sleep rounds
// sub-millisecond waits up to the netpoller's 1 ms granularity, which
// would be most of a 640 µs frame period; a blocking nanosleep on the
// goroutine's thread is accurate to the kernel's timer slack (~50 µs)
// and burns no CPU the daemon needs.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// write drives one connection through its frames. Closed loop: the
// next frame goes out when the previous one is fully accepted. Open
// loop: frame j is due at start+j*period and its latency runs from
// that instant, so a stall is charged to every frame it delays.
func (r *e2eRun) write(c *server.Client, g *frameGen, frames int) writerStats {
	sp := r.sp
	var ws writerStats
	c.Sleep = func(d time.Duration) {
		ws.sleep += d
		time.Sleep(d)
	}
	defer func() { c.Sleep = nil }()
	want := uint64(sp.frameDevices * sp.frameFixes)
	start := time.Now()
	prevDone := start
	for j := 0; j < frames; j++ {
		b := g.fill(j)
		t0 := time.Now()
		if sp.period > 0 {
			due := start.Add(time.Duration(j) * sp.period)
			sleepUntil(due)
			now := time.Now()
			// Generator lateness is our own overshoot: time past the
			// later of the due instant and the moment the connection
			// became free.
			free := due
			if prevDone.After(free) {
				free = prevDone
			}
			ws.lateUs = append(ws.lateUs, float64(now.Sub(free))/1e3)
			t0 = due
		}
		n, err := c.IngestAll(b, 1<<20)
		prevDone = time.Now()
		ws.frames++
		ws.fixes += n
		if err == nil && n != want {
			// Nothing is left rejected, yet the acks do not add up: bqsd
			// reads a batch's length after handing the batch to its shard
			// worker, which may already have recycled it (README.md, "What
			// the figures say"). The fixes are in — measure holds the
			// daemon's own counter to what was sent, and the oracle the
			// stored trajectories — so this is recorded, not failed.
			ws.miscounted++
		}
		if err != nil {
			ws.err = err
			break
		}
		ws.ackMs = append(ws.ackMs, float64(prevDone.Sub(t0))/1e6)
		if (j+1)%r.z.syncEvery == 0 {
			t := time.Now()
			err := c.Sync(sp.syncFlush)
			prevDone = time.Now()
			ws.syncs++
			if err != nil {
				ws.err = fmt.Errorf("sync after frame %d: %w", j, err)
				break
			}
			ws.syncMs = append(ws.syncMs, float64(prevDone.Sub(t))/1e6)
		}
	}
	ws.wall = time.Since(start)
	return ws
}

// queryStats is what the query connection observed.
type queryStats struct {
	ms      [numQueryKinds][]float64
	wall    time.Duration
	records int
	errs    []error
}

func runQueries(c *server.Client, qs []query) queryStats {
	var st queryStats
	start := time.Now()
	for _, q := range qs {
		t0 := time.Now()
		recs, err := doQuery(c, q)
		if err != nil {
			st.errs = append(st.errs, fmt.Errorf("%s query: %w", queryKindName[q.kind], err))
			if len(st.errs) > 8 {
				break // the connection is gone; stop hammering it
			}
			continue
		}
		st.ms[q.kind] = append(st.ms[q.kind], float64(time.Since(t0))/1e6)
		st.records += len(recs)
	}
	st.wall = time.Since(start)
	return st
}

// scraper polls /metrics at 1 Hz for the gauges that only mean
// something while the load is on.
type scraper struct {
	stop        chan struct{}
	stopOnce    sync.Once
	done        chan struct{}
	fullnessMax float64
}

func startScraper(d *daemon) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if m, err := d.scrape(); err == nil {
					s.fullnessMax = math.Max(s.fullnessMax, m["bqs_queue_fullness"])
				}
			}
		}
	}()
	return s
}

// finish stops the poller and returns the highest queue fullness it
// saw; later calls return the same.
func (s *scraper) finish() float64 {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
	return s.fullnessMax
}

// runE2E runs one workload against the real daemon and fills res.E2E
// and the daemon-side res.Layer metrics.
func runE2E(e *env, sp *spec, seed int64, seconds float64, smoke bool, res *result) (err error) {
	r := &e2eRun{env: e, sp: sp, seed: seed, res: res, z: sp.sizesFor(seconds, smoke)}
	r.dir = filepath.Join(e.out, fmt.Sprintf("run-%s-%d-%d", sp.name, seed, os.Getpid()))
	r.dataDir = filepath.Join(r.dir, "data")
	r.logPath = filepath.Join(r.dir, "bqsd.log")
	defer func() {
		r.closeConns()
		if r.d != nil {
			r.d.kill()
		}
		if err == nil && res.Failed == 0 {
			_ = os.RemoveAll(r.dir) // keep the daemon log and data of a failed run for inspection
		}
	}()

	res.Sizes["frames_per_conn"] = r.z.framesPerConn
	res.Sizes["fixes_per_device"] = sp.fixesPerDevice(r.z)
	res.Sizes["queries"] = r.z.queries
	res.Sizes["frames_per_s_frozen"] = sp.framesPerSec
	res.Sizes["write_share_frozen"] = sp.writeShare
	res.Sizes["queries_per_s_frozen"] = sp.queriesPerSec
	res.Sizes["query_share_frozen"] = sp.queryShare
	res.Sizes["setup_reps"] = r.z.setupReps
	res.Sizes["restarts"] = r.z.restarts
	res.Sizes["frame_period_us"] = float64(sp.period) / 1e3
	res.Sizes["bqsd_flags"] = append(append([]string{}, baseFlags...), sp.daemonFlags(true)...)

	// The build is timed once, apart: with a warm build cache it is the
	// go tool's staleness check, a fifth of a second that swings by half
	// and says nothing about the daemon.
	t0 := time.Now()
	if err := e.build(); err != nil {
		return err
	}
	res.Sizes["build_s"] = time.Since(t0).Seconds()

	// Set-up, timed several times; the last one is kept and measured.
	var setups []float64
	for rep := 0; rep < r.z.setupReps; rep++ {
		if rep > 0 {
			r.closeConns()
			r.d.kill()
			r.d = nil
		}
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.E2E["setup_s"] = metric{median(setups), "s"}
	res.Samples["setup_s"] = len(setups)

	if err := r.measure(); err != nil {
		return err
	}
	t0 = time.Now()
	err = r.verifyAndRestart()
	res.Sizes["phase_setup_total_s"] = sum(setups)
	res.Sizes["phase_verify_restart_s"] = time.Since(t0).Seconds()
	// A metric measured here but too noisy on the reference box to gate
	// (see README.md) is reported under the server layer, name kept.
	for name, m := range res.E2E {
		if !hasMetric(endToEnd, name) {
			res.Layer["server."+name] = m
			delete(res.E2E, name)
		}
	}
	return err
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func (r *e2eRun) closeConns() {
	for _, c := range r.conns {
		_ = c.Close() // request/response is complete; nothing buffered to lose
	}
	if r.qconn != nil {
		_ = r.qconn.Close()
	}
	r.conns, r.qconn = nil, nil
}

// setup generates the inputs, starts the daemon on an empty data
// directory, preloads if the workload asks for it, and opens the
// connections — everything between the build and the first measured op.
func (r *e2eRun) setup() error {
	sp := r.sp
	if err := os.RemoveAll(r.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(r.dataDir, 0o755); err != nil {
		return err
	}

	r.inputs = sp.generate(r.seed, r.z)
	if sp.preload != nil {
		if err := r.preload(); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	d, err := startDaemon(r.env.bin, r.dataDir, r.logPath, sp.daemonFlags(true))
	if err != nil {
		return err
	}
	r.d = d
	for c := 0; c < sp.conns; c++ {
		cl, err := server.Dial(d.addr, tenant)
		if err != nil {
			return err
		}
		r.conns = append(r.conns, cl)
	}
	r.qconn, err = server.Dial(d.addr, tenant)
	return err
}

// preloadSyncEvery is the number of preload frames between barriers.
const preloadSyncEvery = 4

// preload writes the preload fleet through a first daemon, flushes,
// and drains it cleanly (which runs the final compaction).
func (r *e2eRun) preload() error {
	p := r.sp.preload
	d, err := startDaemon(r.env.bin, r.dataDir, r.logPath, r.sp.daemonFlags(false))
	if err != nil {
		return err
	}
	defer d.kill()
	c, err := server.Dial(d.addr, tenant)
	if err != nil {
		return err
	}
	defer c.Close()
	g, frames := r.preloadFrames(p.fixes)
	var sent uint64
	for j := 0; j < frames; j++ {
		n, err := c.IngestAll(g.fill(j), 1<<20)
		if err != nil {
			return err
		}
		sent += n
		// A barrier every few frames keeps the shard queues from
		// filling: a rejection would put a 50-100 ms retry sleep into a
		// set-up that is well under a second.
		if (j+1)%preloadSyncEvery == 0 {
			if err := c.Sync(false); err != nil {
				return err
			}
		}
	}
	if err := c.Sync(true); err != nil {
		return err
	}
	r.preFix = int(sent)
	if want := p.devices * p.fixes; r.preFix != want {
		return fmt.Errorf("accepted %d of %d fixes", r.preFix, want)
	}
	m, err := d.scrape()
	if err != nil {
		return err
	}
	r.res.Sizes["preload_keypoints"] = m["bqs_ingest_keypoints_total"]
	return d.term()
}

// measure runs the measured phase: the writers (and, beside or after
// them, the query connection), ending with the flushing barrier.
func (r *e2eRun) measure() error {
	sp, res, d := r.sp, r.res, r.d
	p0, err := d.proc()
	if err != nil {
		return err
	}
	m0, err := d.scrape()
	if err != nil {
		return err
	}
	scr := startScraper(d)
	defer scr.finish()

	var (
		writers, queries sync.WaitGroup
		ws               = make([]writerStats, sp.conns)
		qs               queryStats
	)
	start := time.Now()
	for i := range r.conns {
		writers.Add(1)
		go func() {
			defer writers.Done()
			ws[i] = r.write(r.conns[i], r.gens[i], r.z.framesPerConn)
		}()
	}
	if sp.concurrent {
		queries.Add(1)
		go func() {
			defer queries.Done()
			qs = runQueries(r.qconn, r.qs)
		}()
	}
	writers.Wait()
	flushErr := r.conns[0].Sync(true)
	ingestWall := time.Since(start)
	queries.Wait()
	// CPU is charged over the phase the workload is about — the writers
	// up to the flushing barrier, and the queries where they run beside
	// them — not the read-back that follows.
	cpuWall := time.Since(start)
	pIngest, err := d.proc()
	if err != nil {
		return err
	}
	if !sp.concurrent {
		qs = runQueries(r.qconn, r.qs)
	}
	fullness := scr.finish()
	p1, err := d.proc()
	if err != nil {
		return err
	}
	m1, err := d.scrape()
	if err != nil {
		return err
	}

	// Ops: every frame, barrier and query is one; an error is a failure.
	var ack, syncs, late []float64
	var fixes uint64
	var sleep, connWall time.Duration
	miscounted := 0
	for i := range ws {
		w := &ws[i]
		res.Attempted += w.frames + w.syncs
		if w.err != nil {
			res.fail("writer %d: %v", i, w.err)
		}
		ack, syncs, late = append(ack, w.ackMs...), append(syncs, w.syncMs...), append(late, w.lateUs...)
		fixes += w.fixes
		miscounted += w.miscounted
		sleep += w.sleep
		connWall += w.wall
	}
	res.Attempted += 1 + len(r.qs)
	if flushErr != nil {
		res.fail("final Sync(true): %v", flushErr)
	}
	for _, err := range qs.errs {
		res.fail("%v", err)
	}
	sent := uint64(sp.conns * r.z.framesPerConn * sp.frameDevices * sp.frameFixes)
	delta := func(name string) float64 { return m1[name] - m0[name] }
	res.check((fixes == sent || miscounted > 0) && delta("bqs_ingest_fixes_total") == float64(sent),
		"accepted fixes: clients saw %d, daemon counted %.0f, sent %d", fixes, delta("bqs_ingest_fixes_total"), sent)
	if miscounted > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d frames were accepted whole but their acks summed to %d fixes of the %d sent; the daemon counted %.0f",
			miscounted, fixes, sent, delta("bqs_ingest_fixes_total")))
	}

	e := res.E2E
	e["ingest_kfix_per_s"] = metric{float64(fixes) / ingestWall.Seconds() / 1e3, "kfix/s"}
	cpu := pIngest.cpuSeconds - p0.cpuSeconds
	e["server_cpu_s"] = metric{cpu, "s"}
	res.timing(e, "ack_ms_p50", ack, 0.5, "ms")
	res.timing(e, "ack_ms_p99", ack, 0.99, "ms")
	res.timing(e, "sync_ms_p50", syncs, 0.5, "ms")
	res.timing(e, "query_sel_ms_p50", qs.ms[qSel], 0.5, "ms")
	res.timing(e, "query_sel_ms_p99", qs.ms[qSel], 0.99, "ms")
	res.timing(e, "query_dev_ms_p50", qs.ms[qDev], 0.5, "ms")
	res.timing(e, "query_full_ms_p50", qs.ms[qFull], 0.5, "ms")
	e["query_per_s"] = metric{float64(len(r.qs)) / qs.wall.Seconds(), "1/s"}
	e["compression_rate"] = metric{delta("bqs_ingest_keypoints_total") / delta("bqs_ingest_fixes_total"), "ratio"}
	e["rss_peak_mib"] = metric{p1.hwmMiB, "MiB"}

	// The daemon seen from outside: what the load did to it.
	l := res.Layer
	rej := delta("bqs_ingest_rejected_total")
	l["server.rejected_share"] = metric{rej / (rej + float64(sent)), "ratio"}
	l["server.retry_wait_share"] = metric{sleep.Seconds() / connWall.Seconds(), "ratio"}
	l["server.cpu_util"] = metric{cpu / cpuWall.Seconds(), "ratio"}
	l["server.queue_fullness_max"] = metric{fullness, "ratio"}
	l["server.io_write_bytes"] = metric{p1.writeBytes - p0.writeBytes, "B"}
	l["server.io_syscw"] = metric{p1.syscw - p0.syscw, "count"}
	l["server.cpu_ns_per_fix"] = metric{cpu * 1e9 / float64(sent), "ns/fix"}
	lateP99 := 0.0
	if len(late) > 0 {
		lateP99, _ = tail(late, 0.99)
		// A late generator measures itself, not the daemon: above 1 ms,
		// or half a frame period where that is longer, the run's open-loop
		// latencies are void. That is the generator's fault or the host's,
		// not a wrong answer from the daemon, so it is flagged, not failed
		// (in a slow minute of the reference box it happens to one
		// query-mix run in eighty).
		if limit := math.Max(1000, float64(sp.period)/2e3); lateP99 > limit {
			res.Notes = append(res.Notes, fmt.Sprintf("generator ran %.0f us late at p99, over its %.0f us limit: this run's ack and barrier latencies are the generator's, not the daemon's", lateP99, limit))
		}
	}
	l["server.gen_late_us_p99"] = metric{lateP99, "us"}
	l["server.ack_miscounted_frames"] = metric{float64(miscounted), "count"}
	hits, misses := delta("bqs_cache_hits_total"), delta("bqs_cache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	l["cache.hit_ratio"] = metric{ratio, "ratio"}
	l["cache.evictions"] = metric{delta("bqs_cache_evictions_total"), "count"}
	l["cache.resident_bytes"] = metric{m1["bqs_cache_bytes"], "B"}
	l["cache.generations"] = metric{delta("bqs_log_generation"), "count"}
	res.Sizes["fixes_sent"] = sent
	res.Sizes["daemon_keypoints"] = delta("bqs_ingest_keypoints_total")
	res.Sizes["phase_ingest_s"] = ingestWall.Seconds()
	res.Sizes["phase_query_s"] = qs.wall.Seconds()
	res.Sizes["query_records"] = qs.records

	if sp.cut {
		cr := e["compression_rate"].Value
		res.check(cr >= 0.25 && cr <= 0.6, "cut-heavy compression rate %.3f outside [0.25, 0.6]", cr)
	}
	return nil
}

// restart stops the daemon (SIGKILL or clean drain), starts it again on
// the same data directory and returns exec → first answered query.
func (r *e2eRun) restart(kill bool) (ms float64, err error) {
	r.closeConns()
	if kill {
		r.d.kill()
	} else if err := r.d.term(); err != nil {
		return 0, err
	}
	r.d = nil
	d, err := startDaemon(r.env.bin, r.dataDir, r.logPath, r.sp.daemonFlags(true))
	if err != nil {
		return 0, err
	}
	r.d = d
	c, err := server.Dial(d.addr, tenant)
	if err != nil {
		return 0, err
	}
	r.qconn = c
	recs, err := c.QueryTime(r.fl.names[0], 0, math.MaxUint32)
	ms = float64(time.Since(d.execAt)) / 1e6
	if err == nil && len(recs) == 0 {
		err = errors.New("first query after restart returned nothing")
	}
	return ms, err
}

// verifyAndRestart is everything after the measured phase: the
// correctness gate on what the daemon now holds, the restart cycles,
// and the clean drain that prices the data on disk.
func (r *e2eRun) verifyAndRestart() error {
	sp, res := r.sp, r.res
	before, err := r.takeSnapshot(r.devices())
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	r.verifyContent(before)

	var restarts []float64
	drained := false
	cycle := func(kill bool) error {
		ms, err := r.restart(kill)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if !kill && !drained {
			drained = true
			n, err := dirBytes(filepath.Join(r.dataDir, tenant))
			if err != nil {
				return err
			}
			total := int(res.Sizes["fixes_sent"].(uint64)) + r.preFix
			res.E2E["disk_bytes_per_fix"] = metric{float64(n) / float64(total), "B/fix"}
		}
		restarts = append(restarts, ms)
		return nil
	}
	compare := func(what string, devices []string) error {
		after, err := r.takeSnapshot(devices)
		if err != nil {
			return fmt.Errorf("snapshot after %s: %w", what, err)
		}
		res.check(before.holds(after, res), "stored trajectories changed across %s", what)
		return nil
	}
	for i := 0; i < r.z.restarts; i++ {
		if err := cycle(sp.restartKill); err != nil {
			return err
		}
		if i == 0 {
			what := "a clean restart"
			if sp.restartKill {
				what = "SIGKILL"
			}
			if err := compare(what, r.devices()); err != nil {
				return err
			}
		}
	}
	res.E2E["restart_ms"] = metric{median(restarts), "ms"}
	res.Samples["restart_ms"] = len(restarts)
	if sp.restartKill {
		// The kill cycles priced recovery; the data on disk is priced
		// after a clean drain, and must survive that too. Every device was
		// compared across the kill; the oracle's sample is compared here
		// (a third full snapshot is seconds of the run).
		if err := cycle(false); err != nil {
			return err
		}
		var sample []string
		for _, d := range oracleSample(sp, r.seed, r.pre, r.fl, sp.fixesPerDevice(r.z), r.z.oracleDevices) {
			sample = append(sample, d.fl.names[d.i])
		}
		if err := compare("a clean restart", sample); err != nil {
			return err
		}
	}
	r.closeConns()
	err = r.d.term()
	r.d = nil
	return err
}
