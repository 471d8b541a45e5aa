package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// everyFix is the model tests' compressor: every fix is a key point at
// once, so the trail a session holds is a pure function of the fixes it
// was sent and the reference model needs no compressor of its own.
type everyFix struct{}

func (everyFix) Push(p core.Point) (core.Point, bool) { return p, true }
func (everyFix) Flush() (core.Point, bool)            { return core.Point{}, false }

func init() {
	if err := stream.Register("model-everyfix", func(float64) (stream.Compressor, error) { return everyFix{}, nil }); err != nil {
		panic(err)
	}
}

// The errors the scripted backend fails with: one trajstore.TransientErr
// retries, one it does not.
var (
	errHiccup = fmt.Errorf("scripted hiccup: %w", syscall.EIO)
	errFull   = fmt.Errorf("scripted full disk: %w", syscall.ENOSPC)
)

// scriptBackend is an in-memory trajstore.Backend that fails on cue: the
// next appendFails Appends (syncFails Syncs) fail with errHiccup, and
// while appendDown (syncDown) is set every one fails with errFull.
type scriptBackend struct {
	mu                     sync.Mutex
	appendFails, syncFails int
	appendDown, syncDown   bool
	compactFail            bool
	held                   map[string][][]trajstore.GeoKey // per device, in append order
	appends                chan struct{}                   // when non-nil, signalled (non-blocking) on every Append call
}

func (b *scriptBackend) Append(device string, keys []trajstore.GeoKey) error {
	if b.appends != nil {
		select {
		case b.appends <- struct{}{}:
		default:
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.appendDown:
		return errFull
	case b.appendFails > 0:
		b.appendFails--
		return errHiccup
	}
	if b.held == nil {
		b.held = make(map[string][][]trajstore.GeoKey)
	}
	b.held[device] = append(b.held[device], keys)
	return nil
}

func (b *scriptBackend) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.syncDown:
		return errFull
	case b.syncFails > 0:
		b.syncFails--
		return errHiccup
	}
	return nil
}

func (b *scriptBackend) CompactNow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.compactFail {
		b.compactFail = false
		return errors.New("scripted compaction failure")
	}
	return nil
}

func (b *scriptBackend) Close() error { return nil }
func (b *scriptBackend) AppendTrail(device string, t *trajstore.Trail) error {
	return b.Append(device, t.Keys())
}
func (b *scriptBackend) script(f func(*scriptBackend)) { b.mu.Lock(); f(b); b.mu.Unlock() }
func (b *scriptBackend) records(device string) [][]trajstore.GeoKey {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.held[device]
}
func (b *scriptBackend) WindowBlocks(_, _, _, _ float64, _, _ uint32, _ func(trajstore.Block) error) error {
	return nil
}
func (b *scriptBackend) DeviceBlocks(string, uint32, uint32, func(trajstore.Block) error) error {
	return nil
}

// errClass is what model and engine must agree on for every call.
type errClass int

const (
	clsNil errClass = iota
	clsClosed
	clsDegraded
	clsBackpressure
	clsOther // a transient sync failure, a failed heal probe, a failed compaction pass
)

func classOf(err error) errClass {
	switch {
	case err == nil:
		return clsNil
	case errors.Is(err, ErrClosed):
		return clsClosed
	case errors.Is(err, ErrDegraded):
		return clsDegraded
	case errors.Is(err, ErrBackpressure):
		return clsBackpressure
	}
	return clsOther
}

// mRec is one finalized trail: keys from .. from+n-1 of dev's fix stream
// (with everyFix, key i is fix i).
type mRec struct {
	dev     string
	from, n int
}

// mSess is an open session's trail.
type mSess struct {
	from, n int
	chunked bool
	seen    int64
}

// model is the reference the engine is held to: the lifecycle phase, each
// shard's queue of parked trails, what was acked, what the backend was
// handed, and the scripted backend's pending faults — all advanced by one
// goroutine, one op at a time, with no concurrency and no clock but now.
type model struct {
	shards, maxKeys int
	idle, now       int64
	phase           Phase
	cause           bool
	sess            map[string]*mSess
	acked           map[string]int    // fixes acked, per device
	records         map[string][]mRec // every trail finalized, per device in order
	held            map[string][]mRec // the ones the backend holds
	parked          [][]mRec          // the ones parked, per shard, oldest first
	rejected        int

	appendFails, syncFails int
	appendDown, syncDown   bool
	compactFail            bool
}

func newModel(shards, maxKeys int, idle int64) *model {
	return &model{
		shards: shards, maxKeys: maxKeys, idle: idle,
		sess: map[string]*mSess{}, acked: map[string]int{},
		records: map[string][]mRec{}, held: map[string][]mRec{},
		parked: make([][]mRec, shards),
	}
}

func (m *model) parkedTrails() (n int) {
	for _, q := range m.parked {
		n += len(q)
	}
	return n
}

// owed reports whether a key point is in no record the backend holds: a
// trail is parked, or a session's is more than the last record's end key.
func (m *model) owed() bool {
	for _, s := range m.sess {
		if !(s.chunked && s.n == 1) {
			return true
		}
	}
	return m.parkedTrails() > 0
}

// fail is evFail.
func (m *model) fail() {
	switch m.phase {
	case Healthy, Healing:
		m.phase, m.cause = Degraded, true
	case Closing:
		m.cause = true
	}
}

// tryAppend is one appendGeo: a hiccup is absorbed by the retry loop.
func (m *model) tryAppend(r mRec) bool {
	if m.appendDown {
		return false
	}
	m.appendFails = 0
	m.held[r.dev] = append(m.held[r.dev], r)
	return true
}

// persist is persistGeo.
func (m *model) persist(r mRec) {
	m.records[r.dev] = append(m.records[r.dev], r)
	sh := trajstore.ShardIndex(r.dev, m.shards)
	if len(m.parked[sh]) == 0 && m.phase != Degraded {
		if m.tryAppend(r) {
			return
		}
		m.fail()
	}
	m.parked[sh] = append(m.parked[sh], r)
}

// drain is drainParked.
func (m *model) drain(sh int) bool {
	for len(m.parked[sh]) > 0 {
		if !m.tryAppend(m.parked[sh][0]) {
			return false
		}
		m.parked[sh] = m.parked[sh][1:]
	}
	return true
}

// probe is one backend.Sync.
func (m *model) probe() (ok, terminal bool) {
	switch {
	case m.syncDown:
		return false, true
	case m.syncFails > 0:
		m.syncFails--
		return false, false
	}
	return true, false
}

// fix is one ingested fix reaching its session (emit + chunking).
func (m *model) fix(dev string) {
	s := m.sess[dev]
	if s == nil {
		s = &mSess{from: m.acked[dev]}
		m.sess[dev] = s
	}
	m.acked[dev]++
	s.seen = m.now
	s.n++
	if s.n >= m.maxKeys {
		m.closeSession(dev, false)
	}
}

// closeSession is persistTrail under closeSession or a chunk: the trail
// goes out unless it is only the key the last record ended on; final, the
// session is over, else — a chunk, a flush's cut — it restarts from that key.
func (m *model) closeSession(dev string, final bool) {
	s := m.sess[dev]
	if !(s.chunked && s.n == 1) {
		m.persist(mRec{dev, s.from, s.n})
	}
	if final {
		delete(m.sess, dev)
		return
	}
	s.from, s.n, s.chunked = s.from+s.n-1, 1, true
}

func (m *model) devices() []string {
	out := make([]string, 0, len(m.sess))
	for d := range m.sess {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func (m *model) ingest(devs []string) errClass {
	switch m.phase {
	case Healthy:
		for _, d := range devs {
			m.fix(d)
		}
		return clsNil
	case Degraded, Healing:
		m.rejected += len(devs)
		return clsDegraded
	}
	return clsClosed
}

func (m *model) sync() errClass {
	if m.phase >= Closing {
		return clsClosed
	}
	ok, terminal := m.probe()
	if terminal {
		m.fail()
	}
	switch {
	case m.phase != Healthy:
		return clsDegraded
	case !ok:
		return clsOther
	}
	return clsNil
}

// flush is FlushSessions, which cuts every session, or (idleOnly)
// EvictIdle, which ends the idle ones.
func (m *model) flush(idleOnly bool) errClass {
	if m.phase >= Closing {
		return clsClosed
	}
	for _, d := range m.devices() {
		if !idleOnly || m.now-m.sess[d].seen >= m.idle {
			m.closeSession(d, idleOnly)
		}
	}
	return clsNil
}

func (m *model) heal() errClass {
	if m.phase >= Closing {
		return clsClosed
	}
	if ok, _ := m.probe(); !ok {
		return clsOther
	}
	if m.phase == Degraded {
		m.phase = Healing
		for sh := range m.parked {
			if !m.drain(sh) {
				m.fail()
			}
		}
		if m.phase == Healing {
			m.phase, m.cause = Healthy, false
		}
	}
	if m.phase != Healthy {
		return clsDegraded
	}
	return clsNil
}

func (m *model) compact() errClass {
	if m.phase >= Closing {
		return clsClosed
	}
	if m.compactFail {
		m.compactFail = false
		return clsOther
	}
	return clsNil
}

// close is Close: the final flush, then every shard's last drain.
func (m *model) close() errClass {
	if m.phase >= Closing {
		return clsNil
	}
	m.phase = Closing
	for _, d := range m.devices() {
		m.closeSession(d, true)
	}
	for sh := range m.parked {
		m.drain(sh)
	}
	m.phase = Closed
	if m.parkedTrails() > 0 {
		return clsDegraded
	}
	return clsNil
}

// mOp is one step of a driven sequence.
type mOp struct {
	kind string
	devs []string // ingest, try-ingest: one fix per entry, in order (try-ingest: one trail per device)
}

// genOps draws a seeded op sequence. It always ends in a close, half the
// time with the faults cleared first, so both of Close's outcomes —
// everything written out, and a loss report — are reached.
func genOps(rng *rand.Rand, n int) []mOp {
	weighted := []struct {
		kind string
		w    int
	}{
		{"ingest", 30}, {"try-ingest", 10}, {"sync", 10}, {"flush", 8}, {"evict", 6},
		{"fail-append-transient", 4}, {"fail-append-terminal", 4},
		{"fail-sync-transient", 3}, {"fail-sync-terminal", 3},
		{"clear-fault", 8}, {"heal", 8}, {"compact-ok", 2}, {"compact-fail", 2}, {"close", 1},
	}
	total := 0
	for _, k := range weighted {
		total += k.w
	}
	ops := make([]mOp, 0, n+2)
	for len(ops) < n {
		x := rng.Intn(total)
		k := 0
		for ; x >= weighted[k].w; k++ {
			x -= weighted[k].w
		}
		op := mOp{kind: weighted[k].kind}
		if strings.HasSuffix(op.kind, "ingest") {
			for i, c := 0, 1+rng.Intn(8); i < c; i++ {
				op.devs = append(op.devs, fmt.Sprintf("dev-%d", rng.Intn(6)))
			}
		}
		ops = append(ops, op)
		if op.kind == "close" {
			n = min(n, len(ops)+4) // a few calls on the closed engine, no more
		}
	}
	if rng.Intn(2) == 0 {
		ops = append(ops, mOp{kind: "clear-fault"})
	}
	return append(ops, mOp{kind: "close"})
}

// modelPoint is fix i of a device: on the wire format's grid, so it
// survives the persist round trip bit-exactly, with T = i.
func modelPoint(dev string, i int) core.Point {
	d, _ := strconv.Atoi(strings.TrimPrefix(dev, "dev-"))
	return core.Point{X: float64(i) * 10, Y: float64(d) * 1000, T: float64(i)}
}

// modelFixes turns an op's device list into the next fixes of those devices.
func modelFixes(devs []string, sent map[string]int) []Fix {
	fixes := make([]Fix, len(devs))
	next := map[string]int{}
	for i, d := range devs {
		fixes[i] = Fix{Device: d, Point: modelPoint(d, sent[d]+next[d])}
		next[d]++
	}
	return fixes
}

// deviceRuns splits an op's device list into one run per device, in order of
// first appearance: the batches of a frame carrying those fixes.
func deviceRuns(devs []string) [][]string {
	var runs [][]string
	at := map[string]int{}
	for _, d := range devs {
		i, ok := at[d]
		if !ok {
			i = len(runs)
			at[d] = i
			runs = append(runs, nil)
		}
		runs[i] = append(runs[i], d)
	}
	return runs
}

// modelTrail is a device run's next fixes as the block the server hands
// TryIngestTrail: the wire keys of the points Ingest would have taken.
func modelTrail(t *testing.T, run []string, sent map[string]int) *trajstore.Trail {
	t.Helper()
	var tr trajstore.Trail
	for _, f := range modelFixes(run, sent) {
		if err := tr.Add(trajstore.PlaneKey(f.Point)); err != nil {
			t.Fatal(err)
		}
	}
	return &tr
}

// modelSeeds is how many seeded sequences the model tests run:
// BQS_FAULT_SEEDS, like the segment log's fault matrix (CI 32, nightly 256).
func modelSeeds(t *testing.T) int {
	n := 32
	if s := os.Getenv("BQS_FAULT_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("BQS_FAULT_SEEDS = %q: want a positive integer", s)
		}
		n = v
	}
	if testing.Short() {
		n = min(n, 8)
	}
	return n
}

const (
	modelShards  = 2
	modelMaxKeys = 4
	modelIdle    = 10 // seconds
	modelOps     = 120
)

func modelConfig(p trajstore.Persister, now *atomic.Int64) Config {
	return Config{
		Compressor: "model-everyfix", Tolerance: 1, Shards: modelShards, MaxTrailKeys: modelMaxKeys,
		IdleTimeout: modelIdle * time.Second, Persister: p,
		Clock: func() time.Time { return time.Unix(now.Load(), 0) },
	}
}

// lossReport parses the counts out of Close's loss report.
func lossReport(t *testing.T, err error) (trails, keys int) {
	t.Helper()
	msg := err.Error()
	i := strings.Index(msg, "dropped ")
	if i < 0 {
		t.Fatalf("Close's error does not state what was dropped: %v", err)
	}
	if _, serr := fmt.Sscanf(msg[i:], "dropped %d parked trails (%d key points)", &trails, &keys); serr != nil {
		t.Fatalf("Close's loss report %q: %v", msg[i:], serr)
	}
	return trails, keys
}

// checkInvariants asserts what must hold of the engine after every op,
// whatever the backend does: Healthy implies nothing parked, a Sync that
// returned nil ran under one Healthy snapshot, and each shard's page pool
// has out exactly the pages its session and parked trails hold — counted
// on the worker, in a barrier — until Close, after which nothing is mapped.
func checkInvariants(t *testing.T, step int, op mOp, e *Engine, before State, err error) {
	t.Helper()
	st, stats := e.State(), e.Stats()
	if st.Phase == Healthy && stats.ParkedTrails != 0 {
		t.Fatalf("op %d %s: Healthy with %d trails parked", step, op.kind, stats.ParkedTrails)
	}
	if op.kind == "sync" && err == nil && (before.Phase != Healthy || st.Phase != Healthy || before.gen != st.gen) {
		t.Fatalf("op %d: Sync returned nil across %s(gen %d) → %s(gen %d)", step, before.Phase, before.gen, st.Phase, st.gen)
	}
	if (st.Cause != nil) != (st.Phase == Degraded || st.Phase == Healing) && st.Phase < Closing {
		t.Fatalf("op %d %s: phase %s with cause %v", step, op.kind, st.Phase, st.Cause)
	}
	if st.Phase == Closed { // the workers are gone
		for i, sh := range e.shards {
			if out, mapped := sh.pages.Out(), sh.pages.Mapped(); out != 0 || mapped != 0 || stats.TrailPagesBytes != 0 {
				t.Fatalf("op %d %s: closed, shard %d has %d trail pages out and %d B mapped", step, op.kind, i, out, mapped)
			}
		}
		return
	}
	var mu sync.Mutex
	var unbalanced []string
	if berr := e.barrier(e.shards, func(sh *shard) {
		held := 0
		for _, s := range sh.sessions {
			held += s.trail.Pages()
		}
		for i := range sh.parked {
			held += sh.parked[i].trail.Pages()
		}
		if out := sh.pages.Out(); out != held {
			mu.Lock()
			unbalanced = append(unbalanced, fmt.Sprintf("%d pages out, its trails hold %d", out, held))
			mu.Unlock()
		}
	}); berr != nil || len(unbalanced) > 0 {
		t.Fatalf("op %d %s: page balance: %v %v", step, op.kind, unbalanced, berr)
	}
}

// TestEngineModel drives the engine and the reference model through the
// same seeded op sequences against a scripted backend, from one
// goroutine, and holds them to agreement after every op: the error class
// of the call, the phase, the parked-trail count, what the backend holds.
// At the end every acked fix is in the backend or counted in Close's
// loss report.
func TestEngineModel(t *testing.T) {
	for seed := 0; seed < modelSeeds(t); seed++ {
		seed := int64(seed)
		t.Run(fmt.Sprintf("seed-%03d", seed), func(t *testing.T) {
			t.Parallel()
			ops := genOps(rand.New(rand.NewSource(seed)), modelOps)
			var now atomic.Int64
			b := &scriptBackend{}
			e, err := New(modelConfig(b, &now))
			if err != nil {
				t.Fatal(err)
			}
			m := newModel(modelShards, modelMaxKeys, modelIdle)
			var closeErr error
			for step, op := range ops {
				before := e.State()
				var got error
				var want errClass
				switch op.kind {
				case "ingest":
					got, want = e.Ingest(modelFixes(op.devs, m.acked)), m.ingest(op.devs)
				case "try-ingest":
					// One TryIngestTrail per device, as the server hands on a
					// frame's batches, each waited out before the next: a
					// worker's persist failure may degrade the engine between
					// two of them, and the model takes them in the same order.
					for _, run := range deviceRuns(op.devs) {
						got = e.TryIngestTrail(run[0], modelTrail(t, run, m.acked))
						if err := e.barrier(e.shards, nil); err != nil && !errors.Is(err, ErrClosed) {
							t.Fatal(err)
						}
						if want = m.ingest(run); classOf(got) != want {
							t.Fatalf("op %d %s: TryIngestTrail(%s) = %v, model wants class %d", step, op.kind, run[0], got, want)
						}
					}
				case "sync":
					got, want = e.Sync(), m.sync()
				case "flush":
					got, want = e.FlushSessions(), m.flush(false)
				case "evict":
					m.now += 6
					now.Store(m.now)
					got, want = e.EvictIdle(), m.flush(true)
				case "fail-append-transient":
					b.script(func(b *scriptBackend) { b.appendFails = 1 })
					m.appendFails = 1
				case "fail-append-terminal":
					b.script(func(b *scriptBackend) { b.appendDown = true })
					m.appendDown = true
				case "fail-sync-transient":
					b.script(func(b *scriptBackend) { b.syncFails = 1 })
					m.syncFails = 1
				case "fail-sync-terminal":
					b.script(func(b *scriptBackend) { b.syncDown = true })
					m.syncDown = true
				case "clear-fault":
					b.script(func(b *scriptBackend) { b.appendFails, b.syncFails, b.appendDown, b.syncDown = 0, 0, false, false })
					m.appendFails, m.syncFails, m.appendDown, m.syncDown = 0, 0, false, false
				case "heal":
					got, want = e.Heal(), m.heal()
				case "compact-ok", "compact-fail":
					fail := op.kind == "compact-fail"
					b.script(func(b *scriptBackend) { b.compactFail = fail })
					m.compactFail = fail
					got, want = e.CompactNow(), m.compact()
				case "close":
					// Which shard's last append a pending hiccup hits is a race
					// between the exiting workers: it is not the model's to
					// predict, so Close runs with none pending.
					b.script(func(b *scriptBackend) { b.appendFails = 0 })
					m.appendFails = 0
					got, want = e.Close(), m.close()
					if closeErr == nil {
						closeErr = got
					}
				}
				// The workers run behind the call: wait them out before looking.
				if err := e.barrier(e.shards, nil); err != nil && !errors.Is(err, ErrClosed) {
					t.Fatal(err)
				}
				if classOf(got) != want {
					t.Fatalf("op %d %s: engine returned %v, model wants class %d", step, op.kind, got, want)
				}
				if classOf(got) == clsDegraded && !errors.Is(got, syscall.EIO) && !errors.Is(got, syscall.ENOSPC) {
					t.Fatalf("op %d %s: %v does not wrap its root cause", step, op.kind, got)
				}
				checkInvariants(t, step, op, e, before, got)
				st, stats := e.State(), e.Stats()
				if st.Phase != m.phase {
					t.Fatalf("op %d %s: engine is %s, model %s", step, op.kind, st.Phase, m.phase)
				}
				if m.phase == Closed {
					continue // how Close's last drain split held from dropped is checked below
				}
				if int(stats.ParkedTrails) != m.parkedTrails() {
					t.Fatalf("op %d %s: engine has %d trails parked, model %d", step, op.kind, stats.ParkedTrails, m.parkedTrails())
				}
				if int(stats.Rejected) != m.rejected {
					t.Fatalf("op %d %s: engine rejected %d fixes, model %d", step, op.kind, stats.Rejected, m.rejected)
				}
				if stats.ActiveSessions != len(m.sess) {
					t.Fatalf("op %d %s: engine has %d sessions open, model %d", step, op.kind, stats.ActiveSessions, len(m.sess))
				}
				if owed := m.owed(); (stats.TrailBytes > 0) != owed || stats.TrailBytes < 0 {
					t.Fatalf("op %d %s: TrailBytes = %d, model owes the log something: %v", step, op.kind, stats.TrailBytes, owed)
				}
				for dev, want := range m.held {
					if got := heldRecs(dev, b.records(dev)); !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d %s: backend holds %v for %s, model %v", step, op.kind, got, dev, want)
					}
				}
			}

			// Every acked fix's key points are in the backend, or counted
			// in Close's loss report. With more than one shard flushing at
			// once, which trails a failing final flush still got out is
			// not the model's to predict — only that nothing is unaccounted.
			var total, held int
			for dev, recs := range m.records {
				for _, r := range recs {
					total += r.n
				}
				got := heldRecs(dev, b.records(dev))
				if len(got) > len(recs) || len(got) > 0 && !reflect.DeepEqual(got, recs[:len(got)]) {
					t.Fatalf("%s: backend holds %v, not a prefix of the finalized trails %v", dev, got, recs)
				}
				for _, r := range got {
					held += r.n
				}
				if covered(t, dev, recs) != m.acked[dev] {
					t.Fatalf("%s: finalized trails %v do not cover the %d acked fixes", dev, recs, m.acked[dev])
				}
			}
			if !errors.Is(closeErr, ErrDegraded) {
				if held != total {
					t.Fatalf("Close = %v, no loss report, but the backend holds %d of %d key points", closeErr, held, total)
				}
				return
			}
			trails, keys := lossReport(t, closeErr)
			if held+keys != total || uint64(trails) != e.Stats().ParkedTrails {
				t.Fatalf("Close = %v: backend holds %d key points, %d trails still parked, %d key points finalized", closeErr, held, e.Stats().ParkedTrails, total)
			}
		})
	}
}

// heldRecs reads back what a backend holds for dev as model records.
func heldRecs(dev string, recs [][]trajstore.GeoKey) []mRec {
	var out []mRec
	for _, keys := range recs {
		out = append(out, mRec{dev, int(keys[0].T), len(keys)})
	}
	return out
}

// covered chains a device's records — each starts where the last ended,
// or on its last key (a chunk's overlap) — and returns how many fixes
// they cover from fix 0.
func covered(t *testing.T, dev string, recs []mRec) int {
	t.Helper()
	next := 0
	for _, r := range recs {
		if r.from != next && !(next > 0 && r.from == next-1) {
			t.Fatalf("%s: record %+v does not continue at fix %d: gap or duplicate", dev, r, next)
		}
		next = r.from + r.n
	}
	return next
}

// TestEngineModelFaultFS drives the same sequences through a real sharded
// segment log on a fault-injecting filesystem. What the log does inside a
// fault is its own business, so only what must hold regardless is
// checked: the invariants after every op, that ingest is admitted exactly
// when Healthy, and on a clean reopen that every record is a run of acked
// fixes chaining onto the last, that everything a nil Sync covered is
// there, and — when Close returned nil — every acked fix.
func TestEngineModelFaultFS(t *testing.T) {
	for seed := 0; seed < modelSeeds(t); seed++ {
		seed := int64(seed)
		t.Run(fmt.Sprintf("seed-%03d", seed), func(t *testing.T) {
			t.Parallel()
			ops := genOps(rand.New(rand.NewSource(seed)), modelOps)
			dir := t.TempDir()
			fs := vfs.NewFaultFS(seed)
			lg, err := segmentlog.OpenSharded(dir, modelShards, segmentlog.Options{
				FS: fs, MaxSegmentBytes: 512, Compaction: &segmentlog.CompactionPolicy{MergeChunks: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			var now atomic.Int64
			e, err := New(modelConfig(lg, &now))
			if err != nil {
				t.Fatal(err)
			}
			acked, synced := map[string]int{}, map[string]int{}
			closeErr := errors.New("never closed")
			for step, op := range ops {
				before := e.State()
				var got error
				switch op.kind {
				case "ingest":
					if got = e.Ingest(modelFixes(op.devs, acked)); (got == nil) != (before.Phase == Healthy) {
						t.Fatalf("op %d %s: %v while %s", step, op.kind, got, before.Phase)
					}
					if got == nil {
						for _, d := range op.devs {
							acked[d]++
						}
					}
				case "try-ingest":
					for _, run := range deviceRuns(op.devs) {
						// Waited out one by one, as in TestEngineModel.
						phase := e.State().Phase
						got = e.TryIngestTrail(run[0], modelTrail(t, run, acked))
						if err := e.barrier(e.shards, nil); err != nil && !errors.Is(err, ErrClosed) {
							t.Fatal(err)
						}
						if (got == nil) != (phase == Healthy) {
							t.Fatalf("op %d %s: TryIngestTrail(%s) = %v while %s", step, op.kind, run[0], got, phase)
						}
						if got == nil {
							acked[run[0]] += len(run)
						}
					}
				case "sync":
					if got = e.Sync(); got == nil {
						for dev := range acked {
							synced[dev] = logCovers(t, lg, dev)
						}
					}
				case "flush":
					got = e.FlushSessions()
				case "evict":
					now.Add(6)
					got = e.EvictIdle()
				case "fail-append-transient":
					fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Fault: vfs.FaultEIO, Count: 1})
				case "fail-append-terminal":
					fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Fault: vfs.FaultENOSPC})
				case "fail-sync-transient":
					fs.AddRule(vfs.Rule{Op: vfs.OpSync, Fault: vfs.FaultEIO, Count: 1})
				case "fail-sync-terminal":
					fs.AddRule(vfs.Rule{Op: vfs.OpSync, Fault: vfs.FaultENOSPC})
				case "clear-fault":
					fs.ClearRules()
				case "heal":
					got = e.Heal()
				case "compact-fail":
					fs.AddRule(vfs.Rule{Op: vfs.OpRename, Fault: vfs.FaultEIO, Count: 1})
					got = e.CompactNow()
				case "compact-ok":
					got = e.CompactNow()
				case "close":
					if got = e.Close(); before.Phase < Closing {
						closeErr = got
					}
				}
				if err := e.barrier(e.shards, nil); err != nil && !errors.Is(err, ErrClosed) {
					t.Fatal(err)
				}
				if calls := !strings.Contains(op.kind, "fault") && !strings.HasPrefix(op.kind, "fail-") && op.kind != "close"; calls && (classOf(got) == clsClosed) != (before.Phase >= Closing) {
					t.Fatalf("op %d %s: %v while %s", step, op.kind, got, before.Phase)
				}
				checkInvariants(t, step, op, e, before, got)
			}
			// The log's Close returns a standing compaction failure (after any
			// shard's close error): alone, with no loss report, nothing was lost.
			lossless := closeErr == nil || !errors.Is(closeErr, ErrDegraded) &&
				strings.HasPrefix(closeErr.Error(), "engine: persister close: segmentlog: last compaction pass: ")
			if !lossless && !errors.Is(closeErr, ErrDegraded) && !strings.Contains(closeErr.Error(), "persister close") {
				t.Fatalf("Close = %v, want nil, a loss report, the log's close error or a standing compaction failure", closeErr)
			}

			re, err := segmentlog.OpenSharded(dir, 0, segmentlog.Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			for dev, n := range acked {
				switch got := logCovers(t, re, dev); {
				case got > n:
					t.Fatalf("%s: the log covers %d fixes, only %d were acked", dev, got, n)
				case got < synced[dev]:
					t.Fatalf("%s: the log covers %d fixes after reopen, a nil Sync had covered %d", dev, got, synced[dev])
				case lossless && got != n:
					t.Fatalf("%s: Close = %v, no loss reported, but the log covers %d of %d acked fixes", dev, closeErr, got, n)
				}
			}
		})
	}
}

// logCovers reads a device's records back from a log, checks each key
// against the fix it must be and that the records chain, and returns how
// many fixes they cover.
func logCovers(t *testing.T, lg *segmentlog.ShardedLog, dev string) int {
	t.Helper()
	recs, err := lg.Query(dev, 0, math.MaxUint32)
	if err != nil {
		t.Fatalf("query %s: %v", dev, err)
	}
	var chain []mRec
	for _, r := range recs {
		from := int(r.Keys[0].T)
		for j, k := range r.Keys {
			want := quantize(trajstore.PlaneKey(modelPoint(dev, from+j)))
			if k != want {
				t.Fatalf("%s: record key %+v is not fix %d (%+v)", dev, k, from+j, want)
			}
		}
		chain = append(chain, mRec{dev, from, len(r.Keys)})
	}
	return covered(t, dev, chain)
}

// TestPersistRetryLoop drives appendGeo's retry loop, which no other test
// reaches: up to persistRetries transient failures of one append are
// absorbed without a phase change, one more degrades the engine with that
// failure as the cause and parks the trail, and a Close during the
// backoff does not wait it out.
func TestPersistRetryLoop(t *testing.T) {
	start := func(t *testing.T, b *scriptBackend) *Engine {
		t.Helper()
		e, err := New(Config{Compressor: "model-everyfix", Tolerance: 1, Shards: 1, Persister: b})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Ingest(modelFixes([]string{"dev-0", "dev-0", "dev-0"}, map[string]int{})); err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, k := range []int{persistRetries, persistRetries + 1} {
		b := &scriptBackend{appendFails: k}
		e := start(t, b)
		if err := e.FlushSessions(); err != nil {
			t.Fatal(err)
		}
		st, stats := e.State(), e.Stats()
		if stats.PersistFailures != uint64(k) {
			t.Fatalf("%d transient failures: PersistFailures = %d", k, stats.PersistFailures)
		}
		if k <= persistRetries {
			if st.Phase != Healthy || stats.Persisted != 1 || stats.ParkedTrails != 0 || len(b.records("dev-0")) != 1 {
				t.Fatalf("%d transient failures were not absorbed: %+v, %+v, backend holds %v", k, st, stats, b.records("dev-0"))
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if st.Phase != Degraded || !errors.Is(st.Cause, syscall.EIO) || stats.ParkedTrails != 1 || stats.Persisted != 0 {
			t.Fatalf("%d transient failures: %+v, %+v; want Degraded by the EIO with the trail parked", k, st, stats)
		}
		// The hiccups are spent: Close's last drain writes the trail out.
		if err := e.Close(); err != nil || len(b.records("dev-0")) != 1 {
			t.Fatalf("Close = %v, backend holds %v", err, b.records("dev-0"))
		}
	}

	b := &scriptBackend{appendFails: 1 << 20, appends: make(chan struct{}, 1)}
	e := start(t, b)
	flushed := make(chan error, 1)
	go func() { flushed <- e.FlushSessions() }()
	select {
	case <-b.appends: // the worker is in the loop now
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never reached the persister")
	}
	began := time.Now()
	err := e.Close()
	if took := time.Since(began); took > 2*time.Second {
		t.Fatalf("Close took %v with a worker in the retry backoff", took)
	}
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close = %v, want a loss report wrapping the EIO", err)
	}
	if trails, keys := lossReport(t, err); trails != 1 || keys != 3 {
		t.Fatalf("Close = %v, want 1 trail of 3 key points dropped", err)
	}
	if err := <-flushed; err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("FlushSessions = %v", err)
	}
}
