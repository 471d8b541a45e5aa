// Package engine is the server-side ingestion layer: a sharded,
// goroutine-safe engine that manages many thousands of concurrent device
// sessions, each owning a streaming compressor from the stream registry
// and feeding its key points to Config.OnKey and, as finalized trails, to
// the Persister — history's one home; the engine itself keeps only what
// has not reached it yet.
//
// Fixes are routed to a shard worker by an FNV-1a hash of the device ID,
// so each device's stream is processed by exactly one goroutine in arrival
// order — per-device output is byte-identical to running the same
// compressor single-threaded, while distinct devices scale across shards
// without locks on the hot path. There are two ways in: Ingest takes a
// batch of fixes and waits for room on a full shard queue; TryIngestTrail,
// the server's, takes one device's fixes as a wire block and is refused
// with ErrBackpressure instead.
// Sessions are created on first fix, cut by FlushSessions (the trajectory
// goes on), evicted (with a final Flush) after an idle timeout, and their
// compressor state is recycled through a sync.Pool.
package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// Fix is one device observation: a point of the device's trajectory
// stream in the projected metric plane.
type Fix struct {
	Device string
	Point  core.Point
}

// Config parameterizes an Engine.
type Config struct {
	// Compressor names the registered compressor each session runs
	// (see stream.Names). Default "fbqs" — the O(1)-per-point variant.
	Compressor string
	// Tolerance is the deviation bound in metres handed to every
	// session's compressor. Required.
	Tolerance float64
	// Shards is the number of worker goroutines. Default GOMAXPROCS.
	Shards int
	// IdleTimeout evicts a session — flushing its compressor — after
	// this long without a fix. 0 disables idle eviction: sessions then
	// live until Close.
	IdleTimeout time.Duration
	// OnKey, when non-nil, receives every finalized key point in
	// per-device order. It is called from shard worker goroutines —
	// distinct devices may call it concurrently. Without a Persister it
	// is the engine's only output.
	OnKey func(device string, kp core.Point)
	// Persister, when non-nil, durably records every session's trail —
	// when the session ends (idle eviction, Close), and where
	// FlushSessions or MaxTrailKeys cuts it, each piece starting on the
	// key point the last ended on — in the delta-varint wire format. The
	// engine takes ownership: Sync doubles as the
	// durability barrier and Close closes the persister. A value that
	// is a full trajstore.Backend (segmentlog.ShardedLog) additionally
	// gets its trails as the blocks they already are (AppendTrail),
	// compaction and reads of its records; one with just these three
	// methods is used append-only: a read then sees only what has not
	// been appended yet. Key points reach the wire format's degrees
	// through trajstore.PlaneKey, so with a Persister Ingest refuses a
	// fix outside ±90°/±180° (trajstore.InPlane) with trajstore.ErrRange. See
	// trajstore.Persister and trajstore/segmentlog.
	Persister trajstore.Persister
	// MaxTrailKeys bounds the per-session key-point trail kept for
	// persistence (as its encoded block: ≈ 6–7 B a key, ≤ 15): a session
	// that accumulates this many key points is chunked — the trail is
	// persisted as a record and restarted from its last key point, so
	// long-lived sessions (IdleTimeout 0) use bounded memory and no
	// record approaches the log's record-size cap. Consecutive chunks
	// share one overlapping key point so the polyline stays
	// reconstructable. Default 8192.
	MaxTrailKeys int
	// Clock substitutes the idle-eviction time source; nil means
	// time.Now. Tests use it to drive eviction deterministically.
	Clock func() time.Time
}

// The transient-persist-failure retry loop (appendTrail): an append that
// fails with a trajstore.TransientErr error is retried up to
// persistRetries times, sleeping an exponentially growing, jittered
// delay that starts near persistRetryBase and is capped at
// persistRetryCap.
const (
	persistRetries   = 4
	persistRetryBase = 10 * time.Millisecond
	persistRetryCap  = 500 * time.Millisecond
)

// QueueDepth is each shard's ingest queue, in messages. A shard this far
// behind (a stalled persister) makes Ingest wait and TryIngestTrail refuse,
// which bounds what a stall holds in memory and scales the server's hints.
const QueueDepth = 256

// ErrClosed reports an operation on a closed engine.
var ErrClosed = errors.New("engine: closed")

// ErrDegraded reports that the engine is in degraded read-only mode: a
// terminal persister failure (or a transient one that outlived the
// retry loop) means new fixes cannot be made durable, so
// Ingest/TryIngestTrail reject them while queries keep answering from what
// is stored and parked. Errors carrying it (match with errors.Is) wrap
// the root cause. Heal — SIGHUP on a bqsd daemon — re-arms ingestion
// once the fault is cleared; trajectory trails that finalized while
// degraded are parked in memory and re-appended then (or by Close), so
// nothing accepted before the fault is lost.
var ErrDegraded = errors.New("engine: degraded: persistence failing, ingest suspended (queries still served; after clearing the fault call Heal, or send bqsd SIGHUP)")

// ErrNoPersister reports a read (QueryWindow, WindowBlocks, DeviceBlocks)
// on an engine built without a Persister: it keeps no history to query —
// its output is Config.OnKey.
var ErrNoPersister = errors.New("engine: no Persister configured: history is not kept (key points go to OnKey)")

// ErrBackpressure reports that TryIngestTrail found its shard queue full:
// the engine is processing slower than fixes arrive (typically a persister
// stalled on disk). Callers should back off and retry rather than buffer
// unboundedly — the server turns it into a rejected batch in the ack,
// with a retry-after hint.
var ErrBackpressure = errors.New("engine: shard queue full (backpressure)")

// Stats is a point-in-time snapshot of engine activity, merged across
// shards. It is safe to read after Close: every field comes from atomics
// and the queues' lengths.
// The persister's own counters (read cache, compaction) are on
// its Stats — segmentlog.Stats.
type Stats struct {
	ActiveSessions  int     // sessions currently open: devices seen and not yet idle-evicted — a flush ends none
	SessionsOpened  uint64  // sessions ever created: a device's first fix, or its first since an eviction — a flush opens none
	SessionsEvicted uint64  // sessions closed by idle eviction
	Fixes           uint64  // fixes accepted by Ingest
	KeyPoints       uint64  // key points emitted by all sessions
	Persisted       uint64  // trails handed to the persister: one per ended session, chunk or flush's cut with a key point no record held
	ParkedTrails    uint64  // trails parked in memory by degraded mode, awaiting Heal
	TrailBytes      int64   // trails holding a key point the log has not accepted yet, as the blocks it will store — open sessions' plus parked ones, never a trail that is only the key a record ended on: what Heal owes and, with the log's own un-fsync'd bytes (segmentlog.Stats.Unsynced), what a SIGKILL loses
	TrailPagesBytes int64   // what the shards' trail page pools have mapped outside the Go heap (trajstore.PagePool), which Go's memory stats do not count; 0 once no page is out after a flush
	Rejected        uint64  // fixes refused by TryIngestTrail backpressure, degraded mode or what the Persister cannot store (a fix off the globe, a device ID over trajstore.MaxDeviceBytes)
	PersistFailures uint64  // failed persister append/sync attempts (retried ones included)
	Queued          int     // messages waiting in the shard queues, summed
	QueueFullness   float64 // the fullest shard queue's share of QueueDepth, in [0, 1]: at 1 Ingest waits and TryIngestTrail is refused
}

// CompressionRate returns KeyPoints/Fixes (lower is better), 0 when no
// fixes were ingested.
func (s Stats) CompressionRate() float64 {
	if s.Fixes == 0 {
		return 0
	}
	return float64(s.KeyPoints) / float64(s.Fixes)
}

// Engine is the sharded ingestion engine. All exported methods are safe
// for concurrent use.
type Engine struct {
	cfg    Config
	clock  func() time.Time
	shards []*shard
	// backend is cfg.Persister resolved once by New: itself when it is
	// a full trajstore.Backend, an append-only adapter otherwise (also
	// for no persister at all), so it is never nil.
	backend trajstore.Backend
	pool    sync.Pool // recycled stream.Compressor values (all Resetters)

	// Ingest staging: per-shard batches and the scatter table that
	// distributes a caller's fixes over them are pooled, so the steady-state
	// ingest path performs no allocation — shard workers return each batch
	// to batchPool once it has been drained.
	batchPool   sync.Pool // *batch
	scatterPool sync.Pool // *scatter, byShard sized to len(shards)

	// The lifecycle (lifecycle.go). state is installed Healthy by New before
	// any goroutine starts, then written only by transition and read
	// through admit and State; inflight counts the callers admit
	// let in — queue senders, callers inside a persister operation — for
	// Close to wait out, and mu orders that registration against Close
	// entering Closing, nothing else.
	state    atomic.Pointer[State]
	mu       sync.RWMutex
	inflight sync.WaitGroup
	wg       sync.WaitGroup // the shard workers

	// closing is closed when Close begins: senders parked on a full
	// shard queue select on it so a stalled shard (wedged persister,
	// full disk) cannot wedge shutdown.
	closing chan struct{}

	persisting bool // cfg.Persister != nil, cached for the hot path

	// Failure/reject tallies for Stats. Engine-global atomics, not
	// per-shard stripes: every increment is on a slow path (a refused
	// batch, a failed append attempt).
	rejected     atomic.Uint64
	persistFails atomic.Uint64
}

// session is the per-device state, owned by exactly one shard worker.
type session struct {
	device   string            // the name it was opened under, which every emit and append passes on: one string per device, not one per batch
	comp     stream.Compressor // nil from a flush's cut until the next fix re-arms it (arm)
	lastSeen time.Time
	last     core.Point      // the last key point emitted, if keyed: where a cut session's compressor starts again
	trail    trajstore.Trail // key points not yet in the log, as the block the log will store, in the shard's pages; kept only when persisting, capped at MaxTrailKeys
	keyed    bool
	chunked  bool // the trail starts with the previous chunk's last key; beside keyed, so the name costs a session no size class
}

// shard is one worker: a queue and a session table.
// The activity counters live here, not on the Engine: every counter is
// written by exactly one worker goroutine, so striping them per shard
// keeps the multi-core hot path free of shared-cache-line contention
// (profiling at GOMAXPROCS>1 showed the global keys/fixes atomics
// bouncing between cores on every key point). Stats sums them.
type shard struct {
	eng      *Engine
	in       chan shardMsg
	sessions map[string]*session

	// parked holds finalized trajectories whose persister append failed
	// terminally (degraded mode), in append order. They are retained so
	// acked data survives the outage and re-appended by drainParked when
	// Heal succeeds; order matters because a device's chunked records
	// must land in trail order. Owned by this worker goroutine; parkedN
	// mirrors len(parked) for the Stats reader and trailBytes sums the
	// blocks of every session's trail and every parked one.
	parked     []parkedTrail
	parkedN    atomic.Uint64
	trailBytes atomic.Int64
	pages      trajstore.PagePool // the trails' bytes, outside the Go heap: this worker's alone, then Close's

	active    atomic.Int64
	opened    atomic.Uint64
	evicted   atomic.Uint64
	fixes     atomic.Uint64
	keys      atomic.Uint64
	persisted atomic.Uint64
}

// shardMsg is a unit of work for a shard worker: do, when non-nil, runs
// on the worker, which owns the shard's sessions and parked trails;
// otherwise batch holds fixes to ingest in a pooled buffer the worker
// returns to the engine's batch pool after draining.
type shardMsg struct {
	batch *batch
	do    func(*shard)
}

// parkedTrail is one finalized trajectory held in memory while the
// engine is degraded, awaiting re-append after Heal. It owns its pages.
type parkedTrail struct {
	device string
	trail  trajstore.Trail
}

// batch is a pooled unit of queued ingest: fixes, or one device's block.
type batch struct {
	fixes  []Fix
	device string
	block  []byte
}

// scatter is a pooled table distributing one caller batch over the shards.
type scatter struct{ byShard []*batch }

// getBatch returns a pooled (or fresh) staging buffer, emptied.
func (e *Engine) getBatch() *batch {
	b := e.batchPool.Get().(*batch)
	b.fixes = b.fixes[:0]
	return b
}

// putBatch pools b unless a block grew it past 64 KiB, as server.shed does.
func (e *Engine) putBatch(b *batch) {
	if cap(b.block) <= 64<<10 {
		e.batchPool.Put(b)
	}
}

// New returns a started engine; callers must Close it to flush sessions
// and release the workers. The configuration is validated eagerly: the
// named compressor is constructed once up front, so a bad name or
// tolerance fails here rather than on the first fix.
func New(cfg Config) (*Engine, error) {
	if cfg.Compressor == "" {
		cfg.Compressor = "fbqs"
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.IdleTimeout < 0 {
		return nil, errors.New("engine: IdleTimeout must be ≥ 0")
	}
	probe, err := stream.New(cfg.Compressor, cfg.Tolerance)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if cfg.MaxTrailKeys < 0 {
		return nil, errors.New("engine: MaxTrailKeys must be ≥ 0")
	}
	if cfg.MaxTrailKeys == 0 {
		cfg.MaxTrailKeys = 8192
	}
	backend, ok := cfg.Persister.(trajstore.Backend)
	if !ok {
		backend = trajstore.AppendOnly(cfg.Persister)
	}
	e := &Engine{
		cfg: cfg, clock: cfg.Clock, backend: backend,
		persisting: cfg.Persister != nil,
		closing:    make(chan struct{}),
	}
	e.state.Store(&State{})
	if e.clock == nil {
		e.clock = time.Now
	}
	e.batchPool.New = func() any { return &batch{} }
	e.scatterPool.New = func() any { return &scatter{byShard: make([]*batch, len(e.shards))} }
	if _, ok := probe.(stream.Resetter); ok {
		e.pool.Put(probe) // the probe seeds the pool instead of being wasted
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		sh := &shard{
			eng:      e,
			in:       make(chan shardMsg, QueueDepth),
			sessions: make(map[string]*session),
		}
		e.shards[i] = sh
		e.wg.Add(1)
		go sh.run()
	}
	return e, nil
}

// CompactNow runs the persister's drain pass (trajstore.Backend.CompactNow:
// a segment log seals its active segments, then compacts everything with its
// policy); a no-op with no persister or an append-only one. Close waits out
// a pass in flight.
func (e *Engine) CompactNow() error {
	if _, err := e.admit(opCall); err != nil {
		return err
	}
	defer e.inflight.Done()
	if err := e.backend.CompactNow(); err != nil {
		return fmt.Errorf("engine: compact: %w", err)
	}
	return nil
}

// send enqueues msg on the shard, parking on a full queue WITHOUT any
// engine lock; it aborts with ErrClosed when Close begins instead of wedging
// shutdown behind a stalled shard, and recycles an unsent batch. The
// non-blocking fast path keeps the common case a single channel operation.
func (e *Engine) send(sh *shard, msg shardMsg) error {
	select {
	case sh.in <- msg:
		return nil
	default:
	}
	select {
	case sh.in <- msg:
		return nil
	case <-e.closing:
	}
	if msg.batch != nil {
		e.putBatch(msg.batch)
	}
	return ErrClosed
}

// scatterFixes distributes a caller batch over per-shard staging buffers
// (one shard takes it whole, unhashed). The returned scatter table must
// go back to scatterPool with all slots nil.
func (e *Engine) scatterFixes(fixes []Fix) *scatter {
	sc := e.scatterPool.Get().(*scatter)
	if len(e.shards) == 1 && len(fixes) > 0 {
		sc.byShard[0] = e.getBatch()
		sc.byShard[0].fixes = append(sc.byShard[0].fixes, fixes...)
		return sc
	}
	for _, f := range fixes {
		// The sharded segment log routes by the same hash, so with equal
		// shard counts each worker appends to a log shard all its own.
		i := trajstore.ShardIndex(f.Device, len(e.shards))
		b := sc.byShard[i]
		if b == nil {
			b = e.getBatch()
			sc.byShard[i] = b
		}
		b.fixes = append(b.fixes, f)
	}
	return sc
}

// Ingest routes a batch of fixes to their shards. Fixes for the same
// device are processed in slice order; the engine does not retain the
// slice. It blocks when a target shard's queue is full — without
// holding the engine lock, so a blocked Ingest never delays Close — and
// returns ErrClosed after (or during) Close; shares already handed to a
// shard are still processed by the shutdown flush. A degraded engine
// rejects the batch whole with an error matching ErrDegraded and wrapping
// the persist failure, so Ingest(nil) is a cheap health probe; a fix the
// Persister's wire format cannot carry refuses it with trajstore.ErrRange
// before anything is enqueued (sessions encode key points too late to
// tell the caller).
func (e *Engine) Ingest(fixes []Fix) error {
	if err := e.admitIngest(len(fixes)); err != nil {
		return err
	}
	defer e.inflight.Done()
	for i := 0; e.persisting && i < len(fixes); i++ {
		if f := &fixes[i]; len(f.Device) > trajstore.MaxDeviceBytes {
			return e.refuse(len(fixes), fmt.Errorf("engine: fix %d of %d: device ID of %d bytes: %w", i, len(fixes), len(f.Device), trajstore.ErrDeviceID))
		} else if p := f.Point; !trajstore.InPlane(p) {
			return e.refuse(len(fixes), fmt.Errorf("engine: fix %d of %d (device %q) at x=%g y=%g: %w", i, len(fixes), f.Device, p.X, p.Y, trajstore.ErrRange))
		}
	}
	sc := e.scatterFixes(fixes)
	var err error
	for i, b := range sc.byShard {
		if b == nil {
			continue
		}
		sc.byShard[i] = nil
		if err != nil {
			e.putBatch(b)
		} else {
			err = e.send(e.shards[i], shardMsg{batch: b})
		}
	}
	e.scatterPool.Put(sc)
	return err
}

// TryIngestTrail routes one device's fixes, held as a block in the wire's
// degrees as the server hands on a frame's validated batches, and never
// blocks: a full shard queue refuses it whole with ErrBackpressure, its
// fixes counted in Stats.Rejected, and a degraded engine or a device ID
// the Persister cannot store as Ingest does. The block is copied into one
// queue message of about its wire size; the worker pushes each key through
// trajstore.PlanePoint, and keys on the globe cannot raise ErrRange.
func (e *Engine) TryIngestTrail(device string, tr *trajstore.Trail) error {
	if err := e.admitIngest(tr.Len()); err != nil {
		return err
	}
	defer e.inflight.Done()
	if tr.Len() == 0 {
		return nil
	}
	if e.persisting && len(device) > trajstore.MaxDeviceBytes {
		return e.refuse(tr.Len(), fmt.Errorf("engine: device ID of %d bytes: %w", len(device), trajstore.ErrDeviceID))
	}
	b := e.getBatch()
	b.device, b.block = device, tr.AppendBlock(b.block[:0])
	select {
	case e.shards[trajstore.ShardIndex(device, len(e.shards))].in <- shardMsg{batch: b}:
		return nil
	default:
	}
	e.putBatch(b)
	return e.refuse(tr.Len(), ErrBackpressure)
}

// admitIngest is Ingest's and TryIngestTrail's admission: an admitted
// caller owes e.inflight.Done; fixes a degraded engine refuses are counted.
func (e *Engine) admitIngest(fixes int) error {
	_, err := e.admit(opIngest)
	if errors.Is(err, ErrDegraded) {
		return e.refuse(fixes, err)
	}
	return err
}

// refuse counts a refused call's fixes in Stats.Rejected and returns err.
func (e *Engine) refuse(fixes int, err error) error {
	e.rejected.Add(uint64(fixes))
	return err
}

// barrier has the worker of each of shards run do (nil: nothing) in queue
// order and waits until all of them have. Like Ingest, the engine lock is
// not held across the queue sends, and both the sends and the waits abort
// with ErrClosed when Close begins — barriers already enqueued are still
// honoured by the workers' shutdown drain, so abandoning the wait leaks
// nothing.
func (e *Engine) barrier(shards []*shard, do func(*shard)) error {
	if _, err := e.admit(opCall); err != nil {
		return err
	}
	defer e.inflight.Done()
	done := make(chan struct{}, len(shards)) // room for every worker: none waits on a caller gone
	run := func(sh *shard) {
		if do != nil {
			do(sh)
		}
		done <- struct{}{}
	}
	for _, sh := range shards {
		if err := e.send(sh, shardMsg{do: run}); err != nil {
			return err
		}
	}
	for range shards {
		select {
		case <-done:
		case <-e.closing:
			return ErrClosed
		}
	}
	return nil
}

// Sync blocks until every fix ingested before the call has been fully
// processed (compressed and stored). With a Persister configured it is
// also the durability barrier: every trajectory finalized before the
// call is on disk when Sync returns. It returns nil only if the engine
// was Healthy — the same Healthy period — before the barrier and after
// the fsync; Healthy means no trail is parked, so nothing the barrier
// passed over was still in memory. A degraded engine reports the cause:
// the returned error matches ErrDegraded and wraps the persist failure
// that triggered it. Useful before reading Stats in tests and benchmarks.
func (e *Engine) Sync() error {
	before := e.State()
	if err := e.barrier(e.shards, nil); err != nil {
		return err
	}
	syncErr := e.backend.Sync()
	if syncErr != nil {
		e.persistFails.Add(1)
		syncErr = fmt.Errorf("engine: persister sync: %w", syncErr)
		// A terminal failure at the durability barrier means acked
		// fixes cannot be made durable: degrade so clients stop
		// streaming into a backend that can only lose their data. A
		// transient hiccup just reports — the log's own salvage already
		// absorbed anything it could, and the next barrier retries.
		if !trajstore.TransientErr(syncErr) {
			e.transition(evFail, syncErr, 0)
		}
	}
	after, err := e.admit(opSync)
	if err == nil && after.gen != before.gen {
		err = fmt.Errorf("%w: healed while this barrier was in flight, so it may have passed trails that were still parked; sync again", ErrDegraded)
	}
	return errors.Join(err, syncErr)
}

// Heal attempts to bring a degraded engine back to full service once
// the underlying fault is believed cleared (space freed, device back).
// It probes the persister with a durability barrier — a poisoned
// segment log salvages itself into a fresh file here — and, only if the
// probe succeeds, has every shard worker re-append the trails parked
// while degraded, preserving per-device order; the engine is Healthy,
// and ingest admitted again, once all of them have. A probe failure
// leaves the engine degraded and reports why; a failure while
// re-appending parked trails degrades it again with the new cause. Heal
// is safe to call on a healthy engine (a cheap no-op) and concurrently
// with ingest and queries; a second Heal while one is draining is
// refused like ingest is.
func (e *Engine) Heal() error {
	if _, err := e.admit(opCall); err != nil {
		return err
	}
	defer e.inflight.Done() // holds the backend's Close off the probe
	if err := e.backend.Sync(); err != nil {
		return fmt.Errorf("engine: heal: persister still failing: %w", err)
	}
	if healing, ok := e.transition(evHeal, nil, 0); ok {
		if err := e.barrier(e.shards, (*shard).drainParked); err != nil {
			return err
		}
		e.transition(evHealed, nil, healing.gen)
	}
	_, err := e.admit(opSync)
	return err
}

// EvictIdle forces an idle-eviction sweep on every shard now, regardless
// of the automatic eviction ticker, and waits for it to complete.
// Sessions idle for at least IdleTimeout are flushed and closed; with
// IdleTimeout 0 the sweep is a no-op.
func (e *Engine) EvictIdle() error { return e.barrier(e.shards, (*shard).evictIdle) }

// FlushSessions cuts every open session now, without closing the engine:
// each compressor emits its pending end as a key point and, with a
// Persister configured, the session's trail goes to it — so combined with
// Sync everything ingested before the call is durable; the server's drain
// and its flush-and-sync frame are built on it. No trajectory ends: the
// device's next fix continues from that key point and the record it lands
// in starts with it, so a flush costs a device at most one key point and
// compaction (MergeChunks) re-joins the records. A flushed session stays
// open, holding that key, until idle eviction or Close ends it.
func (e *Engine) FlushSessions() error {
	return e.barrier(e.shards, func(sh *shard) { sh.closeAll(false) })
}

// Stats returns a merged snapshot of engine activity. Counters are read
// atomically but not mutually consistent; call Sync first for a quiescent
// reading. Unlike the mutating entry points, Stats never refuses: every
// source it reads is an atomic or a queue's length, safe after Close, so
// a monitoring scrape racing shutdown gets a coherent final snapshot
// instead of an error.
func (e *Engine) Stats() Stats {
	var s Stats
	worst := 0
	for _, sh := range e.shards {
		n := len(sh.in)
		s.Queued += n
		worst = max(worst, n)
		s.ActiveSessions += int(sh.active.Load())
		s.SessionsOpened += sh.opened.Load()
		s.SessionsEvicted += sh.evicted.Load()
		s.Fixes += sh.fixes.Load()
		s.KeyPoints += sh.keys.Load()
		s.Persisted += sh.persisted.Load()
		s.ParkedTrails += sh.parkedN.Load()
		s.TrailBytes += sh.trailBytes.Load()
		s.TrailPagesBytes += sh.pages.Mapped()
	}
	s.Rejected = e.rejected.Load()
	s.PersistFailures = e.persistFails.Load()
	s.QueueFullness = float64(worst) / QueueDepth
	return s
}

// Close flushes every open session (emitting final key points and
// persisting the finalized trajectories when a Persister is configured),
// stops the workers, waits for them, and closes the persister. A worker
// that still holds parked trails — the engine was degraded, or the final
// flush failed — makes one last, non-retrying attempt to re-append them
// as it exits (see run); if some remain, an error matching ErrDegraded
// and wrapping the root cause says how much was dropped, and nothing was
// lost if Close returns nil. Further Ingest/Sync calls return ErrClosed;
// Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	_, ok := e.transition(evClose, nil, 0)
	if ok {
		close(e.closing) // aborts senders parked on full shard queues
	}
	e.mu.Unlock()
	if !ok {
		return nil
	}
	// Every caller admitted before Closing is in inflight: a sender either
	// completes its sends or aborts on closing, so after Wait the shard
	// channels have no writers and closing them is safe, and nobody is
	// inside the backend (a CompactNow pass, a query) when it is closed.
	e.inflight.Wait()
	for _, sh := range e.shards {
		close(sh.in)
	}
	e.wg.Wait()
	// Join the persister's close error with the loss report: a failed
	// close must not mask the (often root-cause) append error latched
	// earlier, and vice versa.
	closeErr := e.backend.Close()
	if closeErr != nil {
		closeErr = fmt.Errorf("engine: persister close: %w", closeErr)
	}
	st, _ := e.transition(evClosed, nil, 0)
	var trails, keys int
	for _, sh := range e.shards { // the workers are gone: their pools are Close's
		trails += len(sh.parked)
		for i := range sh.parked {
			keys += sh.parked[i].trail.Len()
			sh.parked[i].trail.Release() // dropped
		}
		sh.pages.Unmap()
	}
	var lost error
	if trails > 0 {
		lost = fmt.Errorf("%w; still failing at close: dropped %d parked trails (%d key points)", st.degradedErr(), trails, keys)
	}
	return errors.Join(closeErr, lost)
}

// run is the shard worker loop: single-goroutine ownership of the
// session table makes every per-device operation lock-free.
func (sh *shard) run() {
	defer sh.eng.wg.Done()
	var tick <-chan time.Time
	if d := sh.eng.cfg.IdleTimeout; d > 0 {
		t := time.NewTicker(max(d/2, 10*time.Millisecond))
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case msg, ok := <-sh.in:
			if !ok {
				sh.closeAll(true)
				// The closing edge's rule: one last attempt at what is
				// still parked, stopping at the first failure and without
				// retrying (closing is closed, so appendTrail does not back
				// off). Close reports what stays behind.
				sh.drainParked()
				return
			}
			if msg.do != nil {
				msg.do(sh)
			} else {
				sh.ingestBatch(msg.batch)
				sh.eng.putBatch(msg.batch)
			}
		case <-tick:
			sh.evictIdle()
		}
	}
}

// ingestBatch feeds a shard batch into its sessions: a block is one device's
// run, decoded key by key into the plane. The clock is read once per batch —
// idle eviction only needs batch-level granularity — and the session lookup
// is hoisted across runs of consecutive fixes for the same device.
func (sh *shard) ingestBatch(b *batch) {
	now, keys := sh.eng.clock(), uint64(0)
	if len(b.fixes) == 0 {
		s, n := sh.session(b.device, now), uint64(0)
		c, _ := trajstore.BlockCursor(b.block) // a trail's: it parses
		for k, ok := c.Next(); ok; k, ok = c.Next() {
			if kp, ok := s.comp.Push(trajstore.PlanePoint(k)); ok {
				sh.emit(s, kp)
				keys++
			}
			n++
		}
		sh.fixes.Add(n)
		sh.keys.Add(keys)
		return
	}
	sh.fixes.Add(uint64(len(b.fixes)))
	var s *session
	for i := range b.fixes {
		f := &b.fixes[i]
		if s == nil || f.Device != s.device {
			s = sh.session(f.Device, now)
		}
		if kp, ok := s.comp.Push(f.Point); ok {
			sh.emit(s, kp)
			keys++
		}
	}
	sh.keys.Add(keys)
}

// session returns device's session, armed, seen now; a new one keeps device.
func (sh *shard) session(device string, now time.Time) *session {
	s := sh.sessions[device]
	if s == nil {
		s = &session{device: device, trail: sh.pages.NewTrail()}
		sh.sessions[device] = s
		sh.active.Add(1)
		sh.opened.Add(1)
	}
	if s.comp == nil {
		sh.arm(s)
	}
	s.lastSeen = now
	return s
}

// arm gives a session — new, or cut by a flush — its compressor, pooled
// state when there is some. A cut session continues from its last key
// point: pushed back as the compressor's first point, which a compressor
// keeps at once — the key the trail restarts from, stored and reported
// already, so what that Push returns is dropped.
func (sh *shard) arm(s *session) {
	if v := sh.eng.pool.Get(); v != nil {
		s.comp = v.(stream.Compressor)
	} else {
		comp, err := stream.New(sh.eng.cfg.Compressor, sh.eng.cfg.Tolerance)
		if err != nil {
			// Unreachable: New validated the (name, tolerance) pair.
			panic(fmt.Sprintf("engine: compressor factory failed after validation: %v", err))
		}
		s.comp = comp
	}
	if s.keyed {
		s.comp.Push(s.last)
		if sh.eng.persisting {
			s.trail.Restart()
			s.chunked = true
		}
	}
}

// emit records a finalized key point: with a persister to hand the trail
// to, it is quantized to the wire lattice and encoded onto the session's
// block here, once; and it goes to OnKey. Its caller counts it in keys,
// ingestBatch once a batch: an atomic add a key drew a tenth of the samples
// of a cut-heavy ingest's profile.
func (sh *shard) emit(s *session, kp core.Point) {
	s.last, s.keyed = kp, true
	if sh.eng.persisting {
		was := s.owed()
		err := s.trail.Add(trajstore.PlaneKey(kp))
		if err != nil {
			// Only encodable fixes got in: the compressor made this up.
			sh.eng.persistFails.Add(1)
			sh.eng.transition(evFail, fmt.Errorf("engine: device %q: key point x=%g y=%g: %w", s.device, kp.X, kp.Y, err), 0)
		}
		sh.trailBytes.Add(s.owed() - was)
		if s.trail.Len() >= sh.eng.cfg.MaxTrailKeys {
			sh.persistTrail(s)
			s.trail.Restart()
			s.chunked = true
		}
	}
	if sh.eng.cfg.OnKey != nil {
		sh.eng.cfg.OnKey(s.device, kp)
	}
}

// unrecorded reports whether the trail holds a key no log record does — any
// but the one the previous chunk ended on: what a flush appends, and what a
// read serves as a tail.
func (s *session) unrecorded() bool { return s.trail.Len() > 1 || s.trail.Len() == 1 && !s.chunked }

// owed is the session's share of Stats.TrailBytes: its trail's block while
// that is unrecorded, nothing while it is only the key a record already ends on.
func (s *session) owed() int64 {
	if !s.unrecorded() {
		return 0
	}
	return int64(s.trail.Size())
}

// persistTrail hands the session's trail to the persister and leaves it
// spent: the caller ends the session or — a chunk at once, a flush's cut
// at the next fix — restarts the trail from its last key point, so
// consecutive records overlap by one key and the polyline stays
// reconstructable (Trail.Join, the compactor's MergeChunks). A trail that
// is only that overlap is skipped (see unrecorded). A trail the
// persister does not take is parked on the shard — with the session's
// pages, so it aliases nothing — and re-appended, in order, when Heal
// succeeds: data the engine already accepted survives the outage in memory.
func (sh *shard) persistTrail(s *session) {
	gone := s.owed()
	if s.unrecorded() {
		if sh.tryAppend(s.device, &s.trail) {
			sh.persisted.Add(1)
		} else {
			sh.parked = append(sh.parked, parkedTrail{device: s.device, trail: s.trail.Take()})
			sh.parkedN.Add(1)
			gone = 0 // the bytes only moved
		}
	}
	sh.trailBytes.Add(-gone)
}

// tryAppend appends tr, retrying transient failures (appendTrail); a
// terminal one flips the engine into degraded mode. While anything is
// parked (or the lifecycle refuses the append) a new trail must join the
// park queue rather than jump it: a device's chunked records reach the
// log in trail order. False means park it; the failure behind that is
// already recorded, so nothing is ever parked while Healthy.
func (sh *shard) tryAppend(device string, tr *trajstore.Trail) bool {
	if _, err := sh.eng.admit(opPersist); err != nil || len(sh.parked) > 0 {
		return false
	}
	err := sh.appendTrail(device, tr)
	if err != nil {
		sh.eng.transition(evFail, err, 0)
	}
	return err == nil
}

// drainParked re-appends the trails parked while degraded, oldest
// first. A failure degrades the engine again (keeping the remainder
// parked) so a premature Heal downgrades gracefully.
func (sh *shard) drainParked() {
	for len(sh.parked) > 0 {
		p := &sh.parked[0]
		if err := sh.appendTrail(p.device, &p.trail); err != nil {
			sh.eng.transition(evFail, err, 0)
			return
		}
		sh.trailBytes.Add(-int64(p.trail.Size()))
		p.trail.Release()
		*p = parkedTrail{} // and its name
		sh.parked = sh.parked[1:]
		sh.parkedN.Add(^uint64(0))
		sh.persisted.Add(1)
	}
	sh.parked = nil
}

// appendTrail is one persister append — the engine's one way into
// storage, for flush, chunk, Heal's drain and Close's alike — wrapped in
// the transient-failure retry loop: trajstore.TransientErr failures are
// retried up to persistRetries times behind capped exponential backoff
// with jitter, and the sleep aborts when Close begins. Terminal failures
// return immediately. Blocking briefly here is fine — the worker owns
// its queue, so backpressure propagates naturally to senders.
func (sh *shard) appendTrail(device string, tr *trajstore.Trail) error {
	e := sh.eng
	for attempt := 0; ; attempt++ {
		err := e.backend.AppendTrail(device, tr)
		if err != nil {
			e.persistFails.Add(1)
		}
		if err == nil || attempt >= persistRetries || !trajstore.TransientErr(err) {
			return err
		}
		select {
		case <-time.After(backoff(attempt)):
		case <-e.closing:
			return err
		}
	}
}

// backoff computes the sleep before retry attempt+1: an exponentially
// grown base capped at persistRetryCap, with the upper half jittered so
// retries across shard workers decorrelate.
func backoff(attempt int) time.Duration {
	half := min(persistRetryBase<<attempt, persistRetryCap) / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// closeSession flushes the session's compressor, emits the tail key
// points, persists the trail (empty without a persister) and recycles
// resettable compressor state into the pool. Final, the session is over.
// Otherwise it is cut: until the next fix re-arms it (arm), restarting the
// trail from the key point the flush ended on as a chunk does, the session
// holds that key and nothing else — no compressor, no trail page. A cut
// session has nothing to hand over: cut again it is left alone, ended it
// is a plain delete.
func (sh *shard) closeSession(s *session, final bool) {
	if s.comp != nil {
		kps := stream.FlushAll(s.comp)
		for _, kp := range kps {
			sh.emit(s, kp)
		}
		sh.keys.Add(uint64(len(kps)))
		if r, ok := s.comp.(stream.Resetter); ok {
			r.Reset()
			sh.eng.pool.Put(s.comp)
		}
		s.comp = nil
	} else if !final {
		return
	}
	sh.persistTrail(s)
	s.trail.Release()      // the pages go, the key to restart from stays
	if final || !s.keyed { // or nothing to continue from
		delete(sh.sessions, s.device)
		sh.active.Add(-1)
	}
}

// evictIdle ends every session idle for at least IdleTimeout.
func (sh *shard) evictIdle() {
	d := sh.eng.cfg.IdleTimeout
	if d <= 0 {
		return
	}
	now := sh.eng.clock()
	for _, s := range sh.sessions {
		if now.Sub(s.lastSeen) >= d {
			sh.closeSession(s, true)
			sh.evicted.Add(1)
		}
	}
	sh.pages.Unmap()
}

// closeAll flushes every session: final ends them (engine shutdown), else
// cuts them (FlushSessions). Then only parked trails hold pages.
func (sh *shard) closeAll(final bool) {
	for _, s := range sh.sessions {
		sh.closeSession(s, final)
	}
	sh.pages.Unmap()
}
