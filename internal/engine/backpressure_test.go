package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// wedgedPersister simulates a persister stuck in the kernel (full disk,
// hung fsync): Append parks until release is closed, then returns err.
// entered is signalled once per Append so tests can wait until a shard
// worker is provably wedged inside the persist call.
type wedgedPersister struct {
	entered chan struct{}
	release chan struct{}

	mu  sync.Mutex
	err error
}

func newWedgedPersister() *wedgedPersister {
	return &wedgedPersister{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (w *wedgedPersister) Append(string, []trajstore.GeoKey) error {
	select {
	case w.entered <- struct{}{}:
	default:
	}
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *wedgedPersister) Sync() error  { return nil }
func (w *wedgedPersister) Close() error { return nil }

// releaseWith unwedges every current and future Append, making them
// return err.
func (w *wedgedPersister) releaseWith(err error) {
	w.mu.Lock()
	w.err = err
	w.mu.Unlock()
	close(w.release)
}

// wedgeTrack is a fix stream whose every point is a key point at the
// given tolerance (large jumps), so a tiny MaxTrailKeys forces the
// shard worker into Append quickly.
func wedgeTrack(n int) []core.Point {
	pts := make([]core.Point, n)
	for i := range pts {
		x := float64(i * 500)
		y := float64((i % 2) * 400)
		pts[i] = core.Point{X: x, Y: y, T: float64(i)}
	}
	return pts
}

// wedgeBatch is wedgeTrack(n) as one device's fixes.
func wedgeBatch(n int) []Fix {
	track := wedgeTrack(n)
	batch := make([]Fix, len(track))
	for i, p := range track {
		batch[i] = Fix{Device: "wedge", Point: p}
	}
	return batch
}

// wedgeTrail is wedgeTrack(n) as the block the server hands TryIngestTrail.
func wedgeTrail(t *testing.T, n int) *trajstore.Trail {
	t.Helper()
	var tr trajstore.Trail
	for _, p := range wedgeTrack(n) {
		if err := tr.Add(trajstore.PlaneKey(p)); err != nil {
			t.Fatal(err)
		}
	}
	return &tr
}

// wedgeEngine builds a 1-shard engine on a wedged persister and drives it
// until the worker is parked inside Append and all QueueDepth slots of the
// shard queue are taken behind it: the exact state in which the old
// Ingest deadlocked Close. It returns the engine.
func wedgeEngine(t *testing.T, wp *wedgedPersister) *Engine {
	t.Helper()
	e, err := New(Config{
		Compressor:   "fbqs",
		Tolerance:    1,
		Shards:       1,
		Persister:    wp,
		MaxTrailKeys: 2, // persist after every 2 key points
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := wedgeBatch(8)
	if err := e.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wp.entered: // worker is now parked inside Append
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached the persister")
	}
	// Fill the queue behind the wedged worker.
	for range QueueDepth {
		if err := e.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestEngineCloseUnderWedgedPersister is the shutdown-liveness
// regression test: with a shard worker stuck inside the persister and
// the shard queue full, a blocked Ingest used to hold e.mu.RLock
// forever, deadlocking Close on e.mu.Lock. Now the blocked Ingest
// aborts with ErrClosed as soon as Close begins — while the persister
// is still wedged — and Close completes once the worker drains,
// returning the latched persist error.
func TestEngineCloseUnderWedgedPersister(t *testing.T) {
	wp := newWedgedPersister()
	e := wedgeEngine(t, wp)

	// Park an Ingest on the full queue, lock-free.
	batch := wedgeBatch(8)
	ingestDone := make(chan error, 1)
	go func() { ingestDone <- e.Ingest(batch) }()
	select {
	case err := <-ingestDone:
		t.Fatalf("Ingest returned %v with a full queue; expected it to block", err)
	case <-time.After(100 * time.Millisecond):
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- e.Close() }()

	// The parked Ingest must abort promptly even though the persister is
	// still wedged — this is where the old code deadlocked.
	select {
	case err := <-ingestDone:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked Ingest = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Ingest still parked after Close began: shutdown-liveness regression")
	}
	// New senders are refused immediately too.
	if err := e.TryIngestTrail("wedge", wedgeTrail(t, 8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryIngestTrail during Close = %v, want ErrClosed", err)
	}

	// Close still owes the worker a drain (durability): it must be
	// waiting, not returning early with unflushed sessions.
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned %v while the persister was still wedged", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Unwedge with a failure: the worker latches it, drains, and Close
	// completes reporting it.
	errWedge := errors.New("disk went away")
	wp.releaseWith(errWedge)
	select {
	case err := <-closeDone:
		if !errors.Is(err, errWedge) {
			t.Fatalf("Close = %v, want the latched persist error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never completed after the persister unwedged")
	}
}

// TestEngineSyncAbortsOnClose pins the same liveness property for the
// barrier path: a Sync waiting behind a wedged shard returns ErrClosed
// when Close begins instead of delaying shutdown.
func TestEngineSyncAbortsOnClose(t *testing.T) {
	wp := newWedgedPersister()
	e := wedgeEngine(t, wp)

	syncDone := make(chan error, 1)
	go func() { syncDone <- e.Sync() }()
	select {
	case err := <-syncDone:
		t.Fatalf("Sync returned %v behind a wedged shard; expected it to block", err)
	case <-time.After(100 * time.Millisecond):
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- e.Close() }()
	select {
	case err := <-syncDone:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Sync = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sync still parked after Close began")
	}

	wp.releaseWith(nil)
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never completed")
	}
}

// TestTryIngestBackpressure checks the server's door end to end: a full
// shard queue refuses a trail at once with ErrBackpressure instead of
// blocking, counting its fixes in Stats.Rejected, Stats reports the
// occupancy, and the same trail is accepted once the stall clears.
func TestTryIngestBackpressure(t *testing.T) {
	wp := newWedgedPersister()
	e := wedgeEngine(t, wp) // worker wedged, queue full
	tr := wedgeTrail(t, 8)

	if st := e.Stats(); st.Queued != 256 || st.QueueFullness != 1 {
		t.Fatalf("Stats = %+v, want 256 messages queued, fullness 1", st)
	}

	start := time.Now()
	err := e.TryIngestTrail("wedge", tr)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("TryIngestTrail took %v; must not block", elapsed)
	}
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("TryIngestTrail on a full queue = %v, want ErrBackpressure", err)
	}
	if got := e.Stats().Rejected; got != uint64(tr.Len()) {
		t.Fatalf("Stats.Rejected = %d after refusing a %d-fix trail", got, tr.Len())
	}

	// Unwedge cleanly: the queue drains and the same trail is accepted.
	wp.releaseWith(nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err = e.TryIngestTrail("wedge", tr)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrBackpressure) || time.Now().After(deadline) {
			t.Fatalf("TryIngestTrail after unwedge = %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Fixes != uint64((1+QueueDepth)*8+tr.Len()) {
		t.Fatalf("Stats = %+v: want every Ingest fix and the accepted trail's processed", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTryIngestSurfacesPersistError is the sick-backend bugfix test: a
// persist failure latched mid-stream used to surface only at the next
// Sync/Close; the next call through either door must report it so a
// client (or the server acking its frames) learns before the durability
// barrier.
func TestTryIngestSurfacesPersistError(t *testing.T) {
	fp := &failingPersister{} // fails from the first Append
	e, err := New(Config{
		Compressor:   "fbqs",
		Tolerance:    1,
		Shards:       2,
		Persister:    fp,
		MaxTrailKeys: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := wedgeTrail(t, 16)
	if err := e.TryIngestTrail("sick", tr); err != nil {
		t.Fatalf("first TryIngestTrail = %v before any persist could fail", err)
	}
	// The failure latches asynchronously in the shard worker; poll with
	// the empty-batch health probe, never through Sync.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err = e.Ingest(nil); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Ingest(nil) never surfaced the latched persist error")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, errPersistBoom) {
		t.Fatalf("Ingest(nil) = %v, want ErrDegraded wrapping the persist failure", err)
	}
	if err := e.Sync(); !errors.Is(err, errPersistBoom) {
		t.Fatalf("Sync() = %v, want the persist failure", err)
	}
	// A terminal persist failure degrades the engine: further batches
	// are rejected whole with a distinguishable ErrDegraded that still
	// wraps the root cause.
	if err := e.TryIngestTrail("sick", tr); !errors.Is(err, ErrDegraded) || !errors.Is(err, errPersistBoom) {
		t.Fatalf("TryIngestTrail while degraded = %v, want ErrDegraded wrapping the cause", err)
	}
	if got := e.Stats().Rejected; got != uint64(tr.Len()) {
		t.Fatalf("Stats.Rejected = %d, want the refused trail's %d fixes", got, tr.Len())
	}
	if st := e.State(); st.Phase != Degraded || !errors.Is(st.Cause, errPersistBoom) {
		t.Fatalf("State() = %+v after a terminal persist failure, want Degraded with the cause", st)
	}
	if err := e.Close(); !errors.Is(err, errPersistBoom) {
		t.Fatalf("Close = %v, want the latched persist error", err)
	}
}

// TestIngestNilProbe holds Ingest(nil) to Close's promise and to the
// probe's: it asks the lifecycle, not the queue. Healthy it is nil,
// degraded it reports ErrDegraded wrapping the cause, closed ErrClosed —
// and no answer moves Stats.Rejected, since it carries no fix.
func TestIngestNilProbe(t *testing.T) {
	e, err := New(Config{Compressor: "model-everyfix", Tolerance: 1, Shards: 2, Persister: &failingPersister{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(nil); err != nil {
		t.Fatalf("Ingest(nil) on a healthy engine = %v", err)
	}
	if err := e.Ingest(wedgeBatch(3)); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(e.FlushSessions(), e.Sync()); !errors.Is(err, errPersistBoom) {
		t.Fatalf("flush and Sync = %v, want the persist failure", err)
	}
	if err := e.Ingest(nil); !errors.Is(err, ErrDegraded) || !errors.Is(err, errPersistBoom) {
		t.Fatalf("Ingest(nil) on a degraded engine = %v, want ErrDegraded wrapping the cause", err)
	}
	if got := e.Stats().Rejected; got != 0 {
		t.Fatalf("Stats.Rejected = %d after probes only", got)
	}
	if err := e.Close(); !errors.Is(err, errPersistBoom) {
		t.Fatalf("Close = %v, want the loss report", err)
	}
	if err := e.Ingest(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest(nil) on a closed engine = %v, want ErrClosed", err)
	}
	if got := e.Stats().Rejected; got != 0 {
		t.Fatalf("Stats.Rejected = %d after probes only", got)
	}
}

// TestFlushSessions checks the explicit flush barrier: every open
// session's trail is persisted without closing the engine, the sessions
// stay open, and a device's next fixes continue its trajectory — the
// record they end up in starts on the key point the flush ended on.
func TestFlushSessions(t *testing.T) {
	dir := t.TempDir()
	lg, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var now atomic.Int64
	e, err := New(Config{Compressor: "fbqs", Tolerance: 5, Shards: 2, Persister: lg,
		IdleTimeout: time.Hour, Clock: func() time.Time { return time.Unix(now.Load(), 0) }})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const devices = 6
	tracks := make([][]core.Point, devices)
	for d := range tracks {
		tracks[d] = deviceTrack(int64(d)+1, 160)
		for _, p := range tracks[d][:80] {
			if err := e.Ingest([]Fix{{Device: fmt.Sprintf("dev-%d", d), Point: p}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func() Stats {
		t.Helper()
		if err := errors.Join(e.FlushSessions(), e.Sync()); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	s := flush()
	if s.ActiveSessions != devices || s.SessionsOpened != devices {
		t.Fatalf("after FlushSessions: %d sessions active, %d opened; a flush ends none and opens none (%d devices)", s.ActiveSessions, s.SessionsOpened, devices)
	}
	if s.Persisted != devices || s.TrailBytes != 0 {
		t.Fatalf("Persisted = %d, TrailBytes = %d; want %d, 0", s.Persisted, s.TrailBytes, devices)
	}
	if again := flush(); again != s {
		t.Fatalf("a second flush with no fix between changed the engine: %+v, was %+v", again, s)
	}
	// The engine stays usable; a flushed device's session goes on.
	for _, p := range tracks[0][80:] {
		if err := e.Ingest([]Fix{{Device: "dev-0", Point: p}}); err != nil {
			t.Fatal(err)
		}
	}
	if s = flush(); s.ActiveSessions != devices || s.SessionsOpened != devices || s.Persisted != devices+1 {
		t.Fatalf("after dev-0 reported on and a flush: %+v", s)
	}
	for d := 0; d < devices; d++ {
		recs, err := lg.Query(fmt.Sprintf("dev-%d", d), 0, ^uint32(0))
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if d == 0 {
			want = 2
		}
		if len(recs) != want {
			t.Fatalf("dev-%d: %d records, want %d", d, len(recs), want)
		}
		if d == 0 && recs[1].Keys[0] != recs[0].Keys[len(recs[0].Keys)-1] {
			t.Fatalf("dev-0: the second record starts at %+v, the first ended on %+v", recs[1].Keys[0], recs[0].Keys[len(recs[0].Keys)-1])
		}
	}
	// Ending a flushed session — all but dev-1's by idle eviction, that one
	// by Close — is a plain delete: the log has all of it.
	now.Store(3000)
	if err := e.Ingest([]Fix{{Device: "dev-1", Point: tracks[1][80]}}); err != nil {
		t.Fatal(err)
	}
	s = flush()
	now.Store(3000 + 3000)
	if err := e.EvictIdle(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got.ActiveSessions != 1 || got.SessionsEvicted != devices-1 || got.Persisted != s.Persisted || got.KeyPoints != s.KeyPoints {
		t.Fatalf("evicting flushed sessions: %+v, was %+v", got, s)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got.ActiveSessions != 0 || got.Persisted != s.Persisted || got.KeyPoints != s.KeyPoints {
		t.Fatalf("closing over a flushed session: %+v, was %+v", got, s)
	}
}
