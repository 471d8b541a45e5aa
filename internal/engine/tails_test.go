package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// keyLog is an OnKey sink: every device's key points in emission order.
type keyLog struct {
	mu   sync.Mutex
	keys map[string][]core.Point
}

func (k *keyLog) onKey(device string, kp core.Point) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.keys == nil {
		k.keys = make(map[string][]core.Point)
	}
	k.keys[device] = append(k.keys[device], kp)
}

// pairs is the set of consecutive key-point pairs emitted so far.
func (k *keyLog) pairs(m float64) map[pairKey]bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[pairKey]bool)
	for _, ks := range k.keys {
		for i := 1; i < len(ks); i++ {
			out[pairKeyOf(ks[i-1], ks[i], m)] = true
		}
	}
	return out
}

// TestQueryWindowTailsWhileChunksLand queries a durable engine while a
// writer streams chunked sessions (MaxTrailKeys 7) through it: whatever
// moment the query lands on — pair still on a session's trail, chunk
// just appended, both in between the two reads — every pair emitted
// before the call is reported, exactly once, and nothing that was never
// emitted is. Run with -race.
func TestQueryWindowTailsWhileChunksLand(t *testing.T) {
	const m = 1e5
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var emitted keyLog
	e, err := New(Config{
		Compressor: "fbqs", Tolerance: 5, Shards: 2, MaxTrailKeys: 7,
		Persister: lg, OnKey: emitted.onKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const devices, fixesPer = 6, 3000
	tracks := make([][]core.Point, devices)
	for d := range tracks {
		tracks[d] = gridWalk(d, fixesPer, rng)
	}
	writer := make(chan error, 1)
	go func() {
		batch := make([]Fix, 0, devices)
		for i := 0; i < fixesPer; i++ {
			batch = batch[:0]
			for d := range tracks {
				batch = append(batch, Fix{Device: fmt.Sprintf("dev-%d", d), Point: tracks[d][i]})
			}
			if err := e.Ingest(batch); err != nil {
				writer <- err
				return
			}
		}
		writer <- nil
	}()

	type probe struct{ before, got map[pairKey]bool }
	var probes []probe
	for done := false; !done; {
		select {
		case err := <-writer:
			if err != nil {
				t.Fatal(err)
			}
			done = true // one more probe, over the finished stream
		default:
		}
		before := emitted.pairs(m)
		probes = append(probes, probe{before, queryAll(t, e, m)})
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	final := emitted.pairs(m)
	if st := e.Stats(); st.Persisted < devices || len(final) < 20*devices {
		t.Fatalf("degenerate run: %d chunks persisted, %d pairs emitted", st.Persisted, len(final))
	}
	for i, p := range probes {
		if missing, _ := diffSets(p.before, p.got); missing != 0 {
			t.Fatalf("probe %d: %d of the %d pairs emitted before the query are missing", i, missing, len(p.before))
		}
		if invented, _ := diffSets(p.got, final); invented != 0 {
			t.Fatalf("probe %d: %d reported pairs were never emitted", i, invented)
		}
	}
	last := probes[len(probes)-1].got
	if a, b := diffSets(last, final); a != 0 || b != 0 {
		t.Fatalf("query over the finished stream: %d extra, %d missing", a, b)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// flakyLog is a segment log whose appends and syncs fail on demand with
// a terminal error.
type flakyLog struct {
	*segmentlog.ShardedLog
	fail atomic.Bool
}

var errDiskGone = errors.New("disk gone")

func (f *flakyLog) Append(device string, keys []trajstore.GeoKey) error {
	if f.fail.Load() {
		return errDiskGone
	}
	return f.ShardedLog.Append(device, keys)
}

func (f *flakyLog) Sync() error {
	if f.fail.Load() {
		return errDiskGone
	}
	return f.ShardedLog.Sync()
}

// ShardPersister keeps the shard workers' appends on the failing path.
func (f *flakyLog) ShardPersister(int) trajstore.Persister { return f }

// faultFleet is four devices' 300-fix walks, split in time: the halves
// the degraded-mode tests ingest before and after the fault.
func faultFleet(seed int64) (healthy, faulty []Fix) {
	rng := rand.New(rand.NewSource(seed))
	for d := 0; d < 4; d++ {
		for i, p := range gridWalk(d, 300, rng) {
			f := Fix{Device: fmt.Sprintf("dev-%d", d), Point: p}
			if i < 150 {
				healthy = append(healthy, f)
			} else {
				faulty = append(faulty, f)
			}
		}
	}
	return healthy, faulty
}

// TestQueryWindowParkedTrailsUntilHeal: trails a failing persister
// refused are parked in memory, and QueryWindow keeps reporting them —
// next to the chunks that reached the log before the fault — until Heal
// drains them; then the same pairs come from the log, count unchanged.
func TestQueryWindowParkedTrailsUntilHeal(t *testing.T) {
	const m = 1e5
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyLog{ShardedLog: lg}
	cfg := Config{
		Compressor: "fbqs", Tolerance: 5, Shards: 2, MaxTrailKeys: 7,
	}
	healthy, faulty := faultFleet(9)
	ref := reference(t, cfg, append(append([]Fix(nil), healthy...), faulty...))
	cfg.Persister = fl
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(healthy); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	logged := e.Stats().Persisted
	if logged == 0 {
		t.Fatal("no chunk reached the log before the fault")
	}
	// One Ingest call: admitted whole before the first failed append
	// flips the engine to degraded.
	fl.fail.Store(true)
	if err := e.Ingest(faulty); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Sync = %v, want ErrDegraded", err)
	}
	refAll := func() map[pairKey]bool {
		return pairSet(ref.Stores().QueryWindow(-1e6, -1e6, 1e6, 1e6, 0, 1<<31), m)
	}
	if a, b := diffSets(queryAll(t, e, m), refAll()); a != 0 || b != 0 {
		t.Fatalf("degraded, sessions open: %d extra, %d missing", a, b)
	}
	for _, x := range []*Engine{e, ref} {
		if err := x.FlushSessions(); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.ParkedTrails == 0 || st.Persisted != logged || st.ActiveSessions != 0 {
		t.Fatalf("expected everything since the fault parked: %+v", st)
	}
	want := refAll()
	if a, b := diffSets(queryAll(t, e, m), want); a != 0 || b != 0 {
		t.Fatalf("parked: %d extra, %d missing (truth %d)", a, b, len(want))
	}

	fl.fail.Store(false)
	if err := e.Heal(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ParkedTrails != 0 || st.Persisted <= logged {
		t.Fatalf("Heal did not drain the parked trails: %+v", st)
	}
	if a, b := diffSets(queryAll(t, e, m), want); a != 0 || b != 0 {
		t.Fatalf("healed: %d extra, %d missing (truth %d)", a, b, len(want))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsParkedTrails: an engine closed while degraded does not
// walk away from the trails it parked. With the fault cleared, Close's
// last drain writes every one of them out — the reopened log holds
// exactly what a persister-less twin compressed — and Close returns nil;
// with the fault standing, Close says how much it had to drop, in an
// error matching ErrDegraded that wraps the root cause.
func TestCloseDrainsParkedTrails(t *testing.T) {
	const m = 1e5
	for _, cleared := range []bool{true, false} {
		t.Run(fmt.Sprintf("cleared=%v", cleared), func(t *testing.T) {
			dir := t.TempDir()
			lg, err := segmentlog.OpenSharded(dir, 2, segmentlog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fl := &flakyLog{ShardedLog: lg}
			cfg := Config{Compressor: "fbqs", Tolerance: 5, Shards: 2, MaxTrailKeys: 7}
			healthy, faulty := faultFleet(11)
			cfg.Persister = fl
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Ingest(healthy); err != nil {
				t.Fatal(err)
			}
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			logged := e.Stats().Persisted
			if logged == 0 {
				t.Fatal("no chunk reached the log before the fault")
			}
			ref := reference(t, cfg, healthy)
			fl.fail.Store(true)
			for _, x := range []*Engine{e, ref} {
				if err := x.Ingest(faulty); err != nil { // acked: the fault shows only when a trail is appended
					t.Fatal(err)
				}
				if err := x.FlushSessions(); err != nil {
					t.Fatal(err)
				}
			}
			st := e.Stats()
			if st.ParkedTrails == 0 || e.State().Phase != Degraded {
				t.Fatalf("expected a degraded engine with parked trails: %+v, %+v", e.State(), st)
			}
			want := pairSet(ref.Stores().QueryWindow(-1e6, -1e6, 1e6, 1e6, 0, 1<<31), m)
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}

			fl.fail.Store(!cleared)
			err = e.Close()
			if cleared {
				if err != nil {
					t.Fatalf("Close with the fault cleared = %v", err)
				}
			} else {
				if !errors.Is(err, ErrDegraded) || !errors.Is(err, errDiskGone) {
					t.Fatalf("Close with the fault standing = %v, want ErrDegraded wrapping the cause", err)
				}
				if trails, keys := lossReport(t, err); uint64(trails) != st.ParkedTrails || keys < 2*trails {
					t.Fatalf("Close = %v, want %d parked trails reported dropped", err, st.ParkedTrails)
				}
			}
			re, err := segmentlog.OpenSharded(dir, 0, segmentlog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			got := durablePairSet(t, re, -1e6, -1e6, 1e6, 1e6, 0, 1<<31, m)
			extra, missing := diffSets(got, want)
			if extra != 0 || cleared && missing != 0 {
				t.Fatalf("reopened log: %d extra, %d missing of the %d pairs acked", extra, missing, len(want))
			}
			// Whatever was dropped, what reached the log before the fault stays.
			if n := re.Stats().Records; !cleared && n != int(logged) {
				t.Fatalf("reopened log holds %d records, %d were logged before the fault", n, logged)
			}
		})
	}
}

// TestDurableEngineKeepsNoMirror: on a durable engine, history that has
// reached the log costs no engine memory. Past several chunk flushes the
// stores are empty and the heap does not grow with further key points —
// a few bytes each for the log's own record index, nowhere near the
// ≈ 540 B each of the in-memory mirror this engine used to keep.
func TestDurableEngineKeepsNoMirror(t *testing.T) {
	lg, err := segmentlog.OpenSharded(t.TempDir(), 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Compressor: "fbqs", Tolerance: 1, Shards: 1, MaxTrailKeys: 64, Persister: lg})
	if err != nil {
		t.Fatal(err)
	}
	const devices, round = 8, 4096 // key points per device per round: 64 chunk flushes
	batch := make([]Fix, 0, devices*256)
	next := 0
	feed := func() uint64 {
		for end := next + round; next < end; {
			batch = batch[:0]
			for i := 0; i < 256; i, next = i+1, next+1 {
				// Every fix is a key point at tolerance 1 (see wedgeTrack).
				p := core.Point{X: float64(next * 500), Y: float64(next % 2 * 400), T: float64(next)}
				for d := 0; d < devices; d++ {
					batch = append(batch, Fix{Device: fmt.Sprintf("dev-%d", d), Point: p})
				}
			}
			if err := e.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	feed() // warm-up: sessions, trails, pools and log buffers reach their steady size
	before, keys := feed(), e.Stats().KeyPoints
	after := feed()
	st := e.Stats()
	added := st.KeyPoints - keys
	if added < devices*round*9/10 || st.Persisted < 3*devices*round/64 {
		t.Fatalf("degenerate run: %d key points added, %d chunks persisted", added, st.Persisted)
	}
	if st.Store.Segments != 0 || st.Store.Inserted != 0 {
		t.Fatalf("durable engine fed its in-memory store: %+v", st.Store)
	}
	if perKey := (float64(after) - float64(before)) / float64(added); perKey > 64 {
		t.Fatalf("heap grew %.0f B per additional key point (%d → %d B over %d keys); history is being mirrored in memory",
			perKey, before, after, added)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTryIngestAckCount is the regression test for the ack-miscount
// race: TryIngest must take a batch's size before handing the pooled
// buffer to the worker, which may recycle it — and another sender refill
// it — at once. Two senders push fixed-size one-device batches through a
// shallow queue: each ack is the whole batch or nothing, and accepted
// plus rejected adds up to what was sent. Run with -race; the spare Ps
// let the worker overtake its sender even on a two-CPU box.
func TestTryIngestAckCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e, err := New(Config{Compressor: "fbqs", Tolerance: 10, Shards: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	const senders, rounds, size = 2, 4000, 24
	var accepted, sent atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]Fix, size)
			for r := 0; r < rounds; r++ {
				for i := range batch {
					batch[i] = Fix{Device: fmt.Sprintf("dev-%d", g), Point: core.Point{X: float64(r), Y: float64(i), T: float64(r*size + i)}}
				}
				n, err := e.TryIngest(batch)
				if err != nil && !errors.Is(err, ErrBackpressure) {
					t.Error(err)
					return
				}
				if n != 0 && n != size || (n == size) != (err == nil) {
					t.Errorf("sender %d round %d: ack %d of a %d-fix one-device batch, err %v", g, r, n, size, err)
					return
				}
				accepted.Add(uint64(n))
				sent.Add(size)
			}
		}(g)
	}
	wg.Wait()
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Fixes != accepted.Load() || accepted.Load()+st.Rejected != sent.Load() {
		t.Fatalf("acked %d + rejected %d of %d sent; the workers processed %d",
			accepted.Load(), st.Rejected, sent.Load(), st.Fixes)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
