package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// TestQueryWindowTailsWhileChunksLand queries a durable engine while a
// writer streams chunked sessions (MaxTrailKeys 7) through it: whatever
// moment the query lands on — pair still on a session's trail, chunk
// just appended, both in between the two reads — every pair emitted
// before the call is reported, exactly once, and nothing that was never
// emitted is. The block stream under it is held to the same: a trail that
// grew and was chunked between the two reads comes back from the log as a
// superset of the tail held, not as equal bytes, and must still be served
// once. Run with -race.
func TestQueryWindowTailsWhileChunksLand(t *testing.T) {
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
		before := emitted.all(t)
		probes = append(probes, probe{before, queryAll(t, e)})
		if missing, _ := diffSets(before, blockPairs(t, e)); missing != 0 {
			t.Fatalf("probe %d: the block stream lacks %d of the %d pairs emitted before it", len(probes), missing, len(before))
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	final := emitted.all(t)
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

// blockPairs reads everything through Engine.WindowBlocks and returns the
// consecutive key pairs of the blocks served; one served twice — in two
// blocks, or twice in one — fails the test.
func blockPairs(t *testing.T, e *Engine) map[pairKey]bool {
	t.Helper()
	out := make(map[pairKey]bool)
	err := e.WindowBlocks(-10, -10, 10, 10, 0, math.MaxUint32, func(blk trajstore.Block) error {
		keys, err := trajstore.DeltaDecode(blk.Payload)
		for i := 1; i < len(keys); i++ {
			k := pairKeyOf(trajstore.PlanePoint(keys[i-1]), trajstore.PlanePoint(keys[i]))
			if out[k] {
				t.Fatalf("%s: pair %v served twice in one read (in a block of %d keys, t %d..%d)", blk.Device, k, len(keys), blk.T0, blk.T1)
			}
			out[k] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKeptTailsOutliveTheRead is the Block lifetime contract for the
// blocks an engine adds to the log's: every payload a read hands over —
// records and open sessions' tails — kept past its visit without a copy,
// still holds the bytes it held then after the sessions ingest on, chunk
// into the log and are cut by a flush.
func TestKeptTailsOutliveTheRead(t *testing.T) {
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{CacheBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Compressor: "fbqs", Tolerance: 5, Shards: 2, MaxTrailKeys: 24, Persister: lg})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const devices, fixesPer, rounds = 6, 400, 4
	tracks := make([][]core.Point, devices)
	for d := range tracks {
		tracks[d] = gridWalk(d, fixesPer*rounds, rng)
	}
	var kept, copies [][]byte
	tails := 0
	for r := 0; r < rounds; r++ {
		var batch []Fix
		for d := range tracks {
			for _, p := range tracks[d][r*fixesPer : (r+1)*fixesPer] {
				batch = append(batch, Fix{Device: fmt.Sprintf("dev-%d", d), Point: p})
			}
		}
		if err := e.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		err := e.WindowBlocks(-10, -10, 10, 10, 0, math.MaxUint32, func(blk trajstore.Block) error {
			kept, copies = append(kept, blk.Payload), append(copies, bytes.Clone(blk.Payload))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.Stats().TrailBytes > 0 { // the read waited for the workers: trails were open, and served
			tails++
		}
		if r == 1 {
			if err := e.FlushSessions(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); tails < rounds-1 || st.Persisted < devices*rounds {
		t.Fatalf("degenerate run: %d reads met open trails, %d chunks persisted", tails, st.Persisted)
	}
	for i := range kept {
		if !bytes.Equal(kept[i], copies[i]) {
			t.Fatalf("payload %d of %d changed after its visit", i, len(kept))
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadAsksOnlyTheShardsItNeeds: a caller's bad window is refused
// before any shard worker is asked — it is not a "partial result", as if
// the disk had failed — and a device read waits for the device's own shard
// alone. One worker is held inside OnKey, so a barrier sent to it would
// not return.
func TestReadAsksOnlyTheShardsItNeeds(t *testing.T) {
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stuck, free := "dev-0", "dev-1"
	for i := 2; trajstore.ShardIndex(free, 2) == trajstore.ShardIndex(stuck, 2); i++ {
		free = fmt.Sprintf("dev-%d", i)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	e, err := New(Config{Compressor: "model-everyfix", Tolerance: 1, Shards: 2, Persister: lg,
		OnKey: func(device string, _ core.Point) {
			if device == stuck {
				close(entered)
				<-release
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []core.Point{{X: 10, Y: 10, T: 100}, {X: 20, Y: 30, T: 110}, {X: 40, Y: 20, T: 120}} {
		if err := e.Ingest([]Fix{{Device: free, Point: p}}); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := e.Ingest([]Fix{{Device: stuck, Point: p}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	<-entered
	visit := func(blk trajstore.Block) error {
		if blk.Device != free {
			t.Errorf("served a block of %s", blk.Device)
		}
		return nil
	}
	nan := math.NaN()
	for _, w := range [][4]float64{{1, 0, 0, 1}, {0, 1, 1, 0}, {nan, 0, 1, 1}, {0, 0, 1, nan}} {
		_, qerr := e.QueryWindow(w[0], w[1], w[2], w[3], 0, 1)
		berr := e.WindowBlocks(w[0], w[1], w[2], w[3], 0, 1, visit)
		for _, err := range []error{qerr, berr} {
			if err == nil || errors.Is(err, ErrPartialResult) {
				t.Fatalf("window %v: %v, want a refusal that is not ErrPartialResult", w, err)
			}
		}
	}
	if _, err := e.QueryWindow(0, 0, 1, 1, 2, 1); err == nil || errors.Is(err, ErrPartialResult) {
		t.Fatalf("inverted time range: %v, want a refusal that is not ErrPartialResult", err)
	}
	served := 0
	err = e.DeviceBlocks(free, 0, math.MaxUint32, func(blk trajstore.Block) error {
		served++
		keys, err := trajstore.DeltaDecode(blk.Payload)
		if len(keys) != 3 || blk.T0 != 100 || blk.T1 != 120 {
			t.Errorf("served %d keys, t %d..%d; want the three un-flushed key points", len(keys), blk.T0, blk.T1)
		}
		return errors.Join(err, visit(blk))
	})
	if err != nil || served != 1 {
		t.Fatalf("DeviceBlocks beside a held shard: %d blocks, %v", served, err)
	}
	// A window read does ask every shard: it returns once the held one moves.
	done := make(chan error, 1)
	go func() { done <- e.WindowBlocks(-1, -1, 1, 1, 0, 99, visit) }()
	select {
	case err := <-done:
		t.Fatalf("WindowBlocks returned %v past a held shard worker", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// flakyLog is a segment log whose appends and syncs fail on demand with
// a terminal error. It notes every trail it did take (see trailID).
type flakyLog struct {
	*segmentlog.ShardedLog
	fail atomic.Bool

	mu     sync.Mutex
	landed []string
}

var errDiskGone = errors.New("disk gone")

func (f *flakyLog) AppendTrail(device string, t *trajstore.Trail) error {
	if f.fail.Load() {
		return errDiskGone
	}
	f.mu.Lock()
	f.landed = append(f.landed, trailID(device, t))
	f.mu.Unlock()
	return f.ShardedLog.AppendTrail(device, t)
}

// trailID is a trail's device and a copy of its block's bytes.
func trailID(device string, t *trajstore.Trail) string {
	return device + "\x00" + string(t.AppendBlock(nil))
}

// byShard splits trail IDs over n shards, keeping their order.
func byShard(ids []string, n int) [][]string {
	out := make([][]string, n)
	for _, id := range ids {
		dev, _, _ := strings.Cut(id, "\x00")
		i := trajstore.ShardIndex(dev, n)
		out[i] = append(out[i], id)
	}
	return out
}

// parkedTrails has every shard worker report, in park order, the trails
// it holds parked. Each must be a run of its device's emitted key points
// — a parked block owns its bytes, so no later chunk of the session it
// came from may have written into them.
func parkedTrails(t *testing.T, e *Engine, ref *keyLog) [][]string {
	t.Helper()
	out := make([][]string, len(e.shards))
	err := e.barrier(e.shards, func(sh *shard) {
		for i := range sh.parked {
			p := &sh.parked[i]
			n := trajstore.ShardIndex(p.device, len(out)) // the worker's own slot
			out[n] = append(out[n], trailID(p.device, &p.trail))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.mu.Lock()
	defer ref.mu.Unlock()
	for _, ids := range out {
		for _, id := range ids {
			dev, block, _ := strings.Cut(id, "\x00")
			keys, err := trajstore.DeltaDecode([]byte(block))
			if err != nil || len(keys) < 2 {
				t.Fatalf("%s: parked block of %d keys: %v", dev, len(keys), err)
			}
			// The emitted key points as the wire holds them.
			enc, err := trajstore.DeltaEncode(trajstore.PointKeysToGeo(ref.keys[dev], trajstore.MetersPerDegree, trajstore.MetersPerDegree))
			if err != nil {
				t.Fatal(err)
			}
			emitted, _ := trajstore.DeltaDecode(enc)
			at := 0
			for at < len(emitted) && emitted[at] != keys[0] {
				at++
			}
			if at+len(keys) > len(emitted) || !reflect.DeepEqual(emitted[at:at+len(keys)], keys) {
				t.Fatalf("%s: parked block of %d keys is not a run of the emitted key points (from emitted key %d of %d)", dev, len(keys), at, len(emitted))
			}
		}
	}
	return out
}

func (f *flakyLog) Sync() error {
	if f.fail.Load() {
		return errDiskGone
	}
	return f.ShardedLog.Sync()
}

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
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyLog{ShardedLog: lg}
	var ref keyLog
	healthy, faulty := faultFleet(9)
	e, err := New(Config{
		Compressor: "fbqs", Tolerance: 5, Shards: 2, MaxTrailKeys: 7,
		Persister: fl, OnKey: ref.onKey,
	})
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
	if a, b := diffSets(queryAll(t, e), ref.all(t)); a != 0 || b != 0 {
		t.Fatalf("degraded, sessions open: %d extra, %d missing", a, b)
	}
	// Every session has parked several chunks by now, each taking the
	// buffer it was built in; flushing the sessions parks what is left
	// and must leave the earlier blocks as they were.
	early := parkedTrails(t, e, &ref)
	if err := e.FlushSessions(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ParkedTrails == 0 || st.Persisted != logged {
		t.Fatalf("expected everything since the fault parked: %+v", st)
	}
	parked := parkedTrails(t, e, &ref)
	for i := range parked {
		if len(early[i]) < 4 || len(parked[i]) <= len(early[i]) || !reflect.DeepEqual(parked[i][:len(early[i])], early[i]) {
			t.Fatalf("shard %d: the %d blocks parked before eviction are not the first of the %d parked after it", i, len(early[i]), len(parked[i]))
		}
	}
	if st.TrailBytes == 0 {
		t.Fatalf("TrailBytes = 0 with %d trails parked", st.ParkedTrails)
	}
	want := ref.all(t)
	if a, b := diffSets(queryAll(t, e), want); a != 0 || b != 0 {
		t.Fatalf("parked: %d extra, %d missing (truth %d)", a, b, len(want))
	}

	fl.fail.Store(false)
	if err := e.Heal(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ParkedTrails != 0 || st.Persisted <= logged || st.TrailBytes != 0 {
		t.Fatalf("Heal did not drain the parked trails: %+v", st)
	}
	if healed := byShard(fl.landed[logged:], 2); !reflect.DeepEqual(healed, parked) {
		t.Fatalf("Heal appended other blocks, or in another order, than were parked:\n%q\n%q", healed, parked)
	}
	if a, b := diffSets(queryAll(t, e), want); a != 0 || b != 0 {
		t.Fatalf("healed: %d extra, %d missing (truth %d)", a, b, len(want))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsParkedTrails: an engine closed while degraded does not
// walk away from the trails it parked. With the fault cleared, Close's
// last drain writes every one of them out — the reopened log holds
// exactly the key points the engine emitted — and Close returns nil;
// with the fault standing, Close says how much it had to drop, in an
// error matching ErrDegraded that wraps the root cause.
func TestCloseDrainsParkedTrails(t *testing.T) {
	for _, cleared := range []bool{true, false} {
		t.Run(fmt.Sprintf("cleared=%v", cleared), func(t *testing.T) {
			dir := t.TempDir()
			lg, err := segmentlog.OpenSharded(dir, 2, segmentlog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fl := &flakyLog{ShardedLog: lg}
			var ref keyLog
			healthy, faulty := faultFleet(11)
			e, err := New(Config{
				Compressor: "fbqs", Tolerance: 5, Shards: 2, MaxTrailKeys: 7,
				Persister: fl, OnKey: ref.onKey,
			})
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
			fl.fail.Store(true)
			if err := e.Ingest(faulty); err != nil { // acked: the fault shows only when a trail is appended
				t.Fatal(err)
			}
			if err := e.FlushSessions(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.ParkedTrails == 0 || e.State().Phase != Degraded {
				t.Fatalf("expected a degraded engine with parked trails: %+v, %+v", e.State(), st)
			}
			parked := parkedTrails(t, e, &ref)
			want := ref.all(t)

			fl.fail.Store(!cleared)
			err = e.Close()
			if cleared {
				if err != nil {
					t.Fatalf("Close with the fault cleared = %v", err)
				}
				if drained := byShard(fl.landed[logged:], 2); !reflect.DeepEqual(drained, parked) {
					t.Fatalf("Close appended other blocks, or in another order, than were parked:\n%q\n%q", drained, parked)
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
			got := durablePairSet(t, re, -1e6, -1e6, 1e6, 1e6, 0, 1<<31)
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

// bareLog is a Persister and nothing more — no window query, so the
// engine runs it through the append-only adapter. It keeps what it was
// handed.
type bareLog struct {
	mu   sync.Mutex
	recs [][]trajstore.GeoKey
}

func (b *bareLog) Append(_ string, keys []trajstore.GeoKey) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.recs = append(b.recs, keys)
	return nil
}
func (*bareLog) Sync() error  { return nil }
func (*bareLog) Close() error { return nil }

// TestQueryWindowBarePersisterIsTailsOnly: behind a Persister that cannot
// be read back, QueryWindow is the tails and nothing else — every emitted
// pair no appended chunk holds, until FlushSessions appends the rest and
// the answer is empty. What left the engine is the persister's to serve.
func TestQueryWindowBarePersisterIsTailsOnly(t *testing.T) {
	var (
		ref keyLog
		lg  bareLog
	)
	e, err := New(Config{
		Compressor: "fbqs", Tolerance: 5, Shards: 2, MaxTrailKeys: 7,
		Persister: &lg, OnKey: ref.onKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy, faulty := faultFleet(13)
	if err := e.Ingest(append(healthy, faulty...)); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	want := ref.all(t)
	appended := 0
	for _, rec := range lg.recs { // Sync returned: the workers are quiescent
		for i := 1; i < len(rec); i++ {
			delete(want, pairKeyOf(trajstore.PlanePoint(rec[i-1]), trajstore.PlanePoint(rec[i])))
			appended++
		}
	}
	if appended == 0 || len(want) == 0 {
		t.Fatalf("degenerate: %d pairs appended, %d still on open trails", appended, len(want))
	}
	if extra, missing := diffSets(queryAll(t, e), want); extra != 0 || missing != 0 {
		t.Fatalf("sessions open: %d pairs beyond the open tails, %d of the %d tail pairs missing", extra, missing, len(want))
	}
	if err := e.FlushSessions(); err != nil {
		t.Fatal(err)
	}
	if got := queryAll(t, e); len(got) != 0 {
		t.Fatalf("after FlushSessions: %d pairs reported, but every trail was handed to the persister", len(got))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryWindowWithoutPersister: an engine with no Persister keeps no
// trails, so QueryWindow says so instead of answering empty; ingest, the
// counters and OnKey — its output — work as ever.
func TestQueryWindowWithoutPersister(t *testing.T) {
	var out keyLog
	e, err := New(Config{Compressor: "fbqs", Tolerance: 5, Shards: 2, OnKey: out.onKey})
	if err != nil {
		t.Fatal(err)
	}
	healthy, faulty := faultFleet(17)
	for _, fixes := range [][]Fix{healthy, faulty} {
		if err := e.Ingest(fixes); err != nil {
			t.Fatal(err)
		}
		if segs, err := e.QueryWindow(-1e6, -1e6, 1e6, 1e6, 0, 1<<31); !errors.Is(err, ErrNoPersister) || segs != nil {
			t.Fatalf("QueryWindow = %d segments, %v; want none and ErrNoPersister", len(segs), err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	emitted := 0
	for _, ks := range out.keys {
		emitted += len(ks)
	}
	st := e.Stats()
	if st.Fixes != uint64(len(healthy)+len(faulty)) || st.KeyPoints != uint64(emitted) || emitted < 8 || st.Persisted != 0 {
		t.Fatalf("stats %+v with %d key points through OnKey", st, emitted)
	}
	if _, err := e.QueryWindow(0, 0, 1, 1, 0, 1); err != ErrClosed {
		t.Fatalf("QueryWindow on the closed engine = %v, want ErrClosed", err)
	}
}

// TestDurableEngineKeepsNoMirror: on a durable engine, history that has
// reached the log costs no engine memory. Past several chunk flushes the
// heap does not grow with further key points — a few bytes each for the
// log's own record index, nowhere near the ≈ 540 B each an in-memory
// Store of the same history costs.
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
	if perKey := (float64(after) - float64(before)) / float64(added); perKey > 64 {
		t.Fatalf("heap grew %.0f B per additional key point (%d → %d B over %d keys); history is being mirrored in memory",
			perKey, before, after, added)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTryIngestAckCount is the regression test for the ack-miscount
// race: the count a sender is told must not be read off the pooled buffer
// the worker may recycle — and another sender refill — at once. Two
// senders push fixed-size one-device trails through TryIngestTrail while the
// test keeps parking the workers until a queue fills, so refusals are
// forced: each refused trail is counted whole in
// Stats.Rejected, and processed plus rejected adds up to what was sent.
// Run with -race; the spare Ps let the worker overtake its sender even on
// a two-CPU box.
func TestTryIngestAckCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e, err := New(Config{Compressor: "fbqs", Tolerance: 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const senders, rounds, size = 2, 4000, 24
	var accepted, refused, sent atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dev := fmt.Sprintf("dev-%d", g)
			for r := 0; r < rounds; r++ {
				var tr trajstore.Trail
				for i := 0; i < size; i++ {
					if err := tr.Add(trajstore.PlaneKey(core.Point{X: float64(r), Y: float64(i), T: float64(r*size + i)})); err != nil {
						t.Error(err)
						return
					}
				}
				switch err := e.TryIngestTrail(dev, &tr); {
				case err == nil:
					accepted.Add(size)
				case errors.Is(err, ErrBackpressure):
					refused.Add(size)
				default:
					t.Error(err)
					return
				}
				sent.Add(size)
			}
		}(g)
	}
	// The refusals: park every worker, wait for a full queue (or the
	// senders' end), release, again.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		release := parkWorkers(t, e)
		for e.Stats().QueueFullness < 1 && !isClosed(done) {
			runtime.Gosched()
		}
		release()
		if isClosed(done) {
			break
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if refused.Load() == 0 || st.Rejected != refused.Load() {
		t.Fatalf("%d fixes refused, Stats.Rejected %d: want refusals forced and counted", refused.Load(), st.Rejected)
	}
	if st.Fixes != accepted.Load() || st.Fixes+st.Rejected != sent.Load() {
		t.Fatalf("acked %d + rejected %d of %d sent; the workers processed %d",
			accepted.Load(), st.Rejected, sent.Load(), st.Fixes)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// isClosed reports whether ch is closed, without blocking.
func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
