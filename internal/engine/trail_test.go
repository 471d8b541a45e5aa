package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// teeLog is a segment log that also keeps, in append order, what a bare
// Persister would have been handed for every trail the engine appends.
type teeLog struct {
	*segmentlog.ShardedLog
	mu   sync.Mutex
	recs []teeRec
}

type teeRec struct {
	device string
	keys   []trajstore.GeoKey
}

// AppendTrail records and forwards under one lock, so the recorded order
// is each log shard's file order.
func (l *teeLog) AppendTrail(device string, t *trajstore.Trail) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, teeRec{device, t.Keys()})
	return l.ShardedLog.AppendTrail(device, t)
}

// logFiles reads every file of a closed log root except its lock.
func logFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "LOCK" {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestTrailBlocksMatchLogAppend is the engine → log differential: a
// session's block, built key by key at emit and only framed by the log,
// must land as the very bytes the log writes when it is handed the same
// trail as GeoKeys and encodes it itself. The same run feeds both: the
// engine appends to a real log through a tee, and what the tee recorded
// is replayed into a second log with Append(device, keys). Segment
// files and manifests must come out byte-identical, a segment sealed — for
// a trail cap of 2 (every record is chunk overlap plus one key), 16 and
// the default — and a session whose trail is only the overlap key at its
// final flush must write nothing.
func TestTrailBlocksMatchLogAppend(t *testing.T) {
	for _, maxKeys := range []int{2, 16, 8192} {
		t.Run(fmt.Sprintf("MaxTrailKeys=%d", maxKeys), func(t *testing.T) {
			opts := segmentlog.Options{MaxSegmentBytes: 1024}
			dirA, dirB := t.TempDir(), t.TempDir()
			lg, err := segmentlog.OpenSharded(dirA, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			tee := &teeLog{ShardedLog: lg}
			e, err := New(Config{Compressor: "model-everyfix", Tolerance: 1, Shards: 2, MaxTrailKeys: maxKeys, Persister: tee})
			if err != nil {
				t.Fatal(err)
			}
			// Device d sends 20+d fixes (every one a key point), off the
			// lattice in every coordinate so the quantization is exercised.
			const devices = 24
			wantRecords, overlapOnly := map[string]int{}, 0
			for i := 0; i < 20+devices; i++ {
				var batch []Fix
				for d := 0; d < devices; d++ {
					if i < 20+d {
						batch = append(batch, Fix{Device: fmt.Sprintf("dev-%d", d), Point: core.Point{
							X: float64(d)*1500.004 + float64(i)*37.123456, Y: float64(i%5)*-211.98765 + float64(d), T: 1000.6 + float64(i*7),
						}})
					}
				}
				if err := e.Ingest(batch); err != nil {
					t.Fatal(err)
				}
				if i%9 == 0 {
					if err := e.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for d := 0; d < devices; d++ {
				// The chunking rule, restated: a record at every maxKeys-th
				// key, the trail restarting from that key; at the final
				// flush whatever is more than the overlap.
				trail, chunked, n := 0, false, 0
				for k := 0; k < 20+d; k++ {
					if trail++; trail >= maxKeys {
						n, trail, chunked = n+1, 1, true
					}
				}
				switch {
				case chunked && trail == 1:
					overlapOnly++
				case trail > 0:
					n++
				}
				wantRecords[fmt.Sprintf("dev-%d", d)] = n
			}
			if maxKeys < 8192 && overlapOnly == 0 {
				t.Fatal("no device ends on an overlap-only trail")
			}
			// Chunked, not flushed: at a cap of 2 every trail is only the key
			// its last record ended on, and the log holds that one.
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			if tb := e.Stats().TrailBytes; maxKeys == 2 && tb != 0 {
				t.Fatalf("TrailBytes = %d with every key point in a record and no flush yet", tb)
			}
			if err := errors.Join(e.FlushSessions(), e.Sync()); err != nil {
				t.Fatal(err)
			}
			if tb := e.Stats().TrailBytes; tb != 0 {
				t.Fatalf("TrailBytes = %d with every session flushed", tb)
			}
			for dev, want := range wantRecords {
				recs, err := lg.Query(dev, 0, math.MaxUint32)
				if err != nil || len(recs) != want {
					t.Fatalf("%s: %d records in the log (%v), want %d", dev, len(recs), err, want)
				}
				for i := 1; i < len(recs); i++ {
					if prev := recs[i-1].Keys; prev[len(prev)-1] != recs[i].Keys[0] {
						t.Fatalf("%s: records %d and %d do not share a key point", dev, i-1, i)
					}
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			replay, err := segmentlog.OpenSharded(dirB, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range tee.recs {
				if len(r.keys) < 2 {
					t.Fatalf("%s: the engine appended a %d-key trail", r.device, len(r.keys))
				}
				if err := replay.Append(r.device, r.keys); err != nil {
					t.Fatal(err)
				}
			}
			if err := replay.Close(); err != nil {
				t.Fatal(err)
			}
			a, b := logFiles(t, dirA), logFiles(t, dirB)
			sealed := 0
			for name, want := range b {
				if got, ok := a[name]; !ok || !bytes.Equal(got, want) {
					t.Errorf("%s: the engine's log and the replayed one differ (%d vs %d bytes, present %v)", name, len(got), len(want), ok)
				}
				if filepath.Base(name) == "MANIFEST" { // every segment it lists but the last, the active one
					sealed += strings.Count(string(want), "\nseg ") - 1
				}
			}
			if len(a) != len(b) || sealed <= 0 {
				t.Fatalf("%d files behind the engine, %d replayed, %d sealed segments", len(a), len(b), sealed)
			}
		})
	}
}

// heapAlloc is the live heap after two collections: the second empties
// the sync.Pool victim caches, where the staging batches a burst of
// Ingest calls left behind would otherwise count.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTrailHeapPerBufferedKey is the number the paged trail is about: a
// key point a session has emitted but not flushed costs its encoded bytes
// once, in pages mapped outside the Go heap, not a 24-byte core.Point in a
// doubling slice (40 B a key before blocks) nor a growing heap buffer that
// the GC's goal counts twice (6.7 B a key before pages). 2 000 sessions
// buffer 600 key points each — no chunk, nothing reaches the log: the heap
// may grow by at most 1 B a key (the page lists) and the pools may map at
// most 8 (the encoding and each trail's last page's room); after a flush
// and a sync no page is out and nothing stays mapped.
func TestTrailHeapPerBufferedKey(t *testing.T) {
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Compressor: "model-everyfix", Tolerance: 1, Shards: 2, Persister: lg})
	if err != nil {
		t.Fatal(err)
	}
	const devices, perDevice = 2000, 600
	names := make([]string, devices)
	for d := range names {
		names[d] = fmt.Sprintf("dev-%04d", d)
	}
	batch := make([]Fix, 0, devices)
	feed := func(from, to int) uint64 {
		for i := from; i < to; i++ {
			batch = batch[:0]
			for d, name := range names { // ≈ 100 m steps with a ±40 m zig-zag, 10 s apart
				batch = append(batch, Fix{Device: name, Point: core.Point{
					X: float64(d%50)*10000 + float64(i)*100.37, Y: float64(d/50)*10000 + float64(i%2)*40.11, T: float64(1700000000 + 10*i),
				}})
			}
			if err := e.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		return heapAlloc()
	}
	before := feed(0, 1) // every session open, pools and queues at their steady size
	after := feed(1, perDevice)
	st := e.Stats()
	if st.KeyPoints != devices*perDevice || st.Persisted != 0 || st.ActiveSessions != devices {
		t.Fatalf("degenerate run: %+v", st)
	}
	added := float64(devices * (perDevice - 1))
	perKey, wire := (float64(after)-float64(before))/added, float64(st.TrailBytes)/float64(st.KeyPoints)
	mapped := float64(st.TrailPagesBytes) / float64(st.KeyPoints)
	t.Logf("heap %.1f B per buffered key point (%d → %d B); pages mapped %.2f B a key, %.2f B of it the key's encoding", perKey, before, after, mapped, wire)
	if perKey > 1 || wire < 5 || wire > 8 || mapped > 8 {
		t.Fatalf("heap grew %.1f B and pools mapped %.2f B per buffered key point (encoded size %.2f B), want ≤ 1 and ≤ 8", perKey, mapped, wire)
	}
	if err := e.FlushSessions(); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.TrailPagesBytes != 0 || st.TrailBytes != 0 {
		t.Fatalf("after a flush and a sync the pools map %d B for %d B of trail, want 0", st.TrailPagesBytes, st.TrailBytes)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// parkWorkers has every shard worker block on a queued message until the
// returned release is called, and returns once all of them are blocked.
func parkWorkers(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	gate, parked := make(chan struct{}), make(chan struct{}, len(e.shards))
	for _, sh := range e.shards {
		if err := e.send(sh, shardMsg{do: func(*shard) { parked <- struct{}{}; <-gate }}); err != nil {
			t.Fatal(err)
		}
	}
	for range e.shards {
		<-parked
	}
	return func() { close(gate) }
}

// TestQueuedBlockHeap is the number TryIngestTrail is about: a fix waiting
// in a shard queue costs its wire bytes and its share of one pooled batch,
// not a 40-byte Fix in a per-shard staging slice. With the workers parked,
// both queues are filled — 512 device blocks of 100 fixes — and the heap
// may grow by at most 8 B a queued fix; the same fixes queued through
// Ingest, as the server queued them before, cost at least 40.
func TestQueuedBlockHeap(t *testing.T) {
	e, err := New(Config{Compressor: "model-everyfix", Tolerance: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const blocks, perBlock = 2 * QueueDepth, 100
	names, trails, fixes := make([]string, 0, blocks), make([]trajstore.Trail, blocks), make([][]Fix, blocks)
	perShard := make([]int, len(e.shards))
	for n := 0; len(names) < blocks; n++ { // QueueDepth of them a shard: both queues full
		name := fmt.Sprintf("dev-%04d", n)
		if sh := trajstore.ShardIndex(name, len(e.shards)); perShard[sh] < QueueDepth {
			names = append(names, name)
			perShard[sh]++
		}
	}
	for i := range trails {
		for j := 0; j < perBlock; j++ { // ≈ 1 m steps a second: the wire's ≈ 4.5 B a fix
			k := trajstore.GeoKey{Lat: 10 + float64(i%50)*0.01 + float64(j%7)*3e-6, Lon: 20 + float64(i/50)*0.01 + float64(j)*1e-5, T: uint32(1700000000 + j)}
			if err := trails[i].Add(k); err != nil {
				t.Fatal(err)
			}
			fixes[i] = append(fixes[i], Fix{Device: names[i], Point: trajstore.PlanePoint(k)})
		}
	}
	queued := func(ingest func(i int) error) float64 {
		release := parkWorkers(t, e)
		before := heapAlloc()
		for i := range blocks {
			if err := ingest(i); err != nil {
				t.Fatalf("block %d: %v", i, err)
			}
		}
		after := heapAlloc()
		release()
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		return (float64(after) - float64(before)) / (blocks * perBlock)
	}
	asBlocks := queued(func(i int) error { return e.TryIngestTrail(names[i], &trails[i]) })
	asFixes := queued(func(i int) error { return e.Ingest(fixes[i]) })
	runtime.KeepAlive(fixes) // the caller's, before and after: only the queue's copy counts
	wire := 0
	for i := range trails {
		wire += trails[i].Size()
	}
	t.Logf("heap %.1f B per queued fix as a block (%.2f B of it the wire's), %.1f B as fixes", asBlocks, float64(wire)/(blocks*perBlock), asFixes)
	if asBlocks > 8 || asFixes < 40 {
		t.Fatalf("heap grew %.1f B per fix queued as a block, want ≤ 8 (%.1f as fixes)", asBlocks, asFixes)
	}
	if st := e.Stats(); st.Fixes != 2*blocks*perBlock || st.KeyPoints != st.Fixes || st.Rejected != 0 {
		t.Fatalf("queued fixes were not all pushed: %+v", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// nameLog is a backend that notes, per device, the string data under every
// name AppendTrail was handed.
type nameLog struct {
	trajstore.Backend
	mu    sync.Mutex
	names map[string]map[*byte]int
}

func (l *nameLog) AppendTrail(device string, t *trajstore.Trail) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.names[device] == nil {
		l.names[device] = map[*byte]int{}
	}
	l.names[device][unsafe.StringData(device)]++
	return nil
}

// TestRecordsShareSessionName: every record a session appends — chunks,
// flush cuts and its final trail, fed by Ingest and TryIngestTrail calls
// each carrying its own copy of the name — is appended under the one string
// the session was opened with, so a log's record metadata pins one name per
// device, not the name of every frame that carried a fix.
func TestRecordsShareSessionName(t *testing.T) {
	lg := &nameLog{Backend: trajstore.AppendOnly(nil), names: map[string]map[*byte]int{}}
	e, err := New(Config{Compressor: "model-everyfix", Tolerance: 1, Shards: 2, MaxTrailKeys: 3, Persister: lg})
	if err != nil {
		t.Fatal(err)
	}
	devices := []string{"bus-1", "bus-2", "bus-3"}
	for i := 0; i < 12; i++ {
		for d, dev := range devices {
			k := trajstore.GeoKey{Lat: float64(d), Lon: float64(i) * 1e-3, T: uint32(100 + i)}
			var err error
			if (i+d)%2 == 0 {
				err = e.Ingest([]Fix{{Device: strings.Clone(dev), Point: trajstore.PlanePoint(k)}})
			} else {
				var tr trajstore.Trail
				if err = tr.Add(k); err == nil {
					err = e.TryIngestTrail(strings.Clone(dev), &tr)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if i%5 == 4 {
			if err := e.FlushSessions(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, dev := range devices {
		appends := 0
		for _, n := range lg.names[dev] {
			appends += n
		}
		if len(lg.names[dev]) != 1 || appends < 4 {
			t.Fatalf("%s: %d appends under %d distinct strings, want ≥ 4 under one", dev, appends, len(lg.names[dev]))
		}
	}
}

// TestIngestOutOfRangeFix: a fix the wire format cannot carry is refused
// at the door — the call fails with trajstore.ErrRange before anything is
// enqueued and is counted in Stats.Rejected — instead of being acked,
// failing its trail's encode at flush and taking the whole engine into a
// degraded mode no Heal can leave. The poles and the antimeridian are in
// range, other devices are unaffected, and an engine with no Persister,
// which encodes nothing, takes any plane coordinates.
func TestIngestOutOfRangeFix(t *testing.T) {
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Compressor: "model-everyfix", Tolerance: 1, Shards: 2, Persister: lg})
	if err != nil {
		t.Fatal(err)
	}
	good := func(i int) Fix {
		return Fix{Device: "good", Point: core.Point{X: float64(i) * 25, Y: float64(i%2) * 30, T: float64(100 + i)}}
	}
	for i := 0; i < 3; i++ {
		if err := e.Ingest([]Fix{{Device: "good", Point: good(i).Point}}); err != nil {
			t.Fatal(err)
		}
	}
	bad := map[string]core.Point{
		"91° N":     trajstore.PlanePoint(trajstore.GeoKey{Lat: 91, T: 1}),
		"181° W":    trajstore.PlanePoint(trajstore.GeoKey{Lon: -181, T: 1}),
		"NaN":       {Y: math.NaN(), T: 1},
		"+Inf":      {X: math.Inf(1), T: 1},
		"-Inf":      {Y: math.Inf(-1), T: 1},
		"just over": {Y: math.Nextafter(trajstore.PlanePoint(trajstore.GeoKey{Lat: 90}).Y, math.Inf(1)) + 1, T: 1},
	}
	var rejected uint64
	for name, p := range bad {
		for _, batch := range [][]Fix{{good(3), {Device: "stray", Point: p}, good(4)}, {{Device: "stray", Point: p}}} {
			if err := e.Ingest(batch); !errors.Is(err, trajstore.ErrRange) {
				t.Fatalf("Ingest of %d fixes, one at %s = %v, want trajstore.ErrRange", len(batch), name, err)
			}
			rejected += uint64(len(batch))
		}
	}
	// The reproduction: five fixes at 95° N, then flush and barrier.
	north := make([]Fix, 5)
	for i := range north {
		north[i] = Fix{Device: "north", Point: core.Point{X: float64(i), Y: trajstore.PlanePoint(trajstore.GeoKey{Lat: 95}).Y, T: float64(i)}}
	}
	if err := e.Ingest(north); !errors.Is(err, trajstore.ErrRange) {
		t.Fatalf("Ingest at 95° N = %v, want trajstore.ErrRange", err)
	}
	rejected += 5
	if err := errors.Join(e.Sync(), e.Heal()); err != nil {
		t.Fatalf("Sync, Heal after the refusals = %v", err)
	}
	if st := e.Stats(); st.Rejected != rejected || st.Fixes != 3 || st.ActiveSessions != 1 {
		t.Fatalf("refused calls left a trace: %+v, want %d rejected and the good device's 3 fixes", st, rejected)
	}

	// Exactly on the range's edge is in range; the good device carries on.
	edge := []Fix{
		{Device: "pole", Point: trajstore.PlanePoint(trajstore.GeoKey{Lat: 90, Lon: 180, T: 5})},
		{Device: "pole", Point: trajstore.PlanePoint(trajstore.GeoKey{Lat: -90, Lon: -180, T: 6})},
		good(3), good(4),
	}
	if err := e.Ingest(edge); err != nil {
		t.Fatalf("Ingest at ±90°/±180° = %v", err)
	}
	if err := errors.Join(e.FlushSessions(), e.Sync()); err != nil {
		t.Fatal(err)
	}
	if st, ph := e.Stats(), e.State().Phase; ph != Healthy || st.ParkedTrails != 0 || st.PersistFailures != 0 || st.Persisted != 2 {
		t.Fatalf("phase %v, %+v: want a healthy engine with two trails persisted", ph, st)
	}
	for dev, want := range map[string]int{"good": 5, "pole": 2, "stray": 0, "north": 0} {
		recs, err := lg.Query(dev, 0, math.MaxUint32)
		if err != nil {
			t.Fatal(err)
		}
		keys := 0
		for _, r := range recs {
			keys += len(r.Keys)
		}
		if keys != want {
			t.Fatalf("%s: %d key points in the log, want %d", dev, keys, want)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	var seen int
	plain, err := New(Config{Compressor: "model-everyfix", Tolerance: 1, Shards: 1, OnKey: func(string, core.Point) { seen++ }})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(plain.Ingest([]Fix{{Device: "utm", Point: core.Point{X: 500000, Y: 9.9e6, T: 1}}}), plain.Close()); err != nil || seen != 1 {
		t.Fatalf("persister-less engine: %v, %d keys seen", err, seen)
	}
}

// TestSnappedKeysStayOnTheGlobe: the registered "fbqs" snaps key points to
// a grid, whose nearest point to a fix a metre from the antimeridian or a
// pole can lie past it. Devices driven in 60 m bands along each edge of the
// plane, cutting at nearly every fix, keep the engine healthy: every key
// the compressor reported is in the log.
func TestSnappedKeysStayOnTheGlobe(t *testing.T) {
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	reported := map[string]map[uint32]bool{}
	e, err := New(Config{Compressor: "fbqs", Tolerance: 10, Shards: 2, Persister: lg, OnKey: func(dev string, kp core.Point) {
		mu.Lock()
		defer mu.Unlock()
		if reported[dev] == nil {
			reported[dev] = map[uint32]bool{}
		}
		reported[dev][trajstore.PlaneKey(kp).T] = true
	}})
	if err != nil {
		t.Fatal(err)
	}
	edge := trajstore.PlanePoint(trajstore.GeoKey{Lat: 90, Lon: 180})
	bands := map[string]func(u, v float64) core.Point{ // u in [0, 60) metres inside the edge, v along it
		"east":  func(u, v float64) core.Point { return core.Point{X: edge.X - u, Y: v} },
		"west":  func(u, v float64) core.Point { return core.Point{X: -edge.X + u, Y: -v} },
		"north": func(u, v float64) core.Point { return core.Point{X: v, Y: edge.Y - u} },
		"south": func(u, v float64) core.Point { return core.Point{X: -v, Y: -edge.Y + u} },
		"ne":    func(u, v float64) core.Point { return core.Point{X: edge.X - u, Y: edge.Y - math.Mod(v, 60)} },
		"sw":    func(u, v float64) core.Point { return core.Point{X: -edge.X + math.Mod(v, 60), Y: -edge.Y + u} },
	}
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 600; i++ {
		batch := make([]Fix, 0, len(bands))
		for dev, at := range bands {
			p := at(rng.Float64()*60, float64(i)*7)
			p.T = float64(100 + i)
			batch = append(batch, Fix{Device: dev, Point: p})
		}
		if err := e.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := e.FlushSessions(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := errors.Join(e.FlushSessions(), e.Sync()); err != nil {
		t.Fatal(err)
	}
	if st, ph := e.Stats(), e.State().Phase; ph != Healthy || st.PersistFailures != 0 || st.ParkedTrails != 0 {
		t.Fatalf("phase %v, %+v: want a healthy engine", ph, st)
	}
	for dev := range bands {
		recs, err := lg.Query(dev, 0, math.MaxUint32)
		if err != nil {
			t.Fatal(err)
		}
		stored := map[uint32]bool{}
		for _, r := range recs {
			for _, k := range r.Keys {
				stored[k.T] = true
			}
		}
		if len(reported[dev]) < 300 || len(stored) != len(reported[dev]) {
			t.Fatalf("%s: %d keys reported, %d stored", dev, len(reported[dev]), len(stored))
		}
		for ts := range reported[dev] {
			if !stored[ts] {
				t.Fatalf("%s: the key at t=%d is not in the log", dev, ts)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestOversizedDeviceID: a device ID longer than a log record stores
// (trajstore.MaxDeviceBytes) is refused at both doors with
// trajstore.ErrDeviceID before anything is queued, its fixes counted in
// Stats.Rejected. Acked instead, its trail would fail its append at the
// flush and degrade the engine for good, parking every other device's
// trails behind it. An ID of exactly the limit is stored.
func TestIngestOversizedDeviceID(t *testing.T) {
	lg, err := segmentlog.OpenSharded(t.TempDir(), 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Compressor: "model-everyfix", Tolerance: 1, Shards: 1, Persister: lg})
	if err != nil {
		t.Fatal(err)
	}
	long, edge := strings.Repeat("d", trajstore.MaxDeviceBytes+1), strings.Repeat("e", trajstore.MaxDeviceBytes)
	fix := func(dev string, i int) Fix {
		return Fix{Device: dev, Point: core.Point{X: float64(i) * 25, Y: float64(i%2) * 30, T: float64(100 + i)}}
	}
	if err := e.Ingest([]Fix{fix("good", 0), fix(long, 1)}); !errors.Is(err, trajstore.ErrDeviceID) {
		t.Fatalf("Ingest with a %d-byte ID = %v, want trajstore.ErrDeviceID", len(long), err)
	}
	tr := wedgeTrail(t, 3)
	if err := e.TryIngestTrail(long, tr); !errors.Is(err, trajstore.ErrDeviceID) {
		t.Fatalf("TryIngestTrail with a %d-byte ID = %v, want trajstore.ErrDeviceID", len(long), err)
	}
	if err := e.Ingest([]Fix{fix("good", 0), fix(edge, 1), fix("good", 2), fix(edge, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(e.FlushSessions(), e.Sync()); err != nil {
		t.Fatalf("flush after the refusals = %v", err)
	}
	if st, ph := e.Stats(), e.State().Phase; ph != Healthy || st.Rejected != uint64(2+tr.Len()) || st.Fixes != 4 || st.Persisted != 2 {
		t.Fatalf("phase %v, %+v: want a healthy engine, %d fixes rejected and both devices' trails persisted", ph, st, 2+tr.Len())
	}
	for _, dev := range []string{"good", edge} {
		if recs, err := lg.Query(dev, 0, math.MaxUint32); err != nil || len(recs) != 1 || len(recs[0].Keys) != 2 {
			t.Fatalf("a %d-byte device holds %d records (%v), want one of 2 key points", len(dev), len(recs), err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
