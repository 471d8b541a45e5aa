package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/trajcomp/bqs/bench/tracefs"
	"github.com/trajcomp/bqs/internal/cache"
	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// traceFrame is one ingest frame of the replay, in every form a stage
// needs: the client's batches, the wire payload, and the fixes the
// server hands the engine.
type traceFrame struct {
	batches []proto.DeviceBatch
	payload []byte
	fixes   []engine.Fix
	flush   bool // the workload flushes sessions after this frame (Sync(true))
	barrier bool // the workload runs a durability barrier after this frame
}

// traceInput is the replay: the workload's own generated frames (preload
// first, then the writer connections interleaved) cut at traceFixes,
// plus its query list.
type traceInput struct {
	sp     *spec
	frames []traceFrame
	fixes  int
	qs     []query
}

func cloneBatches(b []proto.DeviceBatch) []proto.DeviceBatch {
	out := make([]proto.DeviceBatch, len(b))
	for i, d := range b {
		out[i] = proto.DeviceBatch{Device: d.Device, Keys: append([]trajstore.GeoKey(nil), d.Keys...)}
	}
	return out
}

// toFix is the server's conversion of one wire key, verbatim.
func toFix(device string, k trajstore.GeoKey) engine.Fix {
	return engine.Fix{Device: device, Point: core.Point{X: k.Lon * metresPerDeg, Y: k.Lat * metresPerDeg, T: float64(k.T)}}
}

func newTraceInput(sp *spec, gen *inputs, z sizes) *traceInput {
	in := &traceInput{sp: sp, qs: gen.qs}
	add := func(b []proto.DeviceBatch) bool {
		f := traceFrame{batches: cloneBatches(b)}
		for _, d := range f.batches {
			for _, k := range d.Keys {
				f.fixes = append(f.fixes, toFix(d.Device, k))
			}
		}
		in.frames = append(in.frames, f)
		in.fixes += len(f.fixes)
		return in.fixes < z.traceFixes
	}
	more := true
	if gen.pre != nil {
		g, n := gen.preloadFrames(sp.preload.fixes)
		for j := 0; j < n && more; j++ {
			more = add(g.fill(j))
		}
		last := &in.frames[len(in.frames)-1]
		last.flush, last.barrier = true, true
	}
	for j := 0; j < z.framesPerConn && more; j++ {
		for c := 0; c < sp.conns && more; c++ {
			more = add(gen.gens[c].fill(j))
			if (j+1)%z.syncEvery == 0 {
				last := &in.frames[len(in.frames)-1]
				last.barrier, last.flush = true, sp.syncFlush
			}
		}
	}
	return in
}

func (sp *spec) logOptions(fs *tracefs.FS, cache bool) segmentlog.Options {
	o := segmentlog.Options{MaxSegmentBytes: sp.segBytes}
	if fs != nil {
		o.FS = fs
	}
	if sp.compactEvery > 0 {
		o.Compaction = &segmentlog.CompactionPolicy{MergeChunks: true}
	}
	if cache {
		o.CacheBytes = sp.cacheMB << 20
	}
	return o
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// enginePass is one in-process run of the workload's ingest through the
// engine with one shard, so the worker's time is not hidden behind a
// second worker.
type enginePass struct {
	wall         time.Duration // first frame → barrier; with a persister also the final flush, barrier and (when configured) the drain-time compaction
	queryWall    time.Duration
	queries      int
	syncMs       []float64
	flushMs      float64
	allocsPerFix float64
	bytesPerSess float64
	windowUs     []float64 // Engine.QueryWindow, live ∪ durable
	spans        []span
}

// runEngine drives the engine over the replay. persist attaches an
// OpenSharded log; parse decodes every frame from its wire payload
// first, as the server does; tr records spans around every call and
// routes the log's filesystem traffic through tracefs.
func runEngine(in *traceInput, dir string, persist, parse bool, tr *tracer) (*enginePass, error) {
	sp := in.sp
	cfg := engine.Config{Compressor: compressor, Tolerance: tolerance, Shards: 1, MaxTrailKeys: sp.trail}
	var lg *segmentlog.ShardedLog
	if persist {
		var fs *tracefs.FS
		if tr != nil {
			fs = traceFS(tr)
			tr.detached = true
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		var err error
		if lg, err = segmentlog.OpenSharded(dir, 1, sp.logOptions(fs, true)); err != nil {
			return nil, err
		}
		cfg.Persister = lg
	}
	before := heapAlloc()
	eng, err := engine.New(cfg)
	if err != nil {
		if lg != nil {
			_ = lg.Close() // nothing was appended
		}
		return nil, err
	}
	p := &enginePass{}
	fail := func(err error) (*enginePass, error) {
		_ = eng.Close() // the pass already failed; its error is the one to report
		return nil, err
	}
	m0 := mallocs()
	var fixes []engine.Fix
	root := tr.begin("assembled")
	start := time.Now()
	for i := range in.frames {
		f := &in.frames[i]
		tr.nextReq()
		src := f.fixes
		if parse {
			s := tr.begin("proto.parse")
			m, err := proto.ParseIngest(f.payload)
			tr.end(s)
			if err != nil {
				return fail(err)
			}
			fixes = fixes[:0]
			for _, b := range m.Batches {
				for _, k := range b.Keys {
					fixes = append(fixes, toFix(b.Device, k))
				}
			}
			src = fixes
		}
		s := tr.begin("engine.ingest")
		err := eng.Ingest(src)
		tr.end(s)
		if err != nil {
			return fail(err)
		}
		if f.flush {
			s := tr.begin("engine.flush")
			err := eng.FlushSessions()
			tr.end(s)
			if err != nil {
				return fail(err)
			}
		}
		if f.barrier {
			t0 := time.Now()
			s := tr.begin("engine.sync")
			err := eng.Sync()
			tr.end(s)
			if err != nil {
				return fail(err)
			}
			p.syncMs = append(p.syncMs, float64(time.Since(t0))/1e6)
		}
	}
	if !persist {
		// Sessions are still open: the heap now holds them and the live
		// store, which is what bounds the daemon's memory.
		if err := eng.Sync(); err != nil {
			return fail(err)
		}
		p.wall = time.Since(start)
		p.allocsPerFix = float64(mallocs()-m0) / float64(in.fixes)
		if n := eng.Stats().ActiveSessions; n > 0 {
			p.bytesPerSess = math.Max(float64(heapAlloc())-float64(before), 0) / float64(n)
		}
	}
	t0 := time.Now()
	s := tr.begin("engine.flush")
	err = eng.FlushSessions()
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	p.flushMs = float64(time.Since(t0)) / 1e6
	s = tr.begin("engine.sync")
	err = eng.Sync()
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	if persist && sp.compactEvery > 0 {
		// The daemon's drain compacts; so does the assembled pass.
		s = tr.begin("segmentlog.compact")
		err = eng.CompactNow()
		tr.end(s)
		if err != nil {
			return fail(err)
		}
	}
	if persist {
		p.wall = time.Since(start)
	}

	if persist {
		var out []byte
		qstart := time.Now()
		for _, q := range in.qs[:min(len(in.qs), ledgerQueries)] {
			tr.nextReq()
			var recs []segmentlog.Record
			if q.kind == qDev {
				s := tr.begin("segmentlog.query_dev")
				recs, err = lg.Query(q.device, q.t0, q.t1)
				tr.end(s)
			} else {
				s := tr.begin("segmentlog.window")
				recs, err = lg.QueryWindow(q.minLon, q.minLat, q.maxLon, q.maxLat, q.t0, q.t1)
				tr.end(s)
			}
			if err != nil {
				return fail(err)
			}
			s := tr.begin("proto.resp_encode")
			out, err = proto.AppendQueryResp(out[:0], proto.QueryResp{Seq: 1, Records: recs})
			tr.end(s)
			if err != nil {
				return fail(err)
			}
			p.queries++
		}
		p.queryWall = time.Since(qstart)
		if tr == nil {
			for _, q := range in.qs {
				if q.kind != qSel || len(p.windowUs) >= 200 {
					continue
				}
				t0 := time.Now()
				if _, err := eng.QueryWindow(q.minLon*metresPerDeg, q.minLat*metresPerDeg, q.maxLon*metresPerDeg, q.maxLat*metresPerDeg, q.t0, q.t1); err != nil {
					return fail(err)
				}
				p.windowUs = append(p.windowUs, float64(time.Since(t0))/1e3)
			}
		}
	}
	tr.end(root)
	if err := eng.Close(); err != nil {
		return nil, err
	}
	if tr != nil {
		p.spans = tr.spans
	}
	return p, nil
}

// stagedRecord is one trail the engine persisted, captured from its
// Persister and carried to the store, codec and log stages.
type stagedRecord struct {
	device  string
	geo     []trajstore.GeoKey // what the engine appended
	keys    []core.Point       // the same trail on the metric plane: the store's and the codec's input
	payload []byte
}

// recorder is the trajstore.Persister of the capture pass: it keeps
// every trail the engine appends under the frame being ingested.
type recorder struct {
	frames [][]*stagedRecord
	cur    int // written by the driver between barriers only
}

func (r *recorder) Append(device string, geo []trajstore.GeoKey) error {
	keys := make([]core.Point, len(geo))
	for i, k := range geo {
		keys[i] = toFix(device, k).Point
	}
	// The engine allocates geo per trail, so keeping it aliases nothing.
	r.frames[r.cur] = append(r.frames[r.cur], &stagedRecord{device: device, geo: geo, keys: keys})
	return nil
}

func (r *recorder) Sync() error  { return nil }
func (r *recorder) Close() error { return nil }

// captureRecords runs the replay through the real engine (the
// workload's trail length, one shard) on a recording persister and
// returns, per frame, the trails that frame made the engine persist —
// chunking, overlap and flush rules are the engine's own. A barrier
// after every frame pins each trail to its frame; the final flush lands
// on the last one.
func captureRecords(in *traceInput) ([][]*stagedRecord, error) {
	rec := &recorder{frames: make([][]*stagedRecord, len(in.frames))}
	eng, err := engine.New(engine.Config{Compressor: compressor, Tolerance: tolerance, Shards: 1,
		MaxTrailKeys: in.sp.trail, Persister: rec})
	if err != nil {
		return nil, err
	}
	for i := range in.frames {
		f := &in.frames[i]
		rec.cur = i
		err := eng.Ingest(f.fixes)
		if err == nil && f.flush {
			err = eng.FlushSessions()
		}
		if err == nil {
			err = eng.Sync()
		}
		if err != nil {
			_ = eng.Close() // the pass already failed; its error is the one to report
			return nil, err
		}
	}
	if err := eng.FlushSessions(); err != nil {
		_ = eng.Close() // as above
		return nil, err
	}
	if err := eng.Close(); err != nil { // drains the worker, so every trail has been appended
		return nil, err
	}
	return rec.frames, nil
}

// runStaged calls each layer alone, on this goroutine, with the
// recorded output of the previous stage, so every vfs.* span nests
// under the segmentlog.* span that caused it. It fills the per-layer
// metrics and returns the spans.
func runStaged(in *traceInput, dir string, tr *tracer, l map[string]metric) error {
	sp := in.sp
	nFix, nFrames := float64(in.fixes), float64(len(in.frames))
	stageSelf := func(from int) map[string]int64 { return selfByName(tr.spans[from:], 0) }

	// First, so that the capture engine and its store are long collected
	// when stage 2 measures the heap a store of its own adds.
	staged, err := captureRecords(in)
	if err != nil {
		return fmt.Errorf("capture pass: %w", err)
	}

	// Stage 0: proto. Encode is the generator's cost; parse the server's.
	mark := len(tr.spans)
	var wire int
	for i := range in.frames {
		f := &in.frames[i]
		tr.nextReq()
		s := tr.begin("proto.encode")
		p, err := proto.AppendIngest(nil, proto.Ingest{Seq: uint64(i + 1), Batches: f.batches})
		tr.end(s)
		if err != nil {
			return err
		}
		f.payload = p
		wire += len(p) + 5 // length prefix and type byte
	}
	m0 := mallocs()
	for i := range in.frames {
		tr.nextReq()
		s := tr.begin("proto.parse")
		_, err := proto.ParseIngest(in.frames[i].payload)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	parseAllocs := float64(mallocs() - m0)
	self := stageSelf(mark)
	l["proto.encode_ns_per_fix"] = metric{float64(self["proto.encode"]) / nFix, "ns/fix"}
	l["proto.parse_ns_per_fix"] = metric{float64(self["proto.parse"]) / nFix, "ns/fix"}
	l["proto.parse_ns_per_frame"] = metric{float64(self["proto.parse"]) / nFrames, "ns/frame"}
	l["proto.wire_bytes_per_fix"] = metric{float64(wire) / nFix, "B/fix"}
	l["proto.parse_allocs_per_frame"] = metric{parseAllocs / nFrames, "count"}

	// Stage 1: core, through stream.New — one compressor per device, a
	// span per device batch. The trails the later stages work on are the
	// engine's own (captureRecords), not rebuilt from these key points.
	comps := map[string]stream.Compressor{}
	for i := range in.frames {
		f := &in.frames[i]
		tr.nextReq()
		off := 0
		for _, b := range f.batches {
			c := comps[b.Device]
			if c == nil {
				if c, err = stream.New(compressor, tolerance); err != nil {
					return err
				}
				comps[b.Device] = c
			}
			sid := tr.begin("core.push")
			for _, fx := range f.fixes[off : off+len(b.Keys)] {
				c.Push(fx.Point)
			}
			tr.end(sid)
			off += len(b.Keys)
		}
	}
	// Push costs tens of nanoseconds and a gateway batch is one fix, so a
	// span per batch would mostly time the span. The core figures come
	// from a bare loop — one compressor per device, nothing else in it —
	// and the core.push spans stay in the trace file for the nesting.
	exact, _, err := pushBare(in, "bqs")
	if err != nil {
		return err
	}
	l["core.push_exact_ns_per_fix"] = metric{exact, "ns/fix"}
	fast, allocs, err := pushBare(in, compressor)
	if err != nil {
		return err
	}
	l["core.push_ns_per_fix"] = metric{fast, "ns/fix"}
	l["core.allocs_per_fix"] = metric{allocs, "count"}

	// Stage 2: trajstore — the live store's insert and the trail codec.
	mark = len(tr.spans)
	before := heapAlloc()
	store, err := trajstore.NewStore(trajstore.Config{})
	if err != nil {
		return err
	}
	// Consecutive trails of a session share their boundary key, so the
	// key-point pairs inside the trails are exactly the segments the
	// engine inserted.
	var pairs, recKeys, payloadBytes int
	for _, recs := range staged {
		if len(recs) == 0 {
			continue
		}
		tr.nextReq()
		s := tr.begin("trajstore.insert")
		for _, r := range recs {
			for k := 0; k+1 < len(r.keys); k++ {
				store.Insert(r.keys[k], r.keys[k+1])
			}
			pairs += max(len(r.keys)-1, 0)
		}
		tr.end(s)
	}
	storeBytes := math.Max(float64(heapAlloc())-float64(before), 0)
	inserted, merged := store.Stats()
	runtime.KeepAlive(store)
	var records []*stagedRecord
	for _, recs := range staged {
		if len(recs) == 0 {
			continue
		}
		tr.nextReq()
		s := tr.begin("trajstore.encode")
		for _, r := range recs {
			geo := trajstore.PointKeysToGeo(r.keys, metresPerDeg, metresPerDeg)
			if r.payload, err = trajstore.DeltaEncode(geo); err != nil {
				break
			}
		}
		tr.end(s)
		if err != nil {
			return err
		}
		for _, r := range recs {
			recKeys += len(r.keys)
			payloadBytes += len(r.payload)
			records = append(records, r)
		}
	}
	self = stageSelf(mark)
	l["trajstore.insert_ns_per_key"] = metric{div(float64(self["trajstore.insert"]), float64(pairs)), "ns/key"}
	l["trajstore.store_bytes_per_key"] = metric{div(storeBytes, float64(pairs)), "B/key"}
	l["trajstore.merged_share"] = metric{div(float64(merged), float64(inserted)), "ratio"}
	l["trajstore.encode_ns_per_key"] = metric{div(float64(self["trajstore.encode"]), float64(recKeys)), "ns/key"}
	l["trajstore.wire_bytes_per_key"] = metric{div(float64(payloadBytes), float64(recKeys)), "B/key"}

	// Stage 3: segmentlog through OpenSharded, on the traced filesystem.
	mark = len(tr.spans)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	fs := traceFS(tr)
	lg, err := segmentlog.OpenSharded(dir, shards, sp.logOptions(fs, false))
	if err != nil {
		return err
	}
	var syncMs []float64
	fsyncsInSync := int64(0)
	syncNow := func() error {
		n0 := fs.Tally(tracefs.FileSync).Calls
		t0 := time.Now()
		s := tr.begin("segmentlog.sync")
		err := lg.Sync()
		tr.end(s)
		syncMs = append(syncMs, float64(time.Since(t0))/1e6)
		fsyncsInSync += fs.Tally(tracefs.FileSync).Calls - n0
		return err
	}
	var appendNs int64
	for i := range staged {
		tr.nextReq()
		if len(staged[i]) > 0 {
			t0 := time.Now()
			s := tr.begin("segmentlog.append")
			for _, r := range staged[i] {
				if err = lg.Append(r.device, r.geo); err != nil {
					break
				}
			}
			tr.end(s)
			appendNs += int64(time.Since(t0))
			if err != nil {
				_ = lg.Close() // the append error is the one to report
				return err
			}
		}
		if in.frames[i].barrier || i == len(staged)-1 {
			if err := syncNow(); err != nil {
				_ = lg.Close() // the sync error is the one to report
				return err
			}
		}
	}
	st := lg.Stats()
	rotations := st.Segments - lg.NumShards()
	s := tr.begin("segmentlog.compact")
	t0 := time.Now()
	cres, err := lg.Compact(segmentlog.CompactionPolicy{MergeChunks: true})
	compactS := time.Since(t0).Seconds()
	tr.end(s)
	if err != nil {
		_ = lg.Close() // the compaction error is the one to report
		return err
	}
	diskBytes := lg.Stats().Bytes
	if err := lg.Close(); err != nil {
		return err
	}
	ingestSelf := stageSelf(mark)
	written := fs.Tally(tracefs.FileWrite).Bytes + fs.Tally(tracefs.FileWriteAt).Bytes
	l["segmentlog.append_ns_per_record"] = metric{div(float64(appendNs), float64(len(records))), "ns/record"}
	l["segmentlog.append_ns_per_key"] = metric{div(float64(appendNs), float64(recKeys)), "ns/key"}
	l["segmentlog.sync_ms_p50"] = metric{median(syncMs), "ms"}
	p99, _ := tail(syncMs, 0.99)
	l["segmentlog.sync_ms_p99"] = metric{p99, "ms"}
	l["segmentlog.rotations"] = metric{float64(rotations), "count"}
	l["segmentlog.compact_s"] = metric{compactS, "s"}
	l["segmentlog.compact_mb_per_s"] = metric{float64(cres.BytesIn) / 1e6 / compactS, "MB/s"}
	l["segmentlog.compact_bytes_ratio"] = metric{div(float64(cres.BytesOut), float64(cres.BytesIn)), "ratio"}
	l["segmentlog.compact_merged"] = metric{float64(cres.Merged), "count"}
	l["segmentlog.disk_bytes_per_key"] = metric{div(float64(diskBytes), float64(recKeys)), "B/key"}
	l["segmentlog.write_amp"] = metric{div(float64(written), float64(payloadBytes)), "ratio"}
	fsync := fs.Tally(tracefs.FileSync)
	l["vfs.writes"] = metric{float64(fs.Tally(tracefs.FileWrite).Calls + fs.Tally(tracefs.FileWriteAt).Calls), "count"}
	l["vfs.write_bytes"] = metric{float64(written), "B"}
	l["vfs.fsyncs"] = metric{float64(fsync.Calls), "count"}
	l["vfs.fsyncs_per_sync"] = metric{div(float64(fsyncsInSync), float64(len(syncMs))), "count"}
	var fsyncMs []float64
	var stageNs int64
	for _, x := range tr.spans[mark:] {
		if x.Name == "vfs.fsync" {
			fsyncMs = append(fsyncMs, float64(x.End-x.Start)/1e6)
		}
		if x.Parent < 0 {
			stageNs += x.End - x.Start
		}
	}
	l["vfs.fsync_ms_p50"] = metric{(median(fsyncMs)), "ms"}
	l["vfs.fsync_time_share"] = metric{div(float64(ingestSelf["vfs.fsync"]), float64(stageNs)), "ratio"}

	// Reopen: what a restart pays before the first query.
	mark = len(tr.spans)
	tr.nextReq()
	s = tr.begin("segmentlog.open")
	t0 = time.Now()
	lg, err = segmentlog.OpenSharded(dir, shards, sp.logOptions(fs, true))
	l["segmentlog.open_ms"] = metric{float64(time.Since(t0)) / 1e6, "ms"}
	tr.end(s)
	if err != nil {
		return err
	}
	defer lg.Close() // read-only from here on
	l["vfs.renames"] = metric{float64(fs.Tally(tracefs.FSRename).Calls), "count"}
	l["vfs.opens"] = metric{float64(fs.Tally(tracefs.FSOpen).Calls + fs.Tally(tracefs.FSOpenFile).Calls), "count"}

	// Stage 4: queries. Each distinct query runs twice back to back:
	// the first pass finds the record cache (if the workload has one)
	// empty or evicted, the second finds it as warm as its budget
	// allows.
	reads0 := fs.Tally(tracefs.FileReadAt)
	byKind := [numQueryKinds][]query{}
	seen := map[query]bool{}
	for _, q := range in.qs {
		if !seen[q] && len(byKind[q.kind]) < 200 {
			seen[q] = true
			byKind[q.kind] = append(byKind[q.kind], q)
		}
	}
	var ws segmentlog.WindowStats
	var results [][]segmentlog.Record
	var nQueries, keysReturned int
	window := func(q query, agg bool) (float64, error) {
		tr.nextReq()
		t0 := time.Now()
		s := tr.begin("segmentlog.window")
		recs, w, err := lg.QueryWindowStats(q.minLon, q.minLat, q.maxLon, q.maxLat, q.t0, q.t1)
		tr.end(s)
		us := float64(time.Since(t0)) / 1e3
		if agg {
			ws.Segments += w.Segments
			ws.SegmentsPruned += w.SegmentsPruned
			ws.RecordsIndexed += w.RecordsIndexed
			ws.RecordsPruned += w.RecordsPruned
			ws.RecordsDecoded += w.RecordsDecoded
			results = append(results, recs)
		}
		return us, err
	}
	var cold, warm [numQueryKinds][]float64
	for _, kind := range []int{qSel, qFull} {
		for _, q := range byKind[kind] {
			us, err := window(q, kind == qSel)
			if err != nil {
				return err
			}
			cold[kind] = append(cold[kind], us)
		}
		for _, q := range byKind[kind] {
			us, err := window(q, false)
			if err != nil {
				return err
			}
			warm[kind] = append(warm[kind], us)
		}
	}
	var devUs []float64
	for _, q := range byKind[qDev] {
		tr.nextReq()
		t0 := time.Now()
		s := tr.begin("segmentlog.query_dev")
		recs, err := lg.Query(q.device, q.t0, q.t1)
		tr.end(s)
		if err != nil {
			return err
		}
		devUs = append(devUs, float64(time.Since(t0))/1e3)
		_ = recs
	}
	l["segmentlog.window_sel_cold_us"] = metric{(median(cold[qSel])), "us"}
	l["segmentlog.window_sel_warm_us"] = metric{(median(warm[qSel])), "us"}
	l["segmentlog.window_full_cold_us"] = metric{(median(cold[qFull])), "us"}
	l["segmentlog.window_full_warm_us"] = metric{(median(warm[qFull])), "us"}
	l["segmentlog.query_dev_us"] = metric{(median(devUs)), "us"}
	l["segmentlog.decode_fraction"] = metric{div(float64(ws.RecordsDecoded), float64(ws.RecordsIndexed)), "ratio"}
	l["segmentlog.records_pruned_share"] = metric{div(float64(ws.RecordsPruned), float64(ws.RecordsIndexed)), "ratio"}
	l["segmentlog.segments_pruned_share"] = metric{div(float64(ws.SegmentsPruned), float64(ws.Segments)), "ratio"}
	reads1 := fs.Tally(tracefs.FileReadAt)
	l["vfs.readats"] = metric{float64(reads1.Calls - reads0.Calls), "count"}
	l["vfs.read_bytes"] = metric{float64(reads1.Bytes - reads0.Bytes), "B"}

	// The response codec on what the selective windows returned.
	mark = len(tr.spans)
	var respRecs int
	var out []byte
	var parseNs int64
	for _, recs := range results {
		tr.nextReq()
		s := tr.begin("proto.resp_encode")
		out, err = proto.AppendQueryResp(out[:0], proto.QueryResp{Seq: 1, Records: recs})
		tr.end(s)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := proto.ParseQueryResp(out); err != nil {
			return err
		}
		parseNs += int64(time.Since(t0))
		respRecs += len(recs)
	}
	l["proto.resp_encode_ns_per_record"] = metric{div(float64(stageSelf(mark)["proto.resp_encode"]), float64(respRecs)), "ns/record"}
	l["proto.resp_parse_ns_per_record"] = metric{div(float64(parseNs), float64(respRecs)), "ns/record"}

	// The query ledger replays the head of the workload's own query
	// mix, in order — the same queries the assembled pass answers.
	mark = len(tr.spans)
	for _, q := range in.qs[:min(len(in.qs), ledgerQueries)] {
		tr.nextReq()
		var recs []segmentlog.Record
		if q.kind == qDev {
			s := tr.begin("segmentlog.query_dev")
			recs, err = lg.Query(q.device, q.t0, q.t1)
			tr.end(s)
		} else {
			s := tr.begin("segmentlog.window")
			recs, err = lg.QueryWindow(q.minLon, q.minLat, q.maxLon, q.maxLat, q.t0, q.t1)
			tr.end(s)
		}
		if err != nil {
			return err
		}
		s := tr.begin("proto.resp_encode")
		out, err = proto.AppendQueryResp(out[:0], proto.QueryResp{Seq: 1, Records: recs})
		tr.end(s)
		if err != nil {
			return err
		}
		nQueries++
		for _, r := range recs {
			keysReturned += len(r.Keys)
		}
	}
	querySelf := stageSelf(mark)

	// The trail decoder alone, over every payload written above.
	mark = len(tr.spans)
	for i := 0; i < len(records); i += 256 {
		s := tr.begin("trajstore.decode")
		for _, r := range records[i:min(i+256, len(records))] {
			if _, err = trajstore.DeltaDecode(r.payload); err != nil {
				break
			}
		}
		tr.end(s)
		if err != nil {
			return err
		}
	}
	decodeNsPerKey := div(float64(stageSelf(mark)["trajstore.decode"]), float64(recKeys))
	l["trajstore.decode_ns_per_key"] = metric{decodeNsPerKey, "ns/key"}

	// Stage 5: the cache alone, with record-sized values.
	getNs, putNs := cacheBare(recKeys / max(len(records), 1))
	l["cache.get_ns"] = metric{getNs, "ns"}
	l["cache.put_ns"] = metric{putNs, "ns"}

	// Ledger rows. Ingest rows are ns per replayed fix; query rows are
	// µs per query of stage 4. The decoder runs inside the segment log's
	// query calls, so its row is carved out of theirs at the stand-alone
	// rate for the key points returned (an estimate, capped).
	l["ledger.ingest.core.push"] = l["core.push_ns_per_fix"]
	allSelf := selfByName(tr.spans, 0)
	for _, row := range []string{"proto.parse", "trajstore.insert", "trajstore.encode"} {
		l["ledger.ingest."+row] = metric{float64(allSelf[row]) / nFix, "ns/fix"}
	}
	for _, row := range []string{"segmentlog.append", "segmentlog.sync", "segmentlog.compact", "vfs.write", "vfs.fsync", "vfs.rename", "vfs.readat", "vfs.open", "vfs.other"} {
		l["ledger.ingest."+row] = metric{float64(ingestSelf[row]) / nFix, "ns/fix"}
	}
	nq := float64(max(nQueries, 1))
	segSelf := float64(querySelf["segmentlog.window"] + querySelf["segmentlog.query_dev"])
	decodeNs := math.Min(decodeNsPerKey*float64(keysReturned), segSelf)
	scale := 1 - div(decodeNs, segSelf)
	l["ledger.query.segmentlog.window"] = metric{float64(querySelf["segmentlog.window"]) * scale / 1e3 / nq, "us/query"}
	l["ledger.query.segmentlog.query_dev"] = metric{float64(querySelf["segmentlog.query_dev"]) * scale / 1e3 / nq, "us/query"}
	l["ledger.query.trajstore.decode"] = metric{decodeNs / 1e3 / nq, "us/query"}
	l["ledger.query.proto.resp_encode"] = metric{float64(querySelf["proto.resp_encode"]) / 1e3 / nq, "us/query"}
	for _, row := range []string{"vfs.readat", "vfs.open", "vfs.other"} {
		l["ledger.query."+row] = metric{float64(querySelf[row]) / 1e3 / nq, "us/query"}
	}
	return nil
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pushBare times the named compressor over the replay with nothing in
// the loop but Push, one compressor per device, and counts heap
// allocations per fix once every compressor exists.
func pushBare(in *traceInput, name string) (nsPerFix, allocsPerFix float64, err error) {
	comps := map[string]stream.Compressor{}
	for i := range in.frames {
		for _, b := range in.frames[i].batches {
			if comps[b.Device] == nil {
				if comps[b.Device], err = stream.New(name, tolerance); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	var sink core.Point
	m0 := mallocs()
	t0 := time.Now()
	for i := range in.frames {
		f := &in.frames[i]
		off := 0
		for _, b := range f.batches {
			c := comps[b.Device]
			for _, fx := range f.fixes[off : off+len(b.Keys)] {
				if kp, ok := c.Push(fx.Point); ok {
					sink = kp
				}
			}
			off += len(b.Keys)
		}
	}
	ns := float64(time.Since(t0))
	allocs := float64(mallocs() - m0)
	runtime.KeepAlive(sink)
	return ns / float64(in.fixes), allocs / float64(in.fixes), nil
}

// cacheBare drives cache.New directly with values the size of the
// workload's records: a working set four times the budget, so puts
// evict and gets both hit and miss.
func cacheBare(keysPerRecord int) (getNs, putNs float64) {
	keysPerRecord = max(keysPerRecord, 2)
	val := make([]trajstore.GeoKey, keysPerRecord)
	size := func(_ uint64, v []trajstore.GeoKey) int64 { return int64(24*len(v)) + 96 }
	const entries = 1 << 14
	c := cache.New[uint64, []trajstore.GeoKey](size(0, val)*entries/4, size)
	t0 := time.Now()
	for i := uint64(0); i < entries; i++ {
		c.Put(i, val)
	}
	putNs = float64(time.Since(t0)) / entries
	t0 = time.Now()
	for i := uint64(0); i < entries; i++ {
		c.Get(i)
	}
	getNs = float64(time.Since(t0)) / entries
	return getNs, putNs
}

// ledgerQueries is how many queries, from the head of the workload's
// mix, the assembled pass and the query ledger both answer.
const ledgerQueries = 400

// ledgerGroups are the layers the interaction predictions speak of.
var ledgerGroups = []string{"proto", "engine", "core", "trajstore", "segmentlog", "vfs"}

// runTraced is the whole -trace replay for one workload: engine passes
// (bare, persisting, assembled untraced, assembled traced), the staged
// pass, the ledger, and the span file.
func runTraced(e *env, sp *spec, seed int64, gen *inputs, z sizes, res *result) error {
	l := res.Layer
	in := newTraceInput(sp, gen, z)
	dir := filepath.Join(e.out, fmt.Sprintf("trace-%s-%d-%d", sp.name, seed, os.Getpid()))
	defer os.RemoveAll(dir)
	res.Sizes["trace_fixes"] = in.fixes
	res.Sizes["trace_frames"] = len(in.frames)

	staged := newTracer()
	if err := runStaged(in, filepath.Join(dir, "staged"), staged, l); err != nil {
		return fmt.Errorf("staged pass: %w", err)
	}

	nFix := float64(in.fixes)
	bare, err := runEngine(in, "", false, false, nil)
	if err != nil {
		return fmt.Errorf("engine pass: %w", err)
	}
	pers, err := runEngine(in, filepath.Join(dir, "persist"), true, false, nil)
	if err != nil {
		return fmt.Errorf("engine pass with persister: %w", err)
	}
	// The assembled pass runs twice untraced and twice traced,
	// alternating, and the faster of each pair is kept: one slow fsync
	// is a larger share of a one-second pass than the tracing is.
	var plain, traced *enginePass
	for i := 0; i < 2; i++ {
		p, err := runEngine(in, filepath.Join(dir, "assembled"), true, true, nil)
		if err != nil {
			return fmt.Errorf("assembled pass: %w", err)
		}
		if plain == nil || p.wall < plain.wall {
			plain = p
		}
		t, err := runEngine(in, filepath.Join(dir, "assembled"), true, true, newTracer())
		if err != nil {
			return fmt.Errorf("traced assembled pass: %w", err)
		}
		if traced == nil || t.wall < traced.wall {
			traced = t
		}
	}

	l["engine.ingest_ns_per_fix"] = metric{float64(bare.wall) / nFix, "ns/fix"}
	l["engine.ingest_persist_ns_per_fix"] = metric{float64(pers.wall) / nFix, "ns/fix"}
	overhead := float64(bare.wall)/nFix - l["core.push_ns_per_fix"].Value -
		l["ledger.ingest.trajstore.insert"].Value
	l["engine.overhead_ns_per_fix"] = metric{overhead, "ns/fix"}
	l["engine.sync_ms_p50"] = metric{(median(pers.syncMs)), "ms"}
	l["engine.flush_ms"] = metric{pers.flushMs, "ms"}
	l["engine.allocs_per_fix"] = metric{bare.allocsPerFix, "count"}
	l["engine.bytes_per_session"] = metric{bare.bytesPerSess, "B"}
	l["engine.query_window_us"] = metric{(median(plain.windowUs)), "us"}
	l["ledger.ingest.engine.overhead"] = metric{overhead, "ns/fix"}
	l["trace.overhead_share"] = metric{float64(traced.wall-plain.wall) / float64(plain.wall), "ratio"}
	l["ledger.assembled_ns_per_fix"] = metric{float64(plain.wall) / nFix, "ns/fix"}
	l["ledger.assembled_us_per_query"] = metric{div(float64(plain.queryWall)/1e3, float64(plain.queries)), "us/query"}

	// Shares of the attributed ledger per layer, on the ledger that is
	// the workload's business: queries where they run beside the
	// writer, ingest elsewhere.
	prefix, total := "ledger.ingest.", l["ledger.assembled_ns_per_fix"].Value
	if sp.concurrent {
		prefix, total = "ledger.query.", l["ledger.assembled_us_per_query"].Value
	}
	group := map[string]float64{}
	var sum float64
	for name, m := range l {
		if row, ok := strings.CutPrefix(name, prefix); ok {
			if !sp.concurrent && sp.compactEvery == 0 && row == "segmentlog.compact" {
				continue // the staged pass compacts for its own metrics; this workload's daemon never does
			}
			for _, g := range ledgerGroups {
				if strings.HasPrefix(row, g+".") {
					group[g] += m.Value
					sum += m.Value
				}
			}
		}
	}
	for _, g := range ledgerGroups {
		l["ledger.share."+g] = metric{div(group[g], sum), "ratio"}
	}
	l["ledger.unattributed_share"] = metric{1 - div(sum, total), "ratio"}

	// The span file: both passes, with the identity the self times obey.
	selfSum := int64(0)
	for _, ns := range selfByName(traced.spans, 0) {
		selfSum += ns
	}
	var rootNs int64
	for _, x := range traced.spans {
		if x.Name == "assembled" {
			rootNs = x.End - x.Start
		}
	}
	res.check(math.Abs(float64(selfSum-rootNs)) <= 0.01*float64(rootNs),
		"assembled spans: self times sum to %d ns, the pass took %d ns", selfSum, rootNs)
	tf := traceFile{Workload: sp.name, Seed: seed, Host: res.Host,
		Passes: map[string][]span{"assembled": traced.spans, "staged": staged.spans}}
	return writeJSON(filepath.Join(e.out, "trace-"+sp.name+".json"), tf)
}
