package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Shutdown() })
	return s, ln.Addr().String()
}

// quant snaps a degree coordinate to the wire format's 1e-7 grid, so a
// key fed to the direct engine matches what the server decodes.
func quant(v float64) float64 { return math.Round(v*1e7) / 1e7 }

// track builds a zigzag device trajectory — ~550 m forward per fix
// with a ~400 m lateral flip — so at small tolerances every fix is a
// key point (a straight line would compress to its endpoints and never
// grow a persistable trail). The device index offsets the path so
// devices do not overlap.
func track(dev, n int) []trajstore.GeoKey {
	keys := make([]trajstore.GeoKey, n)
	base := float64(dev) * 0.1
	for i := range keys {
		keys[i] = trajstore.GeoKey{
			Lat: quant(base + float64(i%2)*0.004),
			Lon: quant(base + float64(i)*0.0055),
			T:   1000 + uint32(i)*30,
		}
	}
	return keys
}

// toFixes converts wire keys to engine fixes exactly as the server
// does.
func toFixes(device string, keys []trajstore.GeoKey) []engine.Fix {
	fixes := make([]engine.Fix, len(keys))
	for i, k := range keys {
		fixes[i] = engine.Fix{Device: device, Point: trajstore.PlanePoint(k)}
	}
	return fixes
}

// TestLoopbackDifferential is the acceptance test: fixes streamed
// through the server must land in the tenant's segment log byte-
// identical — at wire resolution — to the same fixes pushed through
// Engine.Ingest directly.
func TestLoopbackDifferential(t *testing.T) {
	ecfg := engine.Config{Tolerance: 2, Shards: 2, MaxTrailKeys: 16}
	_, addr := startServer(t, Config{Dir: t.TempDir(), Engine: ecfg})
	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const devices, perDevice, chunks = 6, 120, 3
	tracks := make([][]trajstore.GeoKey, devices)
	for d := range tracks {
		tracks[d] = track(d, perDevice)
	}

	// Direct path: same engine config persisting into its own log.
	lg, err := segmentlog.OpenSharded(t.TempDir(), ecfg.Shards, segmentlog.Options{})
	if err != nil {
		t.Fatalf("open direct log: %v", err)
	}
	dcfg := ecfg
	dcfg.Shards = lg.NumShards()
	dcfg.Persister = lg
	eng, err := engine.New(dcfg)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer eng.Close()

	// Stream both paths in the same chunked order.
	per := perDevice / chunks
	for chunk := 0; chunk < chunks; chunk++ {
		batches := make([]proto.DeviceBatch, 0, devices)
		var fixes []engine.Fix
		for d := range tracks {
			part := tracks[d][chunk*per : (chunk+1)*per]
			dev := fmt.Sprintf("dev-%03d", d)
			batches = append(batches, proto.DeviceBatch{Device: dev, Keys: part})
			fixes = append(fixes, toFixes(dev, part)...)
		}
		if _, err := c.IngestAll(batches, 20); err != nil {
			t.Fatalf("chunk %d: IngestAll: %v", chunk, err)
		}
		if err := eng.Ingest(fixes); err != nil {
			t.Fatalf("chunk %d: direct Ingest: %v", chunk, err)
		}
	}
	if err := c.Sync(true); err != nil {
		t.Fatalf("client Sync(flush): %v", err)
	}
	if err := eng.FlushSessions(); err != nil {
		t.Fatalf("direct FlushSessions: %v", err)
	}
	if err := eng.Sync(); err != nil {
		t.Fatalf("direct Sync: %v", err)
	}

	for d := 0; d < devices; d++ {
		dev := fmt.Sprintf("dev-%03d", d)
		sRecs, err := c.QueryTime(dev, 0, math.MaxUint32)
		if err != nil {
			t.Fatalf("%s: server QueryTime: %v", dev, err)
		}
		dRecs, err := lg.Query(dev, 0, math.MaxUint32)
		if err != nil {
			t.Fatalf("%s: direct Query: %v", dev, err)
		}
		assertRecordsIdentical(t, dev, sRecs, dRecs)
	}

	// Window queries must agree too (both paths prune + decode the
	// same persisted bytes).
	sW, err := c.QueryWindow(-0.5, -0.5, 0.25, 0.25, 0, math.MaxUint32)
	if err != nil {
		t.Fatalf("server QueryWindow: %v", err)
	}
	dW, err := lg.QueryWindow(-0.5, -0.5, 0.25, 0.25, 0, math.MaxUint32)
	if err != nil {
		t.Fatalf("direct QueryWindow: %v", err)
	}
	if len(sW) == 0 {
		t.Fatal("window query returned nothing; widen the test window")
	}
	byDev := func(recs []trajstore.PersistedRecord) map[string][]trajstore.PersistedRecord {
		m := make(map[string][]trajstore.PersistedRecord)
		for _, r := range recs {
			m[r.Device] = append(m[r.Device], r)
		}
		return m
	}
	sM, dM := byDev(sW), byDev(dW)
	if len(sM) != len(dM) {
		t.Fatalf("window devices differ: server %d, direct %d", len(sM), len(dM))
	}
	for dev, sr := range sM {
		assertRecordsIdentical(t, "window:"+dev, sr, dM[dev])
	}
}

// onKeyLog is an engine's OnKey sink: every device's key points in
// emission order, on the wire lattice.
type onKeyLog struct {
	mu   sync.Mutex
	keys map[string][]trajstore.GeoKey
}

func (l *onKeyLog) onKey(device string, kp core.Point) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.keys == nil {
		l.keys = make(map[string][]trajstore.GeoKey)
	}
	k := trajstore.PlaneKey(kp)
	l.keys[device] = append(l.keys[device], trajstore.GeoKey{Lat: quant(k.Lat), Lon: quant(k.Lon), T: k.T})
}

// all copies what has been reported so far.
func (l *onKeyLog) all() map[string][]trajstore.GeoKey {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string][]trajstore.GeoKey, len(l.keys))
	for dev, keys := range l.keys {
		out[dev] = append([]trajstore.GeoKey(nil), keys...)
	}
	return out
}

// TestWireSeesUnflushedKeyPoints is the read contract proto.Sync states:
// a query sees every key point emitted from fixes acked before it, durable
// or not. Six devices stream over the wire — chunked at 16 keys, so each
// has records in the log and a trail still open — and with no Sync of any
// kind QueryTime and QueryWindow return, device by device, exactly the
// polyline OnKey has reported, no pair of it twice, while bqs_trail_bytes
// says part of it is in memory only. The flushing barrier then adds each
// compressor's finalizing key points and empties the trails.
func TestWireSeesUnflushedKeyPoints(t *testing.T) {
	var emitted onKeyLog
	reported := emitted.all
	srv, addr := startServer(t, Config{Dir: t.TempDir(), Engine: engine.Config{Tolerance: 2, Shards: 2, MaxTrailKeys: 16, OnKey: emitted.onKey}})
	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	const devices, perDevice = 6, 90
	batches := make([]proto.DeviceBatch, 0, devices)
	for d := 0; d < devices; d++ {
		batches = append(batches, proto.DeviceBatch{Device: fmt.Sprintf("dev-%03d", d), Keys: track(d, perDevice)})
	}
	if _, err := c.IngestAll(batches, 20); err != nil {
		t.Fatalf("IngestAll: %v", err)
	}

	wire := func(ctx string) map[string][]trajstore.GeoKey {
		t.Helper()
		recs, err := c.QueryWindow(-1, -1, 2, 2, 0, math.MaxUint32)
		if err != nil {
			t.Fatalf("%s: QueryWindow: %v", ctx, err)
		}
		out := map[string][]trajstore.GeoKey{}
		for dev, rs := range byDevice(recs) {
			out[dev] = canonical(t, rs, dev+", QueryWindow, "+ctx)
			if got := polyline(t, c, dev, ctx); !reflect.DeepEqual(got, out[dev]) {
				t.Fatalf("%s, %s: QueryTime has %d key points, QueryWindow %d", ctx, dev, len(got), len(out[dev]))
			}
		}
		return out
	}
	// An ack means queued; the query waits its turn behind the fixes, so
	// once it is back OnKey has reported everything they emit.
	got := wire("un-flushed")
	live := reported()
	same := func(ctx string, got, want map[string][]trajstore.GeoKey) {
		t.Helper()
		for dev, keys := range want {
			if !reflect.DeepEqual(got[dev], keys) {
				t.Fatalf("%s, %s: the wire holds %d key points, OnKey reported %d:\n%v\n%v", ctx, dev, len(got[dev]), len(keys), got[dev], keys)
			}
		}
		if len(got) != len(want) || len(want) != devices {
			t.Fatalf("%s: the wire holds %d devices, OnKey reported %d of %d", ctx, len(got), len(want), devices)
		}
	}
	same("un-flushed", got, live)
	body := scrape(t, srv)
	if tb, recs := metricValue(t, body, "bqs_trail_bytes", "fleet"), metricValue(t, body, "bqs_log_records", "fleet"); tb <= 0 || recs < devices {
		t.Fatalf("bqs_trail_bytes = %v, bqs_log_records = %v: want open trails beside logged chunks", tb, recs)
	}

	if err := c.Sync(true); err != nil {
		t.Fatalf("Sync(flush): %v", err)
	}
	final := reported()
	for dev, keys := range live {
		if n := len(keys); len(final[dev]) <= n || !reflect.DeepEqual(final[dev][:n], keys) {
			t.Fatalf("%s: the flush did not extend the %d key points reported before it: %d after", dev, n, len(final[dev]))
		}
	}
	same("flushed", wire("flushed"), final)
	if v := metricValue(t, scrape(t, srv), "bqs_trail_bytes", "fleet"); v != 0 {
		t.Fatalf("bqs_trail_bytes = %v after the flush, want 0", v)
	}
	// A caller's bad window is an in-band error, and the connection stays in step.
	if _, err := c.QueryWindow(1, 0, 0, 1, 0, 1); err == nil || err.Error() != "server: segmentlog: inverted window [1,0]×[0,1] t[0,1]" {
		t.Fatalf("inverted window = %v, want the in-band refusal", err)
	}
	same("after a refused window", wire("after a refused window"), final)
}

func assertRecordsIdentical(t *testing.T, label string, got, want []trajstore.PersistedRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records via server, %d direct", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.T0 != w.T0 || g.T1 != w.T1 {
			t.Fatalf("%s record %d: time span [%d,%d] vs [%d,%d]", label, i, g.T0, g.T1, w.T0, w.T1)
		}
		gb, err1 := trajstore.DeltaEncode(g.Keys)
		wb, err2 := trajstore.DeltaEncode(w.Keys)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s record %d: re-encode: %v, %v", label, i, err1, err2)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s record %d: wire bytes differ (%d vs %d keys)", label, i, len(g.Keys), len(w.Keys))
		}
	}
}

// wedgeLog wraps the real sharded log with a parkable Append, driving
// the server's persist path into the stuck-disk regime.
type wedgeLog struct {
	tenantLog
	mu      sync.Mutex
	wedged  chan struct{} // nil = pass through; non-nil = park until closed
	entered chan struct{} // signaled once per parked Append
	err     error         // returned by Append after release
}

func (w *wedgeLog) Append(device string, keys []trajstore.GeoKey) error {
	w.mu.Lock()
	wedged, entered, aerr := w.wedged, w.entered, w.err
	w.mu.Unlock()
	if wedged != nil {
		if entered != nil {
			select {
			case entered <- struct{}{}:
			default:
			}
		}
		<-wedged
		w.mu.Lock()
		aerr = w.err
		w.mu.Unlock()
	}
	if aerr != nil {
		return aerr
	}
	return w.tenantLog.Append(device, keys)
}

func (w *wedgeLog) releaseWith(err error) {
	w.mu.Lock()
	wedged := w.wedged
	w.wedged, w.err = nil, err
	w.mu.Unlock()
	if wedged != nil {
		close(wedged)
	}
}

// hookOpenLog reroutes tenant opens through fn for the test's duration.
func hookOpenLog(t *testing.T, fn func(tenantLog) tenantLog) {
	t.Helper()
	orig := openLog
	openLog = func(dir string, shards int, opts segmentlog.Options) (tenantLog, error) {
		lg, err := orig(dir, shards, opts)
		if err != nil {
			return nil, err
		}
		return fn(lg), nil
	}
	t.Cleanup(func() { openLog = orig })
}

var errDiskFire = errors.New("append: disk on fire")

// TestOverloadBackpressureAndDrain is the second acceptance test:
// under a wedged persister, ingest frames are rejected with a
// retry-after hint (never buffered), and Shutdown's drain completes —
// returning the latched error — once the wedge resolves.
func TestOverloadBackpressureAndDrain(t *testing.T) {
	wl := &wedgeLog{wedged: make(chan struct{}), entered: make(chan struct{}, 1)}
	hookOpenLog(t, func(inner tenantLog) tenantLog {
		wl.tenantLog = inner
		return wl
	})
	srv, addr := startServer(t, Config{
		Dir: t.TempDir(),
		// One shard, chunk at 2 trail keys: the first batch parks the
		// worker inside Append, the next 256 fill the queue, the rest
		// must bounce.
		Engine:       engine.Config{Tolerance: 1, Shards: 1, MaxTrailKeys: 2},
		DrainTimeout: 200 * time.Millisecond,
	})
	c, err := Dial(addr, "hot")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// 12 jumpy fixes per frame: plenty of confirmed key points, so the
	// 2-key trail cap forces a persist while the batch is processed.
	batch := func(int) []proto.DeviceBatch {
		return []proto.DeviceBatch{{Device: "d0", Keys: track(0, 12)}}
	}
	if ack, err := c.Ingest(batch(0)); err != nil || len(ack.Rejected) != 0 {
		t.Fatalf("batch 0: ack %+v, err %v", ack, err)
	}
	<-wl.entered // worker is parked inside Append now

	const depth = 256 // the engine's per-shard queue
	for i := 1; i <= depth; i++ {
		if ack, err := c.Ingest(batch(i)); err != nil || len(ack.Rejected) != 0 {
			t.Fatalf("batch %d (fills the queue): ack %+v, err %v", i, ack, err)
		}
	}

	// Everything past the full queue must bounce with a hint, forever,
	// without growing any buffer.
	for i := depth + 1; i < depth+5; i++ {
		ack, err := c.Ingest(batch(i))
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if ack.Accepted != 0 || len(ack.Rejected) != 1 || ack.Rejected[0] != 0 {
			t.Fatalf("batch %d: want whole-batch rejection, got %+v", i, ack)
		}
		if ack.RetryAfterMillis < 50 || ack.RetryAfterMillis > 100 {
			t.Fatalf("batch %d: RetryAfterMillis = %d, want 50 to 100", i, ack.RetryAfterMillis)
		}
	}

	// Drain begins while the persister is still wedged…
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown() }()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v while persister wedged", err)
	case <-time.After(50 * time.Millisecond):
	}
	// …and completes once the disk resolves (here: to a hard error),
	// surfacing that error from the drain.
	wl.releaseWith(errDiskFire)
	select {
	case err := <-shut:
		if err == nil || !strings.Contains(err.Error(), errDiskFire.Error()) {
			t.Fatalf("Shutdown error = %v, want it to carry %v", err, errDiskFire)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not complete after wedge released")
	}
}

// TestPersistErrorSurfacesInAck covers the mid-batch latched error: a
// failing backend must show up in ingest acks (and Sync) without
// waiting for Close.
func TestPersistErrorSurfacesInAck(t *testing.T) {
	wl := &wedgeLog{err: errDiskFire}
	hookOpenLog(t, func(inner tenantLog) tenantLog {
		wl.tenantLog = inner
		return wl
	})
	_, addr := startServer(t, Config{
		Dir:    t.TempDir(),
		Engine: engine.Config{Tolerance: 1, Shards: 1, MaxTrailKeys: 2},
	})
	c, err := Dial(addr, "sick")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// The worker persists asynchronously; keep feeding small batches
	// until the latched error propagates into an ack.
	deadline := time.After(5 * time.Second)
	for i := 0; ; i++ {
		ack, err := c.Ingest([]proto.DeviceBatch{{Device: "d0", Keys: track(0, 12)}})
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if ack.Err != "" {
			if !strings.Contains(ack.Err, errDiskFire.Error()) {
				t.Fatalf("ack.Err = %q, want it to carry %v", ack.Err, errDiskFire)
			}
			// The failure reaches an ack by degrading the engine: the batch
			// was rejected whole, and the ack must say so.
			if ack.Accepted != 0 || !ack.Degraded {
				t.Fatalf("ingest %d: error ack is not a whole-batch degraded reject: %+v", i, ack)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("persist error never surfaced in an ack")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if err := c.Sync(false); err == nil || !strings.Contains(err.Error(), errDiskFire.Error()) {
		t.Fatalf("Sync error = %v, want it to carry %v", err, errDiskFire)
	}
	// The generic disk error is terminal, so the engine is degraded by
	// now: the next batch is rejected whole with the flag set, telling
	// clients to stop resending.
	ack, err := c.Ingest([]proto.DeviceBatch{{Device: "d0", Keys: track(0, 12)}})
	if err != nil {
		t.Fatalf("ingest after degrade: %v", err)
	}
	if !ack.Degraded || ack.Accepted != 0 {
		t.Fatalf("ack after degrade = %+v, want Degraded with nothing accepted", ack)
	}
	if _, err := c.IngestAll([]proto.DeviceBatch{{Device: "d0", Keys: track(0, 12)}}, 3); !errors.Is(err, ErrDegraded) {
		t.Fatalf("IngestAll while degraded = %v, want ErrDegraded", err)
	}
}

// TestCompactFailureDoesNotStopIngest is the regression test for acks
// that carried a standing background-compaction failure: every fix was
// accepted and durable, yet IngestAll aborted on the non-empty ack.Err
// and stopped the client's stream. A failed pass is not a durability
// event (the published generation is untouched), so ingest, Sync and
// queries must carry on; the failure shows in the metrics and at
// Shutdown only. Every pass of this log's policy fails: its ageing
// tolerance is unusable.
func TestCompactFailureDoesNotStopIngest(t *testing.T) {
	srv, addr := startServer(t, Config{
		Dir:    t.TempDir(),
		Engine: engine.Config{Tolerance: 2, Shards: 2, MaxTrailKeys: 16},
		Log:    segmentlog.Options{Compaction: &segmentlog.CompactionPolicy{Every: time.Millisecond, CoarseTolerance: -1}},
	})
	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	tn, err := srv.tenant("fleet") // opened by the handshake
	if err != nil {
		t.Fatalf("tenant: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); tn.log.Stats().CompactFailures == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no background compaction pass failed")
		}
		time.Sleep(time.Millisecond)
	}

	const devices, perDevice = 4, 90
	batches := make([]proto.DeviceBatch, 0, devices)
	for d := 0; d < devices; d++ {
		batches = append(batches, proto.DeviceBatch{Device: fmt.Sprintf("dev-%03d", d), Keys: track(d, perDevice)})
	}
	n, err := c.IngestAll(batches, 20)
	if err != nil || n != devices*perDevice {
		t.Fatalf("IngestAll under a standing compaction failure = (%d, %v), want (%d, nil)", n, err, devices*perDevice)
	}
	if err := c.Sync(true); err != nil {
		t.Fatalf("Sync(flush) under a standing compaction failure: %v", err)
	}
	recs, err := c.QueryWindow(-0.5, -0.5, 1, 1, 0, math.MaxUint32)
	if err != nil || len(recs) == 0 {
		t.Fatalf("QueryWindow = (%d records, %v), want the ingested trails", len(recs), err)
	}

	body := scrape(t, srv)
	if v := metricValue(t, body, "bqs_compact_failures_total", "fleet"); v < 1 {
		t.Errorf("bqs_compact_failures_total = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "bqs_degraded", "fleet"); v != 0 {
		t.Errorf("bqs_degraded = %v, want 0", v)
	}
	if err := srv.Shutdown(); err == nil || !strings.Contains(err.Error(), "age compressor") {
		t.Errorf("Shutdown = %v, want it to report the compaction failure", err)
	}
}

func TestTenantIsolationAndValidation(t *testing.T) {
	dir := t.TempDir()
	_, addr := startServer(t, Config{Dir: dir, Engine: engine.Config{Tolerance: 2, Shards: 1}})

	ca, err := Dial(addr, "alpha")
	if err != nil {
		t.Fatalf("dial alpha: %v", err)
	}
	defer ca.Close()
	cb, err := Dial(addr, "beta")
	if err != nil {
		t.Fatalf("dial beta: %v", err)
	}
	defer cb.Close()

	if _, err := ca.IngestAll([]proto.DeviceBatch{{Device: "shared-id", Keys: track(1, 30)}}, 10); err != nil {
		t.Fatalf("alpha ingest: %v", err)
	}
	if err := ca.Sync(true); err != nil {
		t.Fatalf("alpha sync: %v", err)
	}
	recs, err := ca.QueryTime("shared-id", 0, math.MaxUint32)
	if err != nil || len(recs) == 0 {
		t.Fatalf("alpha sees %d records, err %v; want >= 1", len(recs), err)
	}
	recs, err = cb.QueryTime("shared-id", 0, math.MaxUint32)
	if err != nil || len(recs) != 0 {
		t.Fatalf("beta sees %d records, err %v; want 0 (tenant bleed)", len(recs), err)
	}

	// Tenant state is real directories, one per namespace.
	for _, name := range []string{"alpha", "beta"} {
		if _, err := os.Stat(filepath.Join(dir, name, "SHARDS")); err != nil {
			t.Fatalf("tenant %q has no sharded log: %v", name, err)
		}
	}

	// Traversal and junk names never reach the filesystem.
	for _, bad := range []string{"", ".", "..", "../evil", "a/b", ".hidden", strings.Repeat("x", 65)} {
		if _, err := Dial(addr, bad); err == nil {
			t.Fatalf("tenant %q accepted", bad)
		}
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "evil")); !os.IsNotExist(err) {
		t.Fatalf("traversal escaped the data dir: %v", err)
	}
}

// TestValidTenantMatchesPattern holds the tenant-name byte loop to the
// pattern it implements: every byte value alone and in first, middle and
// last position, and the lengths around the bounds.
func TestValidTenantMatchesPattern(t *testing.T) {
	pattern := regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)
	names := []string{"", "a", strings.Repeat("a", 64), strings.Repeat("a", 65), "a" + strings.Repeat(".", 63), "a" + strings.Repeat("-", 64)}
	for c := 0; c < 256; c++ {
		b := string([]byte{byte(c)})
		names = append(names, b, b+"a", "a"+b+"a", "a"+b, b+strings.Repeat("a", 63), strings.Repeat("a", 63)+b)
	}
	for _, name := range names {
		if got, want := validTenant(name), pattern.MatchString(name); got != want {
			t.Errorf("validTenant(%q) = %v, pattern says %v", name, got, want)
		}
	}
}

func TestHelloVersionMismatch(t *testing.T) {
	_, addr := startServer(t, Config{Dir: t.TempDir(), Engine: engine.Config{Tolerance: 2, Shards: 1}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	p := proto.AppendHello(nil, proto.Hello{Version: proto.Version + 9, Tenant: "x"})
	if err := proto.WriteFrame(conn, proto.TypeHello, p); err != nil {
		t.Fatalf("write: %v", err)
	}
	typ, payload, _, err := proto.ReadFrame(conn, nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if typ != proto.TypeHelloAck {
		t.Fatalf("frame type %#x, want HelloAck", typ)
	}
	ack, err := proto.ParseHelloAck(payload)
	if err != nil || ack.Err == "" {
		t.Fatalf("ack %+v, err %v; want version rejection", ack, err)
	}
}

func TestProtocolViolationGetsErrorFrame(t *testing.T) {
	_, addr := startServer(t, Config{Dir: t.TempDir(), Engine: engine.Config{Tolerance: 2, Shards: 1}})
	c, err := Dial(addr, "x")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	// A server-to-client frame type from the client is a violation.
	if err := proto.WriteFrame(c.conn, proto.TypeHelloAck, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	typ, payload, _, err := proto.ReadFrame(c.conn, nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if typ != proto.TypeError {
		t.Fatalf("frame type %#x, want Error", typ)
	}
	if m, err := proto.ParseError(payload); err != nil || m.Err == "" {
		t.Fatalf("error frame %+v, %v", m, err)
	}
}

// TestOversizedDeviceIDRefused: one device ID longer than a log record
// stores (trajstore.MaxDeviceBytes) is malformed on the wire: its frame gets
// an Error and nothing of it is queued. Acked instead, its trail fails its
// append at the next flush, the tenant degrades for good (Heal re-fails on
// the same trail) and every other device's fixes are refused or parked.
// Here the tenant stays healthy and a second device's fixes are acked and
// durable.
func TestOversizedDeviceIDRefused(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startServer(t, Config{Dir: dir, Engine: engine.Config{Tolerance: 2, Shards: 1}})
	bad, err := Dial(addr, "x")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if ack, err := bad.Ingest([]proto.DeviceBatch{{Device: strings.Repeat("d", trajstore.MaxDeviceBytes+1), Keys: track(0, 8)}}); err == nil {
		t.Errorf("an oversized device ID was answered %+v, want an Error frame", ack)
	}
	c, err := Dial(addr, "x")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Sync(true); err != nil {
		t.Errorf("Sync(flush) after the oversized ID: %v", err)
	}
	keys := track(1, 40)
	if _, err := c.IngestAll([]proto.DeviceBatch{{Device: "dev-1", Keys: keys}}, 20); err != nil {
		t.Fatalf("a second device's fixes: %v", err)
	}
	if err := c.Sync(true); err != nil {
		t.Fatalf("Sync(flush): %v", err)
	}
	if st := srv.openTenants()[0].eng.State(); st.Phase != engine.Healthy {
		t.Fatalf("tenant %v (%v), want healthy", st.Phase, st.Cause)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	lg, err := segmentlog.OpenSharded(filepath.Join(dir, "x"), 0, segmentlog.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	recs, err := lg.Query("dev-1", 0, math.MaxUint32)
	if err != nil {
		t.Fatal(err)
	}
	covers(t, recs, "dev-1", keys, "reopened")
}

// TestNewRefusesUnusableTemplate: an engine or log template no tenant
// could ever open is refused when the server is built, not on every Hello.
func TestNewRefusesUnusableTemplate(t *testing.T) {
	for name, ec := range map[string]engine.Config{
		"unregistered compressor": {Tolerance: 2, Compressor: "nosuch"},
		"zero tolerance":          {},
		"NaN tolerance":           {Tolerance: math.NaN()},
		"negative MaxTrailKeys":   {Tolerance: 2, MaxTrailKeys: -5},
		"negative IdleTimeout":    {Tolerance: 2, IdleTimeout: -time.Second},
	} {
		if s, err := New(Config{Dir: t.TempDir(), Engine: ec}); err == nil {
			_ = s.Shutdown()
			t.Errorf("%s: New accepted the template", name)
		} else if !strings.Contains(err.Error(), "Config.Engine") {
			t.Errorf("%s: New = %v, want it to name Config.Engine", name, err)
		}
	}
	if _, err := New(Config{Dir: t.TempDir(), Engine: engine.Config{Tolerance: 2, Compressor: "nosuch"}}); !errors.Is(err, stream.ErrUnknownCompressor) {
		t.Errorf("New = %v, want stream.ErrUnknownCompressor", err)
	}
	negative := segmentlog.Options{Compaction: &segmentlog.CompactionPolicy{MergeChunks: true, Every: -time.Second}}
	if s, err := New(Config{Dir: t.TempDir(), Engine: engine.Config{Tolerance: 2}, Log: negative}); err == nil {
		_ = s.Shutdown()
		t.Error("New accepted a negative CompactionPolicy.Every")
	} else if !strings.Contains(err.Error(), "Config.Log") {
		t.Errorf("New = %v, want it to name Config.Log", err)
	}
}

// TestFailedTenantOpenIsRetried: a Hello whose tenant could not be opened
// — here another writer holds the directory's LOCK — fails, and once the
// cause has cleared the next Hello opens the tenant.
func TestFailedTenantOpenIsRetried(t *testing.T) {
	dir := t.TempDir()
	_, addr := startServer(t, Config{Dir: dir, Engine: engine.Config{Tolerance: 2, Shards: 1}})
	holder, err := segmentlog.OpenSharded(filepath.Join(dir, "fleet"), 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c, err := Dial(addr, "fleet"); err == nil || !strings.Contains(err.Error(), segmentlog.ErrLocked.Error()) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("Hello while another writer holds the tenant = %v, want %v", err, segmentlog.ErrLocked)
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatalf("Hello after the holder closed = %v, want the tenant opened", err)
	}
	c.Close()
}

// TestServeAfterShutdown pins the ErrServerClosed contract.
func TestServeAfterShutdown(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Engine: engine.Config{Tolerance: 1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if err := s.Serve(ln); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after Shutdown = %v, want ErrServerClosed", err)
	}
}

// BenchmarkServerIngestLoopback measures the full wire path: encode,
// TCP loopback, the frame's walk, TryIngestTrail. Its batching regime is
// one closed-loop connection sending 16-device × 64-fix frames (1 024 fixes
// per ack round trip) into a single shard, on the zigzag track where every
// fix is a key point — the compressor discards nothing, so the trail and
// persist work per fix is at its worst. A Sync every 8 frames keeps at
// most 128 batches queued, inside the shard's 256 slots, so the figure is
// the path's, not retry sleeps; retries/op says if one was refused all the
// same (its hint must be 50 to 100 ms). It is a same-host A/B probe for
// this path (go test -bench | benchstat); the wire throughput figure of
// record is server.ingest_kfix_per_s from `go run ./bench`, whose
// workloads state their own regimes. SetBytes follows the repo's
// convention of 24 bytes per fix.
func BenchmarkServerIngestLoopback(b *testing.B) {
	dir := b.TempDir()
	s, err := New(Config{Dir: dir, Engine: engine.Config{Tolerance: 2, Shards: 1}})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	go s.Serve(ln)
	defer s.Shutdown()
	c, err := Dial(ln.Addr().String(), "bench")
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer c.Close()
	retries := 0
	c.Sleep = func(d time.Duration) {
		if d < 50*time.Millisecond || d > 100*time.Millisecond {
			b.Errorf("retry hint %v, want 50 to 100 ms", d)
		}
		retries++
		time.Sleep(d)
	}

	const devices, perDevice = 16, 64
	batches := make([]proto.DeviceBatch, devices)
	for d := range batches {
		batches[d] = proto.DeviceBatch{Device: fmt.Sprintf("dev-%03d", d), Keys: track(d, perDevice)}
	}
	b.SetBytes(int64(devices * perDevice * 24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.IngestAll(batches, 50); err != nil {
			b.Fatalf("IngestAll: %v", err)
		}
		if i%8 == 7 {
			if err := c.Sync(false); err != nil {
				b.Fatalf("Sync: %v", err)
			}
		}
	}
	b.StopTimer()
	if err := c.Sync(false); err != nil {
		b.Fatalf("Sync: %v", err)
	}
	b.ReportMetric(float64(retries)/float64(b.N), "retries/op")
}
