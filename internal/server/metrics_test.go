package server

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// scrape GETs the metrics handler and returns the exposition body.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics scrape: HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	return rec.Body.String()
}

// metricValue extracts one sample (by family name and tenant label)
// from an exposition body.
func metricValue(t *testing.T, body, name, tenant string) float64 {
	t.Helper()
	prefix := fmt.Sprintf("%s{tenant=%q} ", name, tenant)
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix), 64)
			if err != nil {
				t.Fatalf("unparsable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %s for tenant %q in scrape:\n%s", name, tenant, body)
	return 0
}

// TestMetricsEndpoint is the integration test of the scrape path: after
// real ingest over the wire and a warmed-up window query, /metrics must
// report nonzero ingest, log and cache counters for the tenant, and the
// reclaim counter after a compaction pass — and an empty server must
// scrape cleanly with headers only.
func TestMetricsEndpoint(t *testing.T) {
	srv, addr := startServer(t, Config{
		Dir:    t.TempDir(),
		Engine: engine.Config{Tolerance: 2, Shards: 2, MaxTrailKeys: 16},
		Log: segmentlog.Options{CacheBytes: 1 << 20, MaxSegmentBytes: 1024,
			Compaction: &segmentlog.CompactionPolicy{MergeChunks: true}},
	})

	// Before any tenant connects: headers render, no samples, no panic.
	if body := scrape(t, srv); strings.Contains(body, "tenant=") {
		t.Fatalf("empty server scrape has tenant samples:\n%s", body)
	}

	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	const devices, perDevice = 4, 90
	batches := make([]proto.DeviceBatch, 0, devices)
	for d := 0; d < devices; d++ {
		batches = append(batches, proto.DeviceBatch{Device: fmt.Sprintf("dev-%03d", d), Keys: track(d, perDevice)})
	}
	if _, err := c.IngestAll(batches, 20); err != nil {
		t.Fatalf("IngestAll: %v", err)
	}
	// Mid-session (everything processed, nothing flushed) the sessions'
	// trails are what a SIGKILL would lose; the gauge says how much.
	if err := c.Sync(false); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if v := metricValue(t, scrape(t, srv), "bqs_trail_bytes", "fleet"); v <= 0 {
		t.Errorf("bqs_trail_bytes = %v mid-session, want > 0", v)
	}
	if err := c.Sync(true); err != nil { // flush sessions to the log
		t.Fatalf("Sync: %v", err)
	}
	if v := metricValue(t, scrape(t, srv), "bqs_trail_bytes", "fleet"); v != 0 {
		t.Errorf("bqs_trail_bytes = %v after the flush, want 0", v)
	}
	// Two identical window queries: the first populates the read cache,
	// the second hits it.
	for i := 0; i < 2; i++ {
		if _, err := c.QueryWindow(-0.5, -0.5, 0.5, 0.5, 0, math.MaxUint32); err != nil {
			t.Fatalf("QueryWindow %d: %v", i, err)
		}
	}

	// The write-behind gauge: nothing waits for an fsync after the barrier.
	if v := metricValue(t, scrape(t, srv), "bqs_log_unsynced_bytes", "fleet"); v != 0 {
		t.Errorf("bqs_log_unsynced_bytes = %v after a Sync, want 0", v)
	}

	body := scrape(t, srv)
	for _, m := range []string{
		"bqs_ingest_fixes_total",
		"bqs_ingest_keypoints_total",
		"bqs_persisted_trails_total",
		"bqs_log_records",
		"bqs_log_bytes",
		"bqs_cache_capacity_bytes",
		"bqs_cache_misses_total",
		"bqs_cache_hits_total",
	} {
		if v := metricValue(t, body, m, "fleet"); v <= 0 {
			t.Errorf("%s = %v, want > 0", m, v)
		}
	}
	if v := metricValue(t, body, "bqs_ingest_fixes_total", "fleet"); v != devices*perDevice {
		t.Errorf("bqs_ingest_fixes_total = %v, want %d", v, devices*perDevice)
	}
	if v := metricValue(t, body, "bqs_degraded", "fleet"); v != 0 {
		t.Errorf("bqs_degraded = %v, want 0", v)
	}
	// Counters only move forward across scrapes.
	if _, err := c.QueryWindow(-0.5, -0.5, 0.5, 0.5, 0, math.MaxUint32); err != nil {
		t.Fatalf("QueryWindow: %v", err)
	}
	body2 := scrape(t, srv)
	if h1, h2 := metricValue(t, body, "bqs_cache_hits_total", "fleet"), metricValue(t, body2, "bqs_cache_hits_total", "fleet"); h2 <= h1 {
		t.Errorf("cache hits did not advance across scrapes: %v -> %v", h1, h2)
	}
	// A pass that merges the 16-key chunks frees disk: the log's own counter.
	for _, m := range []string{"bqs_compact_reclaimed_bytes", "bqs_compact_rewritten_bytes_total"} {
		if v := metricValue(t, body2, m, "fleet"); v != 0 {
			t.Errorf("%s = %v before any pass, want 0", m, v)
		}
	}
	tn, err := srv.tenant("fleet")
	if err != nil {
		t.Fatalf("tenant: %v", err)
	}
	if err := tn.eng.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	body3 := scrape(t, srv)
	if v := metricValue(t, body3, "bqs_compact_reclaimed_bytes", "fleet"); v <= 0 {
		t.Errorf("bqs_compact_reclaimed_bytes = %v after a merging pass, want > 0", v)
	}
	// What the pass wrote is what it left of the log: everything, merged.
	if w, size := metricValue(t, body3, "bqs_compact_rewritten_bytes_total", "fleet"), metricValue(t, body3, "bqs_log_bytes", "fleet"); w <= 0 || w > size {
		t.Errorf("bqs_compact_rewritten_bytes_total = %v after one pass over a log of %v bytes, want in (0, that]", w, size)
	}
}

// TestMetricsUnsyncedBounded: under wire traffic with no barrier at all —
// sessions chunked at 16 keys, ≈ 1.5 MiB of records into two shards — what
// the log holds un-fsync'd never exceeds shards × its write-behind bound
// (segmentlog's maxUnsynced, 256 KiB) at any scrape, is above zero at some,
// and is zero after the Sync.
func TestMetricsUnsyncedBounded(t *testing.T) {
	const shards, bound = 2, 256 << 10
	srv, addr := startServer(t, Config{
		Dir:    t.TempDir(),
		Engine: engine.Config{Tolerance: 2, Shards: shards, MaxTrailKeys: 16},
	})
	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	// The traffic runs beside the test; the test scrapes until it is done.
	const devices, perDevice = 64, 4000
	sent := make(chan error, 1)
	go func() {
		for lo := 0; lo < perDevice; lo += 500 {
			batches := make([]proto.DeviceBatch, 0, devices)
			for d := 0; d < devices; d++ {
				batches = append(batches, proto.DeviceBatch{Device: fmt.Sprintf("dev-%03d", d), Keys: track(d, perDevice)[lo : lo+500]})
			}
			if _, err := c.IngestAll(batches, 50); err != nil {
				sent <- fmt.Errorf("IngestAll: %w", err)
				return
			}
		}
		sent <- c.Sync(true)
	}()
	var hi float64
	for running := true; running; {
		select {
		case err := <-sent:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			hi = math.Max(hi, metricValue(t, scrape(t, srv), "bqs_log_unsynced_bytes", "fleet"))
		}
	}
	if hi <= 0 || hi > shards*bound {
		t.Errorf("bqs_log_unsynced_bytes peaked at %v over the run, want in (0, %d]", hi, shards*bound)
	}
	body := scrape(t, srv)
	if v := metricValue(t, body, "bqs_log_unsynced_bytes", "fleet"); v != 0 {
		t.Errorf("bqs_log_unsynced_bytes = %v after the Sync, want 0", v)
	}
	if v := metricValue(t, body, "bqs_log_bytes", "fleet"); v < 4*shards*bound {
		t.Errorf("bqs_log_bytes = %v: the run wrote too little to cross the bound", v)
	}
}

// TestMetricsLabelEscaping: the family renderer escapes
// exposition-hostile label characters. Tenant-name validation makes
// these unreachable over the wire today, but the renderer must not
// depend on that invariant staying true.
func TestMetricsLabelEscaping(t *testing.T) {
	var b strings.Builder
	ts := []tenantMetrics{{name: "we\"ird\\ten\nant"}}
	metricFamily(&b, "bqs_test_total", "counter", "A test family.", ts,
		func(*tenantMetrics) interface{} { return 7 })
	want := `bqs_test_total{tenant="we\"ird\\ten\nant"} 7`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped sample %q missing from:\n%s", want, b.String())
	}
}
