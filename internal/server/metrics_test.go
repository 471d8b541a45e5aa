package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// serveMetrics runs s.ServeMetrics on a loopback listener and returns its
// address and a stop func that closes the listener and reports what
// ServeMetrics returned.
func serveMetrics(t *testing.T, s *Server) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeMetrics(ln) }()
	return ln.Addr().String(), func() {
		ln.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeMetrics returned %v after its listener closed, want nil", err)
		}
	}
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

// fetch GETs path from the responder at addr with net/http's client and
// holds the answer to what every answer must be: HTTP/1.1, a
// Content-Length equal to the body, and the connection closed after it.
func fetch(addr, path string) (*http.Response, string, error) {
	resp, err := scrapeClient.Get("http://" + addr + path)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return nil, "", err
	case resp.Proto != "HTTP/1.1" || !resp.Close:
		return nil, "", fmt.Errorf("GET %s: %s, Connection close %v; want HTTP/1.1, close", path, resp.Proto, resp.Close)
	case resp.ContentLength != int64(len(body)):
		return nil, "", fmt.Errorf("GET %s: Content-Length %d, body %d bytes", path, resp.ContentLength, len(body))
	}
	return resp, string(body), nil
}

// metricsType is the exposition format's content type.
const metricsType = "text/plain; version=0.0.4; charset=utf-8"

// scrape GETs /metrics from s over a loopback socket and returns the
// exposition body.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	addr, stop := serveMetrics(t, s)
	defer stop()
	resp, body, err := fetch(addr, "/metrics")
	if err != nil {
		t.Fatalf("metrics scrape: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("metrics scrape: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metricsType {
		t.Fatalf("metrics Content-Type = %q, want %q", ct, metricsType)
	}
	return body
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

// TestMetricsResponder drives ServeMetrics over a real socket: a scrape is
// the renderer's text with its content type and length, a query string is
// ignored, anything but GET /metrics is a 404, and a request head past the
// cap is closed at once with no answer.
func TestMetricsResponder(t *testing.T) {
	srv, addr := startServer(t, Config{Dir: t.TempDir(), Engine: engine.Config{Tolerance: 2, Shards: 2, MaxTrailKeys: 16}})
	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.IngestAll([]proto.DeviceBatch{{Device: "dev-000", Keys: track(0, 90)}}, 20); err != nil {
		t.Fatalf("IngestAll: %v", err)
	}
	if err := c.Sync(true); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Nothing moves now, so the scrape and the renderer agree byte for byte.
	var want bytes.Buffer
	if err := srv.WriteMetrics(&want); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	if got := scrape(t, srv); got != want.String() {
		t.Fatalf("scrape body differs from WriteMetrics:\n%s\nwant:\n%s", got, want.String())
	}

	maddr, stop := serveMetrics(t, srv)
	defer stop()
	for path, status := range map[string]int{
		"/metrics?name[]=bqs_log_bytes": 200,
		"/":                             404,
		"/metrics/":                     404,
		"/debug/pprof/":                 404,
	} {
		resp, body, err := fetch(maddr, path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != status {
			t.Errorf("GET %s: HTTP %d, want %d", path, resp.StatusCode, status)
		}
		if status == 200 && !strings.Contains(body, `bqs_log_bytes{tenant="fleet"}`) {
			t.Errorf("GET %s: no bqs_log_bytes sample in:\n%s", path, body)
		}
	}
	if resp, err := scrapeClient.Post("http://"+maddr+"/metrics", "text/plain", nil); err != nil {
		t.Fatalf("POST /metrics: %v", err)
	} else if resp.Body.Close(); resp.StatusCode != 404 {
		t.Errorf("POST /metrics: HTTP %d, want 404", resp.StatusCode)
	}

	// A head whose lines end in a bare LF is a head too.
	conn, err := net.Dial("tcp", maddr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.0\n\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if answer, err := io.ReadAll(conn); err != nil || !bytes.HasPrefix(answer, []byte("HTTP/1.1 200 OK\r\n")) {
		t.Fatalf("bare-LF head: %q, %v; want a 200", answer, err)
	}
	conn.Close()

	// A head that fills the cap without ending is closed unanswered, long
	// before the read deadline.
	conn, err = net.Dial("tcp", maddr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	start := time.Now()
	head := "GET /metrics HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", maxScrapeHead)
	if _, err := conn.Write([]byte(head[:maxScrapeHead])); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * scrapeTimeout))
	if n, err := conn.Read(make([]byte, 64)); n != 0 || err == nil {
		t.Fatalf("over-cap head: read %d bytes, err %v; want the connection closed with no answer", n, err)
	}
	if d := time.Since(start); d > scrapeTimeout/2 {
		t.Errorf("over-cap head closed after %v, want at once", d)
	}
}

// TestMetricsConcurrentScrapes: more scrapers than the responder serves at
// once, scraping in a loop while a client ingests, all answered whole
// (run it under -race).
func TestMetricsConcurrentScrapes(t *testing.T) {
	srv, addr := startServer(t, Config{Dir: t.TempDir(), Engine: engine.Config{Tolerance: 2, Shards: 2, MaxTrailKeys: 16}})
	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	maddr, stop := serveMetrics(t, srv)
	defer stop()

	done := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes atomic.Int64
	for i := 0; i < 2*maxScrapes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					if n == 0 {
						t.Error("a scraper never got to scrape")
					}
					return
				default:
				}
				scrapes.Add(1)
				resp, body, err := fetch(maddr, "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				if resp.StatusCode != 200 || !strings.HasSuffix(body, "\n") || !strings.Contains(body, "# TYPE bqs_log_generation gauge") {
					t.Errorf("scrape: HTTP %d, body:\n%s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	const devices, perDevice = 64, 2000
	batches := make([]proto.DeviceBatch, 0, devices)
	for d := 0; d < devices; d++ {
		batches = append(batches, proto.DeviceBatch{Device: fmt.Sprintf("dev-%03d", d), Keys: track(d, perDevice)})
	}
	_, err = c.IngestAll(batches, 10)
	if err == nil {
		err = c.Sync(true)
	}
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	t.Logf("%d scrapes during the ingest", scrapes.Load())
	if v := metricValue(t, scrape(t, srv), "bqs_ingest_fixes_total", "fleet"); v != devices*perDevice {
		t.Errorf("bqs_ingest_fixes_total = %v, want %d", v, devices*perDevice)
	}
}

// TestServeMetricsWaitsForHandlers: once its listener closes ServeMetrics
// still waits for the scrape in flight, which is answered, and it leaves
// no handler goroutine behind.
func TestServeMetricsWaitsForHandlers(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir(), Engine: engine.Config{Tolerance: 2}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeMetrics(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The handler is in flight once the responder has taken the connection;
	// the listen backlog alone would not keep ServeMetrics waiting.
	for !handlersRunning() {
		time.Sleep(time.Millisecond)
	}
	ln.Close()
	select {
	case err := <-done:
		t.Fatalf("ServeMetrics returned %v with a scrape in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := conn.Write([]byte("\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp, err := io.ReadAll(conn)
	if err != nil || !strings.HasPrefix(string(resp), "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("in-flight scrape: %q, %v; want a 200", resp, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	for deadline := time.Now().Add(time.Second); handlersRunning(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a scrape handler goroutine outlived ServeMetrics")
		}
	}
}

// handlersRunning reports whether any goroutine is inside a scrape handler.
func handlersRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*Server).ServeMetrics.func"))
}
