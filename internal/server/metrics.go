// The /metrics endpoint: every tenant's engine, queue, cache and
// segment-log counters rendered in the Prometheus text exposition
// format. The text is plain on purpose — no client library, no registry
// objects — because the server already has one source of truth for each
// number (engine.Stats, segmentlog.Stats) and the
// scrape path should read those, not maintain a parallel set of
// instrument objects that can drift. It is served by a small HTTP/1.1
// responder rather than net/http: one GET, one plain-text answer, and a
// daemon that does not link a TLS, HTTP/2 and gzip stack to give it.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// The responder's limits: a request head (request line and headers) larger
// than maxScrapeHead is refused unanswered, a connection gets scrapeTimeout
// to send its head and take its answer, and at most maxScrapes connections
// are served at once — the next wait in the listen backlog.
const (
	maxScrapeHead = 4 << 10
	scrapeTimeout = 5 * time.Second
	maxScrapes    = 4
)

// ServeMetrics answers HTTP/1.1 scrapes on ln until ln is closed: GET
// /metrics (any query string) gets WriteMetrics' text, anything else a
// 404, and every answer closes its connection. Once ln is closed it
// returns nil, but only after every scrape in flight has finished; any
// other accept error is returned the same way.
func (s *Server) ServeMetrics(ln net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	slots := make(chan struct{}, maxScrapes)
	for {
		slots <- struct{}{}
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			s.serveScrape(conn)
		}()
	}
}

// serveScrape reads one request head and answers it. A head that does not
// end within maxScrapeHead bytes or by the deadline is closed unanswered:
// nothing a scraper sends is that long or that slow.
func (s *Server) serveScrape(conn net.Conn) {
	defer conn.Close()                                  // every answer is Connection: close
	_ = conn.SetDeadline(time.Now().Add(scrapeTimeout)) //bqslint:ignore clockinject the kernel compares the deadline; no test replays a scrape's clock
	head := readHead(conn)
	if head == nil {
		return
	}
	line, _, _ := bytes.Cut(head, []byte("\n"))
	req := strings.Fields(string(line)) // method, target, version
	status, ctype := "404 Not Found", "text/plain; charset=utf-8"
	var body bytes.Buffer
	if len(req) == 3 && req[0] == "GET" && (req[1] == "/metrics" || strings.HasPrefix(req[1], "/metrics?")) {
		status, ctype = "200 OK", "text/plain; version=0.0.4; charset=utf-8"
		_ = s.WriteMetrics(&body) // a bytes.Buffer takes every write
	} else {
		body.WriteString("404 page not found\n")
	}
	resp := fmt.Appendf(nil, "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", status, ctype, body.Len())
	_, _ = (&net.Buffers{resp, body.Bytes()}).WriteTo(conn) // a scraper that went away has no one to tell
}

// readHead reads a request head through its blank line, within
// maxScrapeHead bytes. Nil means the peer closed, stalled past the
// deadline or filled the cap without ending its head.
func readHead(conn net.Conn) []byte {
	buf := make([]byte, maxScrapeHead)
	for n := 0; n < len(buf); {
		m, err := conn.Read(buf[n:])
		n += m
		if bytes.Contains(buf[:n], []byte("\n\r\n")) || bytes.Contains(buf[:n], []byte("\n\n")) {
			return buf[:n]
		}
		if err != nil {
			return nil
		}
	}
	return nil
}

// tenantMetrics is one tenant's scrape snapshot.
type tenantMetrics struct {
	name     string
	eng      engine.Stats
	degraded bool
	log      segmentlog.Stats
}

// snapshotMetrics collects a scrape-time snapshot of every open
// tenant, sorted by name.
func (s *Server) snapshotMetrics() []tenantMetrics {
	ts := s.openTenants()
	out := make([]tenantMetrics, 0, len(ts))
	for _, t := range ts {
		out = append(out, tenantMetrics{
			name:     t.name,
			eng:      t.eng.Stats(),
			degraded: t.eng.State().Cause != nil,
			log:      t.log.Stats(),
		})
	}
	return out
}

// labelEscaper escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// metricFamily emits one family: HELP/TYPE header then a sample per
// tenant, labels escaped per the exposition format.
func metricFamily(w io.Writer, name, typ, help string, ts []tenantMetrics, value func(*tenantMetrics) interface{}) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for i := range ts {
		fmt.Fprintf(w, "%s{tenant=\"%s\"} %v\n", name, labelEscaper.Replace(ts[i].name), value(&ts[i]))
	}
}

// WriteMetrics renders the server's internals in the Prometheus text
// format to w: per tenant, the ingest counters (fixes, key points,
// rejections), session lifecycle, queue occupancy, persist/compact failure
// tallies, what compaction wrote and reclaimed, the read-side cache
// (hits/misses/evictions/size), and the segment log's shape (segments,
// records, bytes, generation). Rendering is safe at any time, including
// during Shutdown — each number is an atomic or mutex-guarded snapshot
// read. The text reaches w in one Write, whose error is returned.
func (s *Server) WriteMetrics(w io.Writer) error {
	ts := s.snapshotMetrics()
	var b bytes.Buffer
	f := func(name, typ, help string, value func(*tenantMetrics) interface{}) {
		metricFamily(&b, name, typ, help, ts, value)
	}
	f("bqs_ingest_fixes_total", "counter", "Fixes accepted by the engine.",
		func(t *tenantMetrics) interface{} { return t.eng.Fixes })
	f("bqs_ingest_keypoints_total", "counter", "Key points emitted by all sessions.",
		func(t *tenantMetrics) interface{} { return t.eng.KeyPoints })
	f("bqs_ingest_rejected_total", "counter", "Fixes refused by backpressure or degraded mode.",
		func(t *tenantMetrics) interface{} { return t.eng.Rejected })
	f("bqs_sessions_active", "gauge", "Device sessions currently open: devices seen and not idle-evicted since; a flush ends none.",
		func(t *tenantMetrics) interface{} { return t.eng.ActiveSessions })
	f("bqs_sessions_opened_total", "counter", "Device sessions ever created: a device's first fix, or its first since an eviction; a flush opens none.",
		func(t *tenantMetrics) interface{} { return t.eng.SessionsOpened })
	f("bqs_sessions_evicted_total", "counter", "Sessions closed by idle eviction.",
		func(t *tenantMetrics) interface{} { return t.eng.SessionsEvicted })
	f("bqs_persisted_trails_total", "counter", "Trails handed to the persister: ended sessions, chunks and flushes' cuts.",
		func(t *tenantMetrics) interface{} { return t.eng.Persisted })
	f("bqs_parked_trails", "gauge", "Trajectories parked in memory by degraded mode, awaiting heal.",
		func(t *tenantMetrics) interface{} { return t.eng.ParkedTrails })
	f("bqs_trail_bytes", "gauge", "Trails holding a key point the log has not accepted yet, in encoded bytes: open sessions' plus parked ones; 0 after a flush.",
		func(t *tenantMetrics) interface{} { return t.eng.TrailBytes })
	f("bqs_trail_pages_bytes", "gauge", "Bytes the engine's trail page pools have mapped outside the Go heap, which Go's memory stats do not count; 0 after a flush with nothing parked.",
		func(t *tenantMetrics) interface{} { return t.eng.TrailPagesBytes })
	f("bqs_persist_failures_total", "counter", "Failed persister append/sync attempts, retried ones included.",
		func(t *tenantMetrics) interface{} { return t.eng.PersistFailures })
	f("bqs_compact_failures_total", "counter", "Failed compaction passes.",
		func(t *tenantMetrics) interface{} { return t.log.CompactFailures })
	f("bqs_compact_rewritten_bytes_total", "counter", "Bytes written by published compactions; over what was appended, the write amplification.",
		func(t *tenantMetrics) interface{} { return t.log.Rewritten })
	f("bqs_compact_reclaimed_bytes", "counter", "Net disk bytes freed by published compactions.",
		func(t *tenantMetrics) interface{} { return t.log.Reclaimed })
	f("bqs_degraded", "gauge", "1 while the engine is in degraded read-only mode.",
		func(t *tenantMetrics) interface{} { return b2i(t.degraded) })
	f("bqs_queue_depth", "gauge", "Queued ingest batches, summed over shards.",
		func(t *tenantMetrics) interface{} { return t.eng.Queued })
	f("bqs_queue_capacity", "gauge", "Per-shard ingest queue capacity in batches.",
		func(t *tenantMetrics) interface{} { return engine.QueueDepth })
	f("bqs_queue_fullness", "gauge", "Worst shard queue occupancy fraction in [0, 1].",
		func(t *tenantMetrics) interface{} { return t.eng.QueueFullness })
	f("bqs_cache_hits_total", "counter", "Read-cache hits (records served without a disk read).",
		func(t *tenantMetrics) interface{} { return t.log.Cache.Hits })
	f("bqs_cache_misses_total", "counter", "Read-cache misses.",
		func(t *tenantMetrics) interface{} { return t.log.Cache.Misses })
	f("bqs_cache_evictions_total", "counter", "Read-cache entries evicted by budget pressure.",
		func(t *tenantMetrics) interface{} { return t.log.Cache.Evictions })
	f("bqs_cache_entries", "gauge", "Read-cache resident entries.",
		func(t *tenantMetrics) interface{} { return t.log.Cache.Entries })
	f("bqs_cache_bytes", "gauge", "Read-cache resident bytes.",
		func(t *tenantMetrics) interface{} { return t.log.Cache.Bytes })
	f("bqs_cache_capacity_bytes", "gauge", "Read-cache byte budget (0 when caching is off).",
		func(t *tenantMetrics) interface{} { return t.log.Cache.Capacity })
	f("bqs_log_segments", "gauge", "Segment files across all shards.",
		func(t *tenantMetrics) interface{} { return t.log.Segments })
	f("bqs_log_records", "gauge", "Records indexed in the segment log.",
		func(t *tenantMetrics) interface{} { return t.log.Records })
	f("bqs_log_devices", "gauge", "Distinct device IDs in the segment log.",
		func(t *tenantMetrics) interface{} { return t.log.Devices })
	f("bqs_log_bytes", "gauge", "Valid bytes on disk, headers included.",
		func(t *tenantMetrics) interface{} { return t.log.Bytes })
	f("bqs_log_unsynced_bytes", "gauge", "Bytes the log accepted that no fsync covers yet; with bqs_trail_bytes, what a SIGKILL now would lose.",
		func(t *tenantMetrics) interface{} { return t.log.Unsynced })
	f("bqs_log_generation", "gauge", "Manifest generation, summed over shards.",
		func(t *tenantMetrics) interface{} { return t.log.Gen })
	_, err := b.WriteTo(w)
	return err
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
