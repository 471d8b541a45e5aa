// The /metrics endpoint: every tenant's engine, queue, cache and
// segment-log counters rendered in the Prometheus text exposition
// format. The handler is plain text on purpose — no client library,
// no registry objects — because the server already has one source of
// truth for each number (engine.Stats, engine.QueueStats,
// segmentlog.Stats) and the scrape path should read those, not
// maintain a parallel set of instrument objects that can drift.
package server

import (
	"fmt"
	"net/http"
	"strings"

	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// tenantMetrics is one tenant's scrape snapshot.
type tenantMetrics struct {
	name     string
	eng      engine.Stats
	queue    engine.QueueStats
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
			queue:    t.eng.QueueStats(),
			degraded: t.eng.State().Cause != nil,
			log:      t.log.Stats(),
		})
	}
	return out
}

// metricFamily emits one family: HELP/TYPE header then a sample per
// tenant, labels escaped per the exposition format.
func metricFamily(b *strings.Builder, name, typ, help string, ts []tenantMetrics, value func(*tenantMetrics) interface{}) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for i := range ts {
		esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(ts[i].name)
		fmt.Fprintf(b, "%s{tenant=\"%s\"} %v\n", name, esc, value(&ts[i]))
	}
}

// MetricsHandler serves the server's internals in the Prometheus text
// format: per tenant, the ingest counters (fixes, key points, rejections),
// session lifecycle, queue occupancy, persist/compact failure tallies, what
// compaction wrote and reclaimed, the read-side cache (hits/misses/
// evictions/size), and the segment log's shape (segments, records, bytes,
// generation). Scraping is safe at any time, including during Shutdown —
// each number is an atomic or mutex-guarded snapshot read.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ts := s.snapshotMetrics()
		var b strings.Builder
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
		f("bqs_persist_failures_total", "counter", "Failed persister append/sync attempts, retried ones included.",
			func(t *tenantMetrics) interface{} { return t.eng.PersistFailures })
		f("bqs_compact_failures_total", "counter", "Failed compaction passes.",
			func(t *tenantMetrics) interface{} { return t.eng.CompactFailures })
		f("bqs_compact_rewritten_bytes_total", "counter", "Bytes written by published compactions; over what was appended, the write amplification.",
			func(t *tenantMetrics) interface{} { return t.log.Rewritten })
		f("bqs_compact_reclaimed_bytes", "counter", "Net disk bytes freed by published compactions.",
			func(t *tenantMetrics) interface{} { return t.log.Reclaimed })
		f("bqs_degraded", "gauge", "1 while the engine is in degraded read-only mode.",
			func(t *tenantMetrics) interface{} { return b2i(t.degraded) })
		f("bqs_queue_depth", "gauge", "Queued ingest batches, summed over shards.",
			func(t *tenantMetrics) interface{} {
				n := 0
				for _, l := range t.queue.Len {
					n += l
				}
				return n
			})
		f("bqs_queue_capacity", "gauge", "Per-shard ingest queue capacity in batches.",
			func(t *tenantMetrics) interface{} { return t.queue.Cap })
		f("bqs_queue_fullness", "gauge", "Worst shard queue occupancy fraction in [0, 1].",
			func(t *tenantMetrics) interface{} { return t.queue.Fullness() })
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
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String())) // a failed scrape write has no one left to report to
	})
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
