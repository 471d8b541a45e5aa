// Command bqsd is the BQS trajectory daemon: a TCP server that runs
// the durable sharded ingestion engine behind the length-prefixed
// binary frame protocol (internal/proto). Devices stream batched fixes
// in; the server compresses them online (per-device sessions, bounded
// deviation), persists finalized trajectories to per-tenant sharded
// segment logs, and answers spatio-temporal window and per-device
// time-range queries from the log plus the trails not yet in it.
//
// Usage:
//
//	bqsd -dir data [-addr 127.0.0.1:4980] [-tol 10] [-shards N]
//	     [-idle 5m] [-trail N] [-segbytes N] [-cache-mb N]
//	     [-compact-interval 10m] [-drain-timeout 10s]
//	     [-metrics 127.0.0.1:4981]
//
// With -metrics set, a second listener answers HTTP/1.1 GET /metrics:
// per-tenant ingest, session, queue, persist/compact-failure, read-cache
// and segment-log counters in the Prometheus text format. It is a small
// responder (server.ServeMetrics), not net/http — every answer closes its
// connection, other paths get 404 — so the daemon links no HTTP/2, TLS or
// gzip code; it stays up through the drain. -cache-mb sizes the
// per-tenant read cache that makes repeated window queries serve from
// memory (0 disables it). -compact-interval gives each tenant log a
// merge/dedup compaction policy that the log itself ticks that often (a
// negative one is refused before listening); its drain then seals and
// merges the whole log.
//
// Each tenant named in a connection's handshake gets its own engine
// and flock-guarded log directory under -dir. Ingest is explicitly
// backpressured: a batch landing on a full shard queue (256 batches) is
// rejected in the ack with a retry-after hint of 50 to 100 ms, longer the
// fuller the worst queue — the daemon never buffers rejected fixes,
// each shard log fsyncs on its own once 256 KiB of accepted records
// wait, and a query's answer is the stored blocks its read holds,
// uncopied and cut off at proto.MaxFrame (4 MiB) of them, so memory stays
// bounded no matter how far the disk falls behind or how wide a window is
// (server.Client.IngestAll resends rejected batches after the hint).
//
// On SIGTERM/SIGINT the daemon drains: it stops accepting, aborts idle
// connection reads, waits up to -drain-timeout for in-flight requests,
// then flushes every tenant's sessions, syncs, runs a final compaction
// and closes the logs. Exit status is non-zero if the drain surfaced a
// persistence error.
//
// SIGHUP is the operator's heal lever. A tenant whose disk failed for
// good (full, gone) runs degraded: ingest is refused, queries still
// answer, and the trajectories acked before the fault wait in memory.
// After clearing the fault (free space, remount), SIGHUP makes every
// such tenant re-probe its log, write out what it parked and take fixes
// again — no restart. The outcome is logged per tenant; on healthy
// tenants it is a no-op.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/server"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:4980", "listen address")
		dir          = flag.String("dir", "", "data directory; tenant logs live in per-name subdirectories (required)")
		compressor   = flag.String("compressor", "", "compressor each session runs (default: engine default, fbqs)")
		tol          = flag.Float64("tol", 10, "deviation tolerance in metres")
		shards       = flag.Int("shards", 0, "shards per tenant engine/log (0 = GOMAXPROCS; an existing log keeps its persisted count)")
		idle         = flag.Duration("idle", 0, "evict a device session after this long without a fix (0 = only on drain)")
		trail        = flag.Int("trail", 0, "max per-session key points before chunking to disk (0 = engine default)")
		segBytes     = flag.Int64("segbytes", 0, "segment file rotation size in bytes (0 = log default)")
		cacheMB      = flag.Int64("cache-mb", 0, "read-side record cache budget per tenant, in MiB (0 = off)")
		metricsAddr  = flag.String("metrics", "", "HTTP listen address for /metrics (empty = no metrics endpoint)")
		compactEvery = flag.Duration("compact-interval", 0, "per-tenant merge/dedup compaction: each log ticks this often, rewriting what was sealed since the last tick, and the drain seals and merges the whole log (0 = neither)")
		drain        = flag.Duration("drain-timeout", server.DefaultDrainTimeout, "max wait for in-flight connections on shutdown")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "bqsd: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	logOpts := segmentlog.Options{MaxSegmentBytes: *segBytes, CacheBytes: *cacheMB << 20}
	if *compactEvery != 0 { // server.New refuses a negative period
		logOpts.Compaction = &segmentlog.CompactionPolicy{MergeChunks: true, Every: *compactEvery}
	}
	srv, err := server.New(server.Config{
		Dir: *dir,
		Engine: engine.Config{
			Compressor:   *compressor,
			Tolerance:    *tol,
			Shards:       *shards,
			IdleTimeout:  *idle,
			MaxTrailKeys: *trail,
		},
		Log:          logOpts,
		DrainTimeout: *drain,
	})
	if err != nil {
		log.Fatalf("bqsd: %v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("bqsd: %v", err)
	}
	// The bound address goes to stdout on its own line so wrappers
	// (smoke tests, the end-to-end bench) can use -addr :0.
	fmt.Printf("bqsd: listening on %s\n", ln.Addr())
	log.Printf("bqsd: data dir %s, tolerance %g m", *dir, *tol)

	var mln net.Listener
	metricsDone := make(chan struct{})
	if *metricsAddr != "" {
		if mln, err = net.Listen("tcp", *metricsAddr); err != nil {
			log.Fatalf("bqsd: metrics: %v", err)
		}
		fmt.Printf("bqsd: metrics on http://%s/metrics\n", mln.Addr())
		go func() {
			defer close(metricsDone)
			if err := srv.ServeMetrics(mln); err != nil {
				log.Printf("bqsd: metrics server: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	for serving := true; serving; {
		select {
		case s := <-sig:
			if s == syscall.SIGHUP {
				heal(srv)
				continue
			}
			log.Printf("bqsd: %v — draining", s)
		case err := <-serveErr:
			if err != nil {
				log.Printf("bqsd: accept loop failed: %v — draining", err)
			}
		}
		serving = false
	}
	// /metrics stays up through the drain, so its flush, sync and final
	// compaction can be watched; it closes once they are done.
	err = srv.Shutdown()
	if mln != nil {
		_ = mln.Close() // scrape connections carry no durable state
		<-metricsDone
	}
	if err != nil {
		log.Fatalf("bqsd: drain: %v", err)
	}
	log.Print("bqsd: drained clean")
}

// heal pulls the SIGHUP lever and logs what came of it per tenant: the
// ones healed, and — one line of the error each — the ones still
// degraded and why. With no degraded tenant open it is a no-op.
func heal(srv *server.Server) {
	healed, err := srv.Heal()
	log.Printf("bqsd: SIGHUP — heal: parked trails written out and ingest resumed for tenants %q", healed)
	if err != nil {
		log.Printf("bqsd: SIGHUP — still degraded: %v", err)
	}
}
