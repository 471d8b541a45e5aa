package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"time"

	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/server"
	"github.com/trajcomp/bqs/internal/synth"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// runServerBench drives the network ingest + query path. With serve
// set it spins up an in-process bqsd-equivalent on a loopback listener
// (persisting into persistDir, or a temporary directory) and drives it;
// with clientAddr set it drives an external daemon instead. Fixes flow
// through the real wire protocol either way — encode, TCP, the frame's
// walk, TryIngestTrail per device batch, retry-after hints honored. The throughput it prints is a
// progress report for this host; the figure of record for the wire path
// is bench/'s server.ingest_kfix_per_s.
func runServerBench(serve bool, clientAddr string, devices, shards, fixesPer int, compName string, tol float64, persistDir string, trailKeys int, segBytes int64) error {
	if devices <= 0 || fixesPer <= 0 {
		return fmt.Errorf("devices and fixes must be positive")
	}

	addr := clientAddr
	if serve {
		dir := persistDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "bqsbench-serve-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		srv, err := server.New(server.Config{
			Dir: dir,
			Engine: engine.Config{
				Compressor:   compName,
				Tolerance:    tol,
				Shards:       shards,
				MaxTrailKeys: trailKeys,
			},
			Log: segmentlog.Options{MaxSegmentBytes: segBytes},
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(ln)
		defer srv.Shutdown()
		addr = ln.Addr().String()
		fmt.Printf("loopback server on %s, data in %s\n", addr, dir)
	}

	fmt.Printf("server benchmark: %d devices × %d fixes via %s, compressor %q, tol %g m\n",
		devices, fixesPer, addr, compName, tol)

	c, err := server.Dial(addr, "bench")
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()

	// Per-device synthetic walks as wire keys (the mapping the server
	// inverts on receipt).
	fmt.Println("generating workload...")
	const m = trajstore.MetersPerDegree
	tracks := make([][]trajstore.GeoKey, devices)
	names := make([]string, devices)
	for d := range tracks {
		wcfg := synth.DefaultWalkConfig(int64(d) + 1)
		wcfg.N = fixesPer
		tracks[d] = trajstore.PointKeysToGeo(synth.Walk(wcfg).Points(), m, m)
		names[d] = fmt.Sprintf("dev-%06d", d)
	}

	// Interleave like a fleet: every frame carries a window of fixes
	// for a group of devices, sized to stay well under the frame cap.
	const fixWindow = 100
	devPerFrame := 1 + (2<<20)/(fixWindow*16)
	var accepted uint64
	start := time.Now()
	for lo := 0; lo < fixesPer; lo += fixWindow {
		hi := lo + fixWindow
		if hi > fixesPer {
			hi = fixesPer
		}
		for d0 := 0; d0 < devices; d0 += devPerFrame {
			d1 := d0 + devPerFrame
			if d1 > devices {
				d1 = devices
			}
			batches := make([]proto.DeviceBatch, 0, d1-d0)
			for d := d0; d < d1; d++ {
				batches = append(batches, proto.DeviceBatch{Device: names[d], Keys: tracks[d][lo:hi]})
			}
			n, err := c.IngestAll(batches, 200)
			if err != nil {
				return fmt.Errorf("ingest: %w", err)
			}
			accepted += n
		}
	}
	ingestElapsed := time.Since(start)

	flushStart := time.Now()
	if err := c.Sync(true); err != nil {
		return fmt.Errorf("sync(flush): %w", err)
	}
	flushElapsed := time.Since(flushStart)
	total := ingestElapsed + flushElapsed

	fmt.Printf("server ingest: %d fixes in %v  (%.0f fixes/s, %.0f ns/fix)\n",
		accepted, ingestElapsed.Round(time.Millisecond),
		float64(accepted)/ingestElapsed.Seconds(), float64(ingestElapsed.Nanoseconds())/float64(accepted))
	fmt.Printf("durable server throughput incl. flush barrier: %.0f fixes/s (flush %v)\n",
		float64(accepted)/total.Seconds(), flushElapsed.Round(time.Millisecond))

	// Query the durable result back over the wire: one device's full
	// trail, then a full-extent window.
	qStart := time.Now()
	recs, err := c.QueryTime(names[0], 0, math.MaxUint32)
	if err != nil {
		return fmt.Errorf("query time: %w", err)
	}
	fmt.Printf("server query (device): %d records in %v\n", len(recs), time.Since(qStart).Round(time.Microsecond))
	qStart = time.Now()
	w, err := c.QueryWindow(-180, -90, 180, 90, 0, math.MaxUint32)
	if err != nil {
		return fmt.Errorf("query window: %w", err)
	}
	fmt.Printf("server query (full window): %d records in %v\n", len(w), time.Since(qStart).Round(time.Millisecond))
	if len(recs) == 0 || len(w) == 0 {
		return fmt.Errorf("durable queries returned nothing (device %d, window %d records)", len(recs), len(w))
	}
	return nil
}
