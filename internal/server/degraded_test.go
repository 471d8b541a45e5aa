package server

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// TestDegradedModeEndToEnd drives the whole degraded-mode lifecycle
// over a loopback connection with a fault-injected disk. A healthy
// batch lands durably; then the disk "fills" (sustained ENOSPC via
// vfs.FaultFS) and the next durability barrier latches the tenant's
// engine degraded: ingest acks carry the degraded flag, IngestAll
// stops resending with ErrDegraded, and queries keep answering — from
// the durable generation and from the trails parked in memory. Clearing
// the fault and calling Server.Heal resumes ingest — and the fixes acked
// while the disk was sick drain to disk, so no acked data is lost.
func TestDegradedModeEndToEnd(t *testing.T) {
	srv, c, fs, _, acked := degradedFleet(t)
	parkedB := polyline(t, c, "dev-b", "degraded")
	// Phase 3: the operator clears the fault and heals. The engine
	// re-probes its persister (salvaging the poisoned segment), drains
	// the trails parked while degraded, and resumes taking fixes.
	fs.ClearRules()
	if healed, err := srv.Heal(); err != nil || len(healed) != 1 || healed[0] != "fleet" {
		t.Fatalf("Heal after clearing the fault = %v, %v; want the fleet tenant healed", healed, err)
	}
	trackD := track(3, 40)
	if _, err := c.IngestAll([]proto.DeviceBatch{{Device: "dev-d", Keys: trackD}}, 20); err != nil {
		t.Fatalf("IngestAll after heal: %v", err)
	}
	if err := c.Sync(true); err != nil {
		t.Fatalf("Sync after heal: %v", err)
	}

	// No lost acked fixes: every batch that was acked — including those
	// acked while the disk was failing — is durable in full.
	acked["dev-d"] = trackD
	for dev, keys := range acked {
		coverage(t, c, dev, keys, "healed")
	}
	// The track that was parked now comes from the log: the same polyline
	// as while it sat in memory, no pair of it served twice.
	if got := polyline(t, c, "dev-b", "healed"); !reflect.DeepEqual(got, parkedB) {
		t.Fatalf("dev-b after Heal: %d key points %v, %d while parked %v", len(got), got, len(parkedB), parkedB)
	}
}

// TestHealNoop: Heal on a healthy server (and on one with no tenants
// opened yet) is a no-op; on a shut-down server it reports closure.
func TestHealNoop(t *testing.T) {
	srv, addr := startServer(t, Config{Dir: t.TempDir(), Engine: engine.Config{Tolerance: 2}})
	if healed, err := srv.Heal(); err != nil || len(healed) != 0 {
		t.Fatalf("Heal with no tenants = %v, %v", healed, err)
	}
	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.IngestAll([]proto.DeviceBatch{{Device: "dev", Keys: track(0, 8)}}, 20); err != nil {
		t.Fatal(err)
	}
	if healed, err := srv.Heal(); err != nil || len(healed) != 0 {
		t.Fatalf("Heal on a healthy tenant = %v, %v", healed, err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Heal(); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Heal after Shutdown = %v, want ErrServerClosed", err)
	}
}

// polyline is what the wire holds of a device, as bench/oracle.go reads
// it: QueryTime's records in time order, concatenated, the key point that
// consecutive chunks share kept once. A consecutive pair served twice
// fails the test.
func polyline(t *testing.T, c *Client, dev, ctx string) []trajstore.GeoKey {
	t.Helper()
	recs, err := c.QueryTime(dev, 0, math.MaxUint32)
	if err != nil {
		t.Fatalf("%s: query %s: %v", ctx, dev, err)
	}
	return canonical(t, recs, dev+", "+ctx)
}

func canonical(t *testing.T, recs []trajstore.PersistedRecord, ctx string) (canon []trajstore.GeoKey) {
	t.Helper()
	sort.SliceStable(recs, func(i, j int) bool {
		return recs[i].T0 < recs[j].T0 || recs[i].T0 == recs[j].T0 && recs[i].T1 < recs[j].T1
	})
	seen := map[[2]trajstore.GeoKey]bool{}
	for _, rec := range recs {
		for i, k := range rec.Keys {
			if p := [2]trajstore.GeoKey{rec.Keys[max(i-1, 0)], k}; i > 0 {
				if seen[p] {
					t.Fatalf("%s: the pair %v is served twice", ctx, p)
				}
				seen[p] = true
			}
			if n := len(canon); n == 0 || canon[n-1] != k {
				canon = append(canon, k)
			}
		}
	}
	return canon
}

// coverage asserts over the wire that a device's records span exactly the
// acked track.
func coverage(t *testing.T, c *Client, dev string, keys []trajstore.GeoKey, ctx string) {
	t.Helper()
	recs, err := c.QueryTime(dev, 0, math.MaxUint32)
	if err != nil {
		t.Fatalf("%s: query %s: %v", ctx, dev, err)
	}
	covers(t, recs, dev, keys, ctx)
}

// covers asserts records span exactly the acked track: first fix time
// through last fix time.
func covers(t *testing.T, recs []trajstore.PersistedRecord, dev string, keys []trajstore.GeoKey, ctx string) {
	t.Helper()
	if len(recs) == 0 {
		t.Fatalf("%s: %s has no durable records — acked fixes lost", ctx, dev)
	}
	lo, hi := recs[0].T0, recs[0].T1
	for _, r := range recs[1:] {
		if r.T0 < lo {
			lo = r.T0
		}
		if r.T1 > hi {
			hi = r.T1
		}
	}
	if lo != keys[0].T || hi != keys[len(keys)-1].T {
		t.Fatalf("%s: %s durable span [%d,%d], want [%d,%d]",
			ctx, dev, lo, hi, keys[0].T, keys[len(keys)-1].T)
	}
}

// degradedFleet starts a server over a fault-injected disk and drives
// its "fleet" tenant into degraded mode: track A lands durably, then the
// disk "fills" (sustained ENOSPC), tracks B and E are acked into memory,
// the next barrier degrades the engine and the flush after it parks their
// trails. The degraded contract is checked on the way: acks carry the
// flag, IngestAll stops resending, queries keep answering — the parked
// track included. acked is every track acked, by device.
func degradedFleet(t *testing.T) (srv *Server, c *Client, fs *vfs.FaultFS, dir string, acked map[string][]trajstore.GeoKey) {
	t.Helper()
	fs, dir = vfs.NewFaultFS(7), t.TempDir()
	srv, addr := startServer(t, Config{
		Dir:    dir,
		Engine: engine.Config{Tolerance: 2, Shards: 1, MaxTrailKeys: 16},
		Log:    segmentlog.Options{FS: fs},
	})
	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	// Phase 1: healthy ingest, made durable by a flush barrier.
	trackA := track(0, 40)
	if _, err := c.IngestAll([]proto.DeviceBatch{{Device: "dev-a", Keys: trackA}}, 20); err != nil {
		t.Fatalf("healthy IngestAll: %v", err)
	}
	if err := c.Sync(true); err != nil {
		t.Fatalf("healthy Sync: %v", err)
	}
	coverage(t, c, "dev-a", trackA, "healthy phase")

	// Phase 2: the disk fills. Batch B is small enough (< MaxTrailKeys
	// key points) to sit whole on its session's trail; E's first chunks go
	// into the log's write-behind buffer. The acks are honest: nothing
	// has touched the disk yet. The next barrier does — ENOSPC is
	// terminal, so the engine latches degraded, and the log withdraws E's
	// chunks, of unknown on-disk state, until it can salvage them — and
	// the flush barrier after it finalizes both sessions into a degraded
	// engine, which parks their trails.
	fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Fault: vfs.FaultENOSPC})
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Fault: vfs.FaultENOSPC})
	trackB, trackE := track(1, 10), track(4, 40)
	acked = map[string][]trajstore.GeoKey{"dev-a": trackA, "dev-b": trackB, "dev-e": trackE}
	if _, err := c.IngestAll([]proto.DeviceBatch{{Device: "dev-b", Keys: trackB}, {Device: "dev-e", Keys: trackE}}, 20); err != nil {
		t.Fatalf("IngestAll into memory with sick disk: %v", err)
	}
	for _, flush := range []bool{false, true} {
		if err := c.Sync(flush); err == nil {
			t.Fatalf("Sync(%v) with sustained ENOSPC reported success", flush)
		}
	}
	if v := metricValue(t, scrape(t, srv), "bqs_parked_trails", "fleet"); v != 2 {
		t.Fatalf("bqs_parked_trails = %v after the flush into a degraded engine, want 2", v)
	}

	// Degraded: acks carry the flag with nothing accepted, and
	// IngestAll gives up immediately instead of hammering the backend.
	probe := []proto.DeviceBatch{{Device: "dev-c", Keys: track(2, 8)}}
	ack, err := c.Ingest(probe)
	if err != nil {
		t.Fatalf("Ingest while degraded: %v", err)
	}
	if !ack.Degraded || ack.Accepted != 0 {
		t.Fatalf("degraded ack = %+v, want Degraded with 0 accepted", ack)
	}
	if _, err := c.IngestAll(probe, 20); !errors.Is(err, ErrDegraded) {
		t.Fatalf("IngestAll while degraded = %v, want ErrDegraded", err)
	}

	// Queries still answer: from the durable generation, and — for the
	// track acked since — from the trail parked in memory.
	coverage(t, c, "dev-a", trackA, "degraded phase")
	coverage(t, c, "dev-b", trackB, "degraded phase")
	recs, err := c.QueryWindow(-1, -1, 2, 2, 0, math.MaxUint32)
	if err != nil {
		t.Fatalf("window query while degraded: %v", err)
	}
	if got := canonical(t, byDevice(recs)["dev-b"], "dev-b, window query while degraded"); !reflect.DeepEqual(got, polyline(t, c, "dev-b", "degraded phase")) || len(got) < 3 {
		t.Fatalf("window query while degraded: dev-b's parked track as %d key points, QueryTime has another polyline", len(got))
	}
	return srv, c, fs, dir, acked
}

// TestShutdownDrainsParkedTrails is the restart path an operator takes
// when no one sent SIGHUP: the fault is cleared, the tenant is still
// degraded, the daemon is told to drain. The engine's Close writes the
// parked trails out itself, so the reopened directory holds every acked
// fix — including the batch acked while the disk was failing.
func TestShutdownDrainsParkedTrails(t *testing.T) {
	srv, c, fs, dir, acked := degradedFleet(t)
	fs.ClearRules()
	c.Close()
	// Shutdown's own Sync still reports the degraded engine — no Heal ran —
	// but Close must have nothing to report dropped.
	if err := srv.Shutdown(); err != nil && (!errors.Is(err, engine.ErrDegraded) || strings.Contains(err.Error(), "dropped")) {
		t.Fatalf("Shutdown with the fault cleared = %v", err)
	}
	lg, err := segmentlog.OpenSharded(filepath.Join(dir, "fleet"), 0, segmentlog.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer lg.Close()
	for dev, keys := range acked {
		recs, err := lg.Query(dev, 0, math.MaxUint32)
		if err != nil {
			t.Fatal(err)
		}
		covers(t, recs, dev, keys, "reopened after Shutdown")
	}
}
