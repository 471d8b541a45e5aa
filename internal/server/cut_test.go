package server

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// TestFlushCutsOnePolyline is proto.Sync's flush bullet end to end: a
// device that keeps reporting across Sync(true) barriers stays one
// trajectory. Its records — 16-key chunks and what each flush cut — chain
// key to key over the wire and spell OnKey's sequence, one session was ever
// opened, and once its segments are sealed a compaction pass leaves it one
// record. Degraded, the disk fills before the second flush, so that cut's
// trail parks; Heal re-appends it behind the chunks the log withdrew, and
// the chain still joins.
func TestFlushCutsOnePolyline(t *testing.T) {
	for _, tc := range []struct {
		name     string
		degraded bool
	}{{"healthy", false}, {"degraded", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var emitted onKeyLog
			fs := vfs.NewFaultFS(7)
			srv, addr := startServer(t, Config{
				Dir:    "/srv",
				Engine: engine.Config{Tolerance: 2, Shards: 1, MaxTrailKeys: 16, OnKey: emitted.onKey},
				Log:    segmentlog.Options{FS: fs, MaxSegmentBytes: 1024, Compaction: &segmentlog.CompactionPolicy{MergeChunks: true}},
			})
			c, err := Dial(addr, "fleet")
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			send := func(dev string, keys []trajstore.GeoKey) {
				t.Helper()
				if _, err := c.IngestAll([]proto.DeviceBatch{{Device: dev, Keys: keys}}, 20); err != nil {
					t.Fatalf("IngestAll: %v", err)
				}
			}
			flush := func(ctx string) {
				t.Helper()
				if err := c.Sync(true); err != nil {
					t.Fatalf("Sync(flush) %s: %v", ctx, err)
				}
				if v := metricValue(t, scrape(t, srv), "bqs_trail_bytes", "fleet"); v != 0 {
					t.Fatalf("bqs_trail_bytes = %v after the flush %s, want 0", v, ctx)
				}
			}

			tr := track(0, 130)
			send("dev-a", tr[:50])
			flush("of the first 50 fixes")
			send("dev-a", tr[50:90])
			if tc.degraded {
				fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Fault: vfs.FaultENOSPC})
				fs.AddRule(vfs.Rule{Op: vfs.OpSync, Fault: vfs.FaultENOSPC})
				for _, flush := range []bool{false, true} { // the barrier degrades, the flush behind it parks
					if err := c.Sync(flush); err == nil {
						t.Fatalf("Sync(%v) with sustained ENOSPC reported success", flush)
					}
				}
				if v := metricValue(t, scrape(t, srv), "bqs_parked_trails", "fleet"); v != 1 {
					t.Fatalf("bqs_parked_trails = %v after a flush into the degraded engine, want the cut trail", v)
				}
				fs.ClearRules()
				if healed, err := srv.Heal(); err != nil || len(healed) != 1 {
					t.Fatalf("Heal = %v, %v", healed, err)
				}
			}
			flush("of fixes 50-90")
			send("dev-a", tr[90:])
			flush("of the rest")
			flush("again, nothing since")

			body := scrape(t, srv)
			if opened, active := metricValue(t, body, "bqs_sessions_opened_total", "fleet"), metricValue(t, body, "bqs_sessions_active", "fleet"); opened != 1 || active != 1 {
				t.Fatalf("bqs_sessions_opened_total = %v, bqs_sessions_active = %v after three flushes of one device, want 1, 1", opened, active)
			}
			want := emitted.all()["dev-a"]
			recs, err := c.QueryTime("dev-a", 0, math.MaxUint32)
			if err != nil {
				t.Fatalf("QueryTime: %v", err)
			}
			if len(recs) < 8 {
				t.Fatalf("%d records for 130 key points chunked at 16 and flushed three times", len(recs))
			}
			for i := 1; i < len(recs); i++ {
				if prev := recs[i-1].Keys; recs[i].Keys[0] != prev[len(prev)-1] {
					t.Fatalf("record %d starts at %+v, record %d ended on %+v", i, recs[i].Keys[0], i-1, prev[len(prev)-1])
				}
			}
			if got := canonical(t, recs, "dev-a, flushed"); !reflect.DeepEqual(got, want) {
				t.Fatalf("the wire holds %d key points, OnKey reported %d:\n%v\n%v", len(got), len(want), got, want)
			}

			// Another device's records rotate dev-a's last ones out of the
			// active segment; the pass then re-joins all of them.
			send("dev-b", track(1, 200))
			flush("of the filler device")
			tn, err := srv.tenant("fleet")
			if err != nil {
				t.Fatal(err)
			}
			if err := tn.eng.CompactNow(); err != nil {
				t.Fatalf("CompactNow: %v", err)
			}
			recs, err = c.QueryTime("dev-a", 0, math.MaxUint32)
			if err != nil || len(recs) != 1 || !reflect.DeepEqual(recs[0].Keys, want) {
				t.Fatalf("after compaction: %d records (%v), want one holding OnKey's %d key points", len(recs), err, len(want))
			}
		})
	}
}

// TestShutdownLeavesOneRecordPerDevice: a drain finishes the merge. Devices
// report through -trail 16 chunking and periodic Sync(flush) into segments
// far too large to rotate, so every chunk and every cut is still in the
// active segment when Shutdown comes; its pass seals that segment first, and
// the reopened log holds each device as one record spelling OnKey's sequence.
// A second clean cycle over the log at rest adds no file.
func TestShutdownLeavesOneRecordPerDevice(t *testing.T) {
	var emitted onKeyLog
	dir := t.TempDir()
	cfg := Config{
		Dir:    dir,
		Engine: engine.Config{Tolerance: 2, Shards: 2, MaxTrailKeys: 16, OnKey: emitted.onKey},
		Log:    segmentlog.Options{Compaction: &segmentlog.CompactionPolicy{MergeChunks: true}},
	}
	srv, addr := startServer(t, cfg)
	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	const devices, rounds, perRound = 5, 3, 40
	for r := 0; r < rounds; r++ {
		for d := 0; d < devices; d++ {
			batch := proto.DeviceBatch{Device: fmt.Sprintf("dev-%d", d), Keys: track(d, rounds*perRound)[r*perRound : (r+1)*perRound]}
			if _, err := c.IngestAll([]proto.DeviceBatch{batch}, 20); err != nil {
				t.Fatalf("IngestAll: %v", err)
			}
		}
		if err := c.Sync(true); err != nil {
			t.Fatalf("Sync(flush) %d: %v", r, err)
		}
	}
	c.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	files := func() []string {
		names, _ := filepath.Glob(filepath.Join(dir, "fleet", "shard-*", "seg-*"))
		return names
	}
	check := func(ctx string) {
		t.Helper()
		lg, err := segmentlog.OpenSharded(filepath.Join(dir, "fleet"), 0, segmentlog.Options{ReadOnly: true})
		if err != nil {
			t.Fatalf("%s: reopen: %v", ctx, err)
		}
		defer lg.Close()
		want := emitted.all()
		if devs := lg.Devices(); len(devs) != devices || len(want) != devices {
			t.Fatalf("%s: the log holds devices %v, OnKey reported %d", ctx, devs, len(want))
		}
		for dev, keys := range want {
			recs, err := lg.Query(dev, 0, math.MaxUint32)
			if err != nil || len(recs) != 1 || !reflect.DeepEqual(recs[0].Keys, keys) {
				t.Fatalf("%s: %s has %d records (%v), want one holding OnKey's %d key points", ctx, dev, len(recs), err, len(keys))
			}
		}
	}
	check("after the drain")
	atRest := files()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("New over the drained directory: %v", err)
	}
	if _, err := srv2.tenant("fleet"); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Shutdown(); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	check("after a second clean cycle")
	if again := files(); !reflect.DeepEqual(again, atRest) {
		t.Fatalf("a clean cycle over a log at rest changed its files: %v → %v", atRest, again)
	}
}
