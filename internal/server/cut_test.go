package server

import (
	"math"
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
				Dir:    t.TempDir(),
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
