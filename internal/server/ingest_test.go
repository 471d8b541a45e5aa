package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// blocksOf reads every device's DeviceBlocks, payloads copied.
func blocksOf(t *testing.T, e *engine.Engine, devices []string) map[string][]trajstore.Block {
	t.Helper()
	out := map[string][]trajstore.Block{}
	for _, dev := range devices {
		err := e.DeviceBlocks(dev, 0, math.MaxUint32, func(b trajstore.Block) error {
			b.Payload = bytes.Clone(b.Payload)
			out[dev] = append(out[dev], b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestIngestPathsAgree is the differential behind the daemon's ingest path.
// The same Ingest frames go two ways, into two engines on logs of their own:
// through IngestFrame.Walk and Server.ingest, each batch queued as its block
// (TryIngestTrail), and through ParseIngest, PlanePoint and Engine.Ingest.
// The frames chunk trails (MaxTrailKeys 4), are cut by flushes, carry an
// empty batch and keys exactly at ±90°/±180°, and the first way sees
// batches refused by backpressure — its shard workers parked in OnKey behind
// queues filled to capacity — and resent, with a hint of 50 to 100 ms.
// Every device's DeviceBlocks must be byte for byte the same, before and
// after the final flush, and so must Stats, but for the refusals.
func TestIngestPathsAgree(t *testing.T) {
	gate, parked := make(chan struct{}), make(chan struct{}, 64)
	open := func(onKey func(string, core.Point)) *engine.Engine {
		lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(engine.Config{Tolerance: 2, Shards: 2, MaxTrailKeys: 4, Persister: lg, OnKey: onKey})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() }) // closed below; a failed test's engines only need stopping
		return e
	}
	engA := open(func(dev string, _ core.Point) {
		if strings.HasPrefix(dev, "park") {
			parked <- struct{}{}
			<-gate
		}
	})
	engB := open(nil)
	srv, tn := &Server{}, &tenant{name: "a", eng: engA}

	var devices, parkers, fillers []string
	for d := 0; d < 12; d++ {
		devices = append(devices, fmt.Sprintf("dev-%03d", d))
	}
	for i := 0; len(parkers) < 2; i++ { // one parker per shard
		if name := fmt.Sprintf("park-%d", i); trajstore.ShardIndex(name, 2) == len(parkers) {
			parkers = append(parkers, name)
		}
	}
	for i := 0; len(fillers) < 2; i++ { // and one filler, whose batches fill its queue
		if name := fmt.Sprintf("fill-%d", i); trajstore.ShardIndex(name, 2) == len(fillers) {
			fillers = append(fillers, name)
		}
	}
	pole := []trajstore.GeoKey{
		{Lat: 90, Lon: 180, T: 10}, {Lat: -90, Lon: -180, T: 20}, {Lat: 90, Lon: -180, T: 30},
		{Lat: 0, Lon: 180, T: 40}, {Lat: -90, Lon: 180, T: 50}, {Lat: 90, Lon: 0, T: 60},
	}
	const frames, per = 8, 15
	tracks := make([][]trajstore.GeoKey, len(devices))
	for d := range tracks {
		tracks[d] = track(d, frames*per)
	}
	frame := func(i int) []proto.DeviceBatch {
		var bs []proto.DeviceBatch
		for d, dev := range devices {
			bs = append(bs, proto.DeviceBatch{Device: dev, Keys: tracks[d][i*per : (i+1)*per]})
		}
		if i < 2 {
			bs = append(bs, proto.DeviceBatch{Device: "pole", Keys: pole[i*3 : i*3+3]}, proto.DeviceBatch{Device: "idle"})
		}
		return bs
	}

	// viaTrails sends batches through the daemon's path until all are taken,
	// calling refused after the first round that had any refusal.
	refusedFixes := 0
	viaTrails := func(bs []proto.DeviceBatch, refused func()) {
		for len(bs) > 0 {
			p, err := proto.AppendIngest(nil, proto.Ingest{Seq: 1, Batches: bs})
			if err != nil {
				t.Fatal(err)
			}
			var f proto.IngestFrame
			if err := f.Walk(p); err != nil {
				t.Fatal(err)
			}
			ack := srv.ingest(tn, &f)
			if ack.Err != "" || ack.Degraded {
				t.Fatalf("ack %+v", ack)
			}
			if hint := ack.RetryAfterMillis; len(ack.Rejected) > 0 && (hint < 50 || hint > 100) {
				t.Fatalf("retry hint %d ms, want 50 to 100", hint)
			}
			var again []proto.DeviceBatch
			for _, i := range ack.Rejected {
				again = append(again, bs[i])
				refusedFixes += len(bs[i].Keys)
			}
			if bs = again; len(bs) > 0 {
				if refused != nil {
					refused()
					refused = nil
				} else {
					time.Sleep(time.Millisecond)
				}
			}
		}
	}
	viaFixes := func(bs []proto.DeviceBatch) {
		p, err := proto.AppendIngest(nil, proto.Ingest{Seq: 1, Batches: bs})
		if err != nil {
			t.Fatal(err)
		}
		m, err := proto.ParseIngest(p)
		if err != nil {
			t.Fatal(err)
		}
		var fixes []engine.Fix
		for _, b := range m.Batches {
			fixes = append(fixes, toFixes(b.Device, b.Keys)...)
		}
		if err := engB.Ingest(fixes); err != nil {
			t.Fatal(err)
		}
	}

	const parkAt = 3
	for i := 0; i < frames; i++ {
		bs := frame(i)
		var refused func()
		if i == parkAt {
			var park []proto.DeviceBatch
			for _, dev := range parkers {
				park = append(park, proto.DeviceBatch{Device: dev, Keys: []trajstore.GeoKey{{Lat: 1, Lon: 1, T: 1}}})
			}
			viaTrails(park, nil)
			viaFixes(park)
			for range parkers {
				<-parked
			}
			var fill []proto.DeviceBatch
			for d, dev := range fillers {
				for k := 0; k < engine.QueueDepth; k++ {
					fill = append(fill, proto.DeviceBatch{Device: dev, Keys: []trajstore.GeoKey{{Lat: 2 + float64(d), Lon: 2 + float64(k)*1e-4, T: uint32(k + 1)}}})
				}
			}
			viaTrails(fill, nil)
			viaFixes(fill)
			refused = func() { close(gate) }
		}
		viaTrails(bs, refused)
		if i == parkAt && refusedFixes == 0 {
			t.Fatal("no batch was refused while the shard workers were parked")
		}
		viaFixes(bs)
		if i == 2 || i == 5 {
			if err := errors.Join(engA.FlushSessions(), engB.FlushSessions()); err != nil {
				t.Fatal(err)
			}
		}
	}

	all := append(append(append(devices, parkers...), fillers...), "pole", "idle")
	compare := func(when string) {
		t.Helper()
		if err := errors.Join(engA.Sync(), engB.Sync()); err != nil {
			t.Fatal(err)
		}
		a, b := blocksOf(t, engA, all), blocksOf(t, engB, all)
		for _, dev := range all {
			if len(a[dev]) != len(b[dev]) {
				t.Fatalf("%s, %s: %d blocks as trails, %d as fixes", when, dev, len(a[dev]), len(b[dev]))
			}
			for i := range a[dev] {
				if x, y := a[dev][i], b[dev][i]; x.Device != y.Device || x.T0 != y.T0 || x.T1 != y.T1 || !bytes.Equal(x.Payload, y.Payload) {
					t.Fatalf("%s, %s, block %d: %+v as trails, %+v as fixes", when, dev, i, x, y)
				}
			}
		}
		if len(a["pole"]) == 0 || len(a["idle"]) != 0 {
			t.Fatalf("%s: %d pole blocks, %d idle blocks", when, len(a["pole"]), len(a["idle"]))
		}
		sa, sb := engA.Stats(), engB.Stats()
		if sa.Rejected != uint64(refusedFixes) || sb.Rejected != 0 {
			t.Fatalf("%s: %d fixes rejected as trails (%d refused), %d as fixes", when, sa.Rejected, refusedFixes, sb.Rejected)
		}
		if sa.Rejected = 0; sa != sb {
			t.Fatalf("%s: Stats as trails %+v, as fixes %+v", when, sa, sb)
		}
	}
	compare("before the final flush")
	if err := errors.Join(engA.FlushSessions(), engB.FlushSessions()); err != nil {
		t.Fatal(err)
	}
	compare("after it")
	if err := errors.Join(engA.Close(), engB.Close()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkServerFrame is the daemon's per-frame ingest path without the
// socket: one 50-device × 100-fix Ingest frame (fleet-smooth's shape) walked
// and handed over batch by batch (Server.ingest → Engine.TryIngestTrail) to a
// persister-less single-shard engine, whose worker decodes and pushes the
// fixes concurrently. A Sync every 4 frames keeps at most 200 batches
// queued, inside the default 256 slots, so none is refused and the figure is
// the path's throughput, the worker's decode and Push included. It reports
// ns/fix; allocs/op is per frame — one per device batch (its name) and none
// per fix.
func BenchmarkServerFrame(b *testing.B) {
	e, err := engine.New(engine.Config{Tolerance: 10, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	srv, tn := &Server{}, &tenant{name: "bench", eng: e}
	const devices, perDevice = 50, 100
	batches := make([]proto.DeviceBatch, devices)
	for d := range batches {
		batches[d] = proto.DeviceBatch{Device: fmt.Sprintf("dev-%03d", d), Keys: track(d, perDevice)}
	}
	p, err := proto.AppendIngest(nil, proto.Ingest{Seq: 1, Batches: batches})
	if err != nil {
		b.Fatal(err)
	}
	var f proto.IngestFrame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Walk(p); err != nil {
			b.Fatal(err)
		}
		if ack := srv.ingest(tn, &f); len(ack.Rejected) > 0 || ack.Err != "" {
			b.Fatalf("ack %+v", ack)
		}
		if i%4 == 3 {
			if err := e.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Sync(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*devices*perDevice), "ns/fix")
}
