package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/synth"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// cutRun is one engine run of the cut test: the fixes of a few devices fed
// round-robin, a batch at a time, with FlushSessions where flushAt says.
type cutRun struct {
	stats   Stats
	keys    map[string][]core.Point // OnKey's sequence
	records map[string][][]trajstore.GeoKey
	cutAt   map[string][]int // per device: how many of its fixes were in when each flush ran
}

func runCut(t *testing.T, name string, tracks map[string][]core.Point, flushAt func(step int, chunked bool) int) cutRun {
	t.Helper()
	var emitted keyLog
	b := &scriptBackend{}
	e, err := New(Config{Compressor: name, Tolerance: cutTol, Shards: 2, MaxTrailKeys: 6, Persister: b, OnKey: emitted.onKey})
	if err != nil {
		t.Fatal(err)
	}
	run := cutRun{cutAt: map[string][]int{}}
	sent, records := map[string]int{}, 0
	for step := 0; ; step++ {
		var batch []Fix
		for dev, tr := range tracks {
			for n := min(1+step%4, len(tr)-sent[dev]); n > 0; n-- {
				batch = append(batch, Fix{Device: dev, Point: tr[sent[dev]]})
				sent[dev]++
			}
		}
		if len(batch) == 0 {
			break
		}
		if err := e.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if err := e.barrier(e.shards, nil); err != nil {
			t.Fatal(err)
		}
		was := records
		records = int(e.Stats().Persisted)
		for n := flushAt(step, records > was); n > 0; n-- {
			if err := e.FlushSessions(); err != nil {
				t.Fatal(err)
			}
			if tb := e.Stats().TrailBytes; tb != 0 {
				t.Fatalf("step %d: TrailBytes = %d after a flush", step, tb)
			}
			records = int(e.Stats().Persisted)
			for dev := range tracks {
				run.cutAt[dev] = append(run.cutAt[dev], sent[dev])
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	run.stats, run.keys, run.records = e.Stats(), emitted.keys, b.held
	return run
}

const cutTol = 10.0

// TestCutHoldsBoundEveryCompressor: a flush cuts a trajectory and does not
// end it, for every registered compressor. Engines run seeded smooth and
// cut-heavy tracks with FlushSessions at random points — twice in a row,
// before a device's first far point, right after a MaxTrailKeys chunk — and
// every raw fix must lie within the compressor's bound of its device's one
// polyline (the deviation TestRegistryErrorBound measures per name), no key
// point may be reported or stored twice, every record must join the one
// before it, and a flush may cost a device one key point, not two.
func TestCutHoldsBoundEveryCompressor(t *testing.T) {
	tracks := map[string][]core.Point{}
	for d := int64(1); d <= 3; d++ {
		tracks[fmt.Sprintf("walk-%d", d)] = deviceTrack(d, 300)
		tracks[fmt.Sprintf("grid-%d", d)] = synth.StreetGrid(d, 300)
	}
	for _, name := range stream.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			plain := runCut(t, name, tracks, func(int, bool) int { return 0 })
			rng := rand.New(rand.NewSource(7))
			flushes := 0
			cut := runCut(t, name, tracks, func(step int, chunked bool) (n int) {
				switch {
				case step == 0: // one fix a device in: nothing far yet
					n = 1
				case chunked && rng.Intn(2) == 0:
					n = 1
				case rng.Intn(6) == 0:
					n = 1 + rng.Intn(2)
				}
				flushes += n
				return n
			})
			if flushes < 20 {
				t.Fatalf("only %d flushes: the schedule is not testing much", flushes)
			}
			if got, most := cut.stats.KeyPoints, plain.stats.KeyPoints+uint64(flushes*len(tracks)); got > most {
				t.Errorf("%d key points with %d flushes of %d devices, %d without: more than one a flush a device", got, flushes, len(tracks), plain.stats.KeyPoints)
			}
			if cut.stats.SessionsOpened != uint64(len(tracks)) {
				t.Errorf("SessionsOpened = %d for %d devices", cut.stats.SessionsOpened, len(tracks))
			}
			var stored uint64
			for dev, track := range tracks {
				keys := cut.keys[dev]
				stored += uint64(len(keys))
				for i := 1; i < len(keys); i++ {
					if keys[i].T <= keys[i-1].T {
						t.Fatalf("%s: OnKey got %+v after %+v: reported twice, or out of order", dev, keys[i], keys[i-1])
					}
				}
				var whole trajstore.Trail
				for i, rec := range cut.records[dev] {
					var next trajstore.Trail
					if err := next.Add(rec...); err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						whole = next
					} else if !whole.Join(&next) {
						t.Fatalf("%s: record %d (%d keys from %+v) does not join the one before it", dev, i, len(rec), rec[0])
					}
				}
				want := make([]trajstore.GeoKey, len(keys))
				for i, k := range keys {
					want[i] = quantize(trajstore.PlaneKey(k))
				}
				if got := whole.Keys(); len(got) != len(want) {
					t.Fatalf("%s: the records join to %d keys, OnKey got %d", dev, len(got), len(want))
				} else {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: stored key %d is %+v, OnKey got %+v", dev, i, got[i], want[i])
						}
					}
				}
				if worst := cutDeviation(t, name, track, keys, cut.cutAt[dev]); worst > cutTol*(1+1e-9) {
					t.Errorf("%s: worst deviation %g exceeds the bound %g", dev, worst, cutTol)
				}
			}
			if stored != cut.stats.KeyPoints {
				t.Errorf("KeyPoints = %d, OnKey got %d", cut.stats.KeyPoints, stored)
			}
		})
	}
}

// cutDeviation is the worst deviation of a device's fixes from what its key
// points say, as the compressor states its bound (stream.Deviation, which
// TestRegistryErrorBound holds every name to on whole tracks), taken over
// the pieces the flushes cut the track into (cutAt: fixes in when each
// ran). A cut restarts the compressor, at the device's next fix, from the
// last key point at rest, so each piece after the first begins with the
// key the one before it ended on — for a polyline compressor the fix the
// flush made a key, for "dr" its last report.
func cutDeviation(t *testing.T, name string, track, keys []core.Point, cutAt []int) (worst float64) {
	t.Helper()
	start, k0 := 0, 0
	for _, end := range append(cutAt[:len(cutAt):len(cutAt)], len(track)) {
		if end == start {
			continue // cut twice with no fix between
		}
		orig, k1 := track[start:end], k0
		for k1 < len(keys) && keys[k1].T <= orig[len(orig)-1].T {
			k1++
		}
		if start > 0 {
			orig = append([]core.Point{keys[k0]}, orig...)
		}
		d, err := stream.Deviation(name, orig, keys[k0:k1])
		if err != nil {
			t.Fatal(err)
		}
		worst = math.Max(worst, d)
		start, k0 = end, k1-1
	}
	return worst
}
