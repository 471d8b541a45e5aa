package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// gridWalk builds a random walk for device d snapped to the wire
// format's resolution (0.01 m on the trajstore.MetersPerDegree plane)
// with whole-second timestamps, so every emitted key point survives the
// persist round trip bit-exactly and the in-memory and durable ground
// truths can be compared as equal sets. Device d walks inside its own
// ~2 km cell.
func gridWalk(d, n int, rng *rand.Rand) []core.Point {
	snap := func(v float64) float64 { return math.Round(v*100) / 100 }
	x := float64(d%4) * 2000
	y := float64(d/4) * 2000
	t := 1000.0
	pts := make([]core.Point, n)
	for i := range pts {
		x += rng.Float64()*20 - 10
		y += rng.Float64()*20 - 10
		t += float64(rng.Intn(4) + 1)
		pts[i] = core.Point{X: snap(x), Y: snap(y), T: t}
	}
	return pts
}

// pairKey identifies one trajectory segment (a consecutive key-point
// pair) at the wire format's resolution — 1e-7° coordinates, whole
// seconds — which is exactly what survives the persist round trip, so
// the float key points OnKey saw and what storage returns can be
// compared as sets.
type pairKey [6]int64

// pairKeyOf quantizes a metric-plane segment as emit and the codec do.
func pairKeyOf(a, b core.Point) pairKey {
	ka, kb := trajstore.PlaneKey(a), trajstore.PlaneKey(b)
	return pairKey{
		int64(math.Round(ka.Lat * 1e7)), int64(math.Round(ka.Lon * 1e7)), int64(ka.T),
		int64(math.Round(kb.Lat * 1e7)), int64(math.Round(kb.Lon * 1e7)), int64(kb.T),
	}
}

// pairSet reduces segments to a set of wire-resolution pair keys.
func pairSet(segs []trajstore.Segment) map[pairKey]bool {
	out := make(map[pairKey]bool, len(segs))
	for _, s := range segs {
		out[pairKeyOf(s.A, s.B)] = true
	}
	return out
}

// TestPairKeySurvivesPersistRoundTrip: a live segment and its durable
// copy must collide in QueryWindow's dedup whatever a caller put in T —
// the time is clamped to the wire's uint32 once, by the codec's rule —
// and wherever between two lattice points its coordinates fell. Since
// a session's trail is the block the log stores, that holds by
// construction: what QueryWindow reads back from an open session's
// trail is, bit for bit, what it reads from the log once the trail is
// flushed. pairKeyOf, the tests' own quantizer, must agree with both.
func TestPairKeySurvivesPersistRoundTrip(t *testing.T) {
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var emitted keyLog
	e, err := New(Config{Compressor: "model-everyfix", Tolerance: 1, Shards: 2, Persister: lg, OnKey: emitted.onKey})
	if err != nil {
		t.Fatal(err)
	}
	for d, T := range []float64{-1, 0, 1700000000.75, math.MaxUint32, 5e9} {
		a, b := core.Point{X: 12.34, Y: -56.78, T: T}, core.Point{X: 99.01, Y: 3.5, T: T + 30}
		geo := trajstore.PointKeysToGeo([]core.Point{a, b}, trajstore.MetersPerDegree, trajstore.MetersPerDegree)
		if live, durable := pairKeyOf(a, b), pairKeyOf(trajstore.PlanePoint(geo[0]), trajstore.PlanePoint(geo[1])); live != durable {
			t.Errorf("T=%v: live pair key %v, durable %v", T, live, durable)
		}
		dev := fmt.Sprintf("dev-%d", d)
		for i, p := range []core.Point{a, b, {X: 99.014999, Y: 3.505, T: T + 30.5}, {X: -0.004999, Y: 0.005001, T: T + 31}} {
			p.X, p.Y = p.X+float64(d)*1000.0005, p.Y+float64(i)*0.015
			if err := e.Ingest([]Fix{{Device: dev, Point: p}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	query := func() map[[2]core.Point]int {
		segs, err := e.QueryWindow(-1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32)
		if err != nil {
			t.Fatal(err)
		}
		out := map[[2]core.Point]int{}
		for _, s := range segs {
			out[[2]core.Point{s.A, s.B}]++
		}
		return out
	}
	tails := query()
	if st := e.Stats(); st.Persisted != 0 || len(tails) != 15 {
		t.Fatalf("want 15 pairs, all on open sessions' trails: %d pairs, %+v", len(tails), st)
	}
	if err := errors.Join(e.FlushSessions(), e.Sync()); err != nil {
		t.Fatal(err)
	}
	logged := query()
	if st := e.Stats(); st.Persisted != 5 || st.TrailBytes != 0 || !reflect.DeepEqual(tails, logged) {
		t.Fatalf("the log returns other segments than the trails did (%+v):\n tails %v\n log   %v", st, tails, logged)
	}
	want := map[pairKey]bool{}
	for _, ks := range emitted.keys { // the workers are quiescent: Sync returned
		for i := 1; i < len(ks); i++ {
			want[pairKeyOf(ks[i-1], ks[i])] = true
		}
	}
	got := map[pairKey]bool{}
	for ab := range logged {
		got[pairKeyOf(ab[0], ab[1])] = true
	}
	if extra, missing := diffSets(got, want); extra != 0 || missing != 0 || len(got) != len(logged) {
		t.Fatalf("against the emitted key points at wire resolution: %d extra, %d missing, %d of %d distinct", extra, missing, len(got), len(logged))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// diffSets reports the asymmetric differences between two pair sets.
func diffSets(a, b map[pairKey]bool) (onlyA, onlyB int) {
	for k := range a {
		if !b[k] {
			onlyA++
		}
	}
	for k := range b {
		if !a[k] {
			onlyB++
		}
	}
	return onlyA, onlyB
}

// keyLog is the tests' one differential reference. As the OnKey sink of
// the engine under test it keeps every device's key points in emission
// order; window loads them into a plain trajstore.Store — every
// compressed pair, verbatim — and asks it, so what an engine's storage
// answers is held to the paper's in-memory database given the same key
// points. It assumes one session per device: a second session's first key
// would pair with the first session's last.
type keyLog struct {
	mu   sync.Mutex
	keys map[string][]core.Point
}

func (k *keyLog) onKey(device string, kp core.Point) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.keys == nil {
		k.keys = make(map[string][]core.Point)
	}
	k.keys[device] = append(k.keys[device], kp)
}

// window is the pair set of the key points emitted so far that a Store
// holding them reports for the window.
func (k *keyLog) window(t *testing.T, minX, minY, maxX, maxY, t0, t1 float64) map[pairKey]bool {
	t.Helper()
	st, err := trajstore.NewStore(trajstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k.mu.Lock()
	for _, ks := range k.keys {
		st.InsertTrajectory(ks)
	}
	k.mu.Unlock()
	return pairSet(st.QueryWindow(minX, minY, maxX, maxY, t0, t1))
}

// all is window over everything.
func (k *keyLog) all(t *testing.T) map[pairKey]bool {
	t.Helper()
	return k.window(t, -1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32)
}

// queryAll is QueryWindow over everything, as a pair set; duplicate
// rows fail the test.
func queryAll(t *testing.T, e *Engine) map[pairKey]bool {
	t.Helper()
	segs, err := e.QueryWindow(-1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32)
	if err != nil {
		t.Fatal(err)
	}
	set := pairSet(segs)
	if len(set) != len(segs) {
		t.Fatalf("QueryWindow double-reports: %d rows, %d unique", len(segs), len(set))
	}
	return set
}

// durablePairSet derives the exact-filtered pair set from a raw log's
// window query — the durable side of the differential comparison.
func durablePairSet(t *testing.T, lg *segmentlog.ShardedLog, minX, minY, maxX, maxY float64, t0, t1 uint32) map[pairKey]bool {
	t.Helper()
	lo, hi := trajstore.PlaneKey(core.Point{X: minX, Y: minY}), trajstore.PlaneKey(core.Point{X: maxX, Y: maxY})
	recs, err := lg.QueryWindow(lo.Lon, lo.Lat, hi.Lon, hi.Lat, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trajstore.LatticeWindow(lo.Lon, lo.Lat, hi.Lon, hi.Lat, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[pairKey]bool)
	for _, rec := range recs {
		for i := 0; i+1 < len(rec.Keys); i++ {
			if w.MeetsPair(rec.Keys[i], rec.Keys[i+1]) {
				out[pairKeyOf(trajstore.PlanePoint(rec.Keys[i]), trajstore.PlanePoint(rec.Keys[i+1]))] = true
			}
		}
	}
	return out
}

// diffWindows are the randomized-plus-corner windows of the
// differential test. Boundaries sit at x.5 cm offsets, half a quantum
// off the snapped coordinate grid, so inclusion can never be decided
// by floating-point luck on either side.
func diffWindows(rng *rand.Rand) [][6]float64 {
	ws := [][6]float64{
		{-1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32},               // everything
		{0.005, 0.005, 1900.005, 1900.005, 0, math.MaxUint32},   // one cell
		{-1e6, -1e6, 1e6, 1e6, 1000, 1200},                      // early time slice
		{123456.005, 123456.005, 123466.005, 123466.005, 0, 10}, // empty
	}
	for i := 0; i < 8; i++ {
		x0 := math.Floor(rng.Float64()*6000)*1 - 1000 + 0.005
		y0 := math.Floor(rng.Float64()*6000)*1 - 1000 + 0.005
		w := math.Floor(rng.Float64()*3000) + 1
		t0 := uint32(1000 + rng.Intn(400))
		t1 := t0 + uint32(rng.Intn(600))
		ws = append(ws, [6]float64{x0, y0, x0 + w, y0 + w, float64(t0), float64(t1)})
	}
	return ws
}

// TestDifferentialWindowQueries is the ground-truth property test: on
// a randomized multi-device fleet ingested with chunking, the durable
// log's QueryWindow must return exactly the trajectory segments the
// in-memory Store.Query ∩ QueryTime ground truth (keyLog: a Store given
// the key points the engine emitted) returns — at wire resolution,
// across randomized windows, and again after crash-recovery and after
// compaction.
func TestDifferentialWindowQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	lg, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var ref keyLog
	e, err := New(Config{
		Compressor:   "fbqs",
		Tolerance:    5,
		Shards:       4,
		MaxTrailKeys: 7, // force chunked records with the 1-key overlap
		Persister:    lg,
		OnKey:        ref.onKey,
	})
	if err != nil {
		t.Fatal(err)
	}

	const devices, fixesPer = 12, 300
	tracks := make([][]core.Point, devices)
	for d := range tracks {
		tracks[d] = gridWalk(d, fixesPer, rng)
	}
	var fixes []Fix
	for i := 0; i < fixesPer; i++ {
		for d := range tracks {
			fixes = append(fixes, Fix{Device: fmt.Sprintf("dev-%02d", d), Point: tracks[d][i]})
		}
	}
	for lo := 0; lo < len(fixes); lo += 512 {
		hi := min(lo+512, len(fixes))
		if err := e.Ingest(fixes[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil { // flushes every session to the log
		t.Fatal(err)
	}

	windows := diffWindows(rng)
	truth := make([]map[pairKey]bool, len(windows))
	nonEmpty := 0
	for i, w := range windows {
		truth[i] = ref.window(t, w[0], w[1], w[2], w[3], w[4], w[5])
		if len(truth[i]) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Fatalf("degenerate windows: only %d non-empty ground truths", nonEmpty)
	}

	compare := func(stage string, lg *segmentlog.ShardedLog) {
		t.Helper()
		for i, w := range windows {
			got := durablePairSet(t, lg, w[0], w[1], w[2], w[3], uint32(w[4]), uint32(w[5]))
			if onlyMem, onlyLog := diffSets(truth[i], got); onlyMem != 0 || onlyLog != 0 {
				t.Fatalf("%s window %d: %d segments only in memory, %d only in log (truth %d)",
					stage, i, onlyMem, onlyLog, len(truth[i]))
			}
		}
	}

	// Leg 1: clean reopen.
	lg2, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compare("reopen", lg2)
	if err := lg2.Close(); err != nil {
		t.Fatal(err)
	}

	// Leg 2: crash recovery — a torn append on the active segment is
	// truncated on reopen without disturbing any committed record.
	man, err := os.ReadFile(filepath.Join(dir, "shard-000", "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, line := range splitLines(string(man)) {
		if len(line) > 4 && line[:4] == "seg " {
			last = line[4:]
			if i := indexByte(last, ' '); i >= 0 {
				last = last[:i]
			}
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, "shard-000", last), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	lg3, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lg3.Stats().Truncated == 0 {
		t.Fatal("torn tail not detected")
	}
	compare("crash-recovery", lg3)

	// Leg 3: compaction (chunk merge + dedup — polyline-preserving).
	if _, err := lg3.Compact(segmentlog.CompactionPolicy{MergeChunks: true}); err != nil {
		t.Fatal(err)
	}
	compare("compacted", lg3)
	if err := lg3.Close(); err != nil {
		t.Fatal(err)
	}

	// Leg 4: reopen of the compacted log.
	lg4, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg4.Close()
	compare("compacted-reopen", lg4)
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := indexByte(s, '\n')
		if i < 0 {
			out = append(out, s)
			break
		}
		out = append(out, s[:i])
		s = s[i+1:]
	}
	return out
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// TestEngineQueryWindowMergesLiveAndDurable: at every stage of a
// durable engine's life one Engine.QueryWindow call returns exactly the
// pair set of the reference Store given the key points emitted so far —
// un-persisted session tails, chunks already in the log, history from
// before a restart — and never reports a pair twice.
func TestEngineQueryWindowMergesLiveAndDurable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	cfg := Config{
		Compressor: "fbqs", Tolerance: 5, Shards: 2, MaxTrailKeys: 7,
		IdleTimeout: time.Hour, Clock: func() time.Time { return time.Unix(0, 0) },
	}
	newEngine := func(onKey func(string, core.Point)) *Engine {
		t.Helper()
		lg, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{
			MaxSegmentBytes: 2048,
			Compaction:      &segmentlog.CompactionPolicy{MergeChunks: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Persister, c.OnKey = lg, onKey
		e, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var fixes []Fix
	for d := 0; d < 3; d++ {
		for _, p := range gridWalk(d, 400, rng) {
			fixes = append(fixes, Fix{Device: fmt.Sprintf("roamer-%d", d), Point: p})
		}
	}
	same := func(stage string, got, want map[pairKey]bool) {
		t.Helper()
		if onlyGot, onlyWant := diffSets(got, want); onlyGot != 0 || onlyWant != 0 {
			t.Fatalf("%s: %d pairs only in the durable engine, %d only in the reference (truth %d)",
				stage, onlyGot, onlyWant, len(want))
		}
	}

	// Mid-session: some chunks are in the log, every session has a tail.
	var ref keyLog
	e := newEngine(ref.onKey)
	if err := e.Ingest(fixes); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	mid := ref.all(t)
	if e.Stats().Persisted == 0 || len(mid) == 0 {
		t.Fatalf("degenerate: %d chunks persisted, %d reference pairs", e.Stats().Persisted, len(mid))
	}
	same("mid-session", queryAll(t, e), mid)

	// After a flush the compressors' pending tail keys are out too, and
	// everything is in the log.
	if err := e.FlushSessions(); err != nil {
		t.Fatal(err)
	}
	flushed := ref.all(t)
	if len(flushed) < len(mid) {
		t.Fatalf("flushed ground truth shrank: %d < %d", len(flushed), len(mid))
	}
	same("after flush", queryAll(t, e), flushed)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: history must come from the log alone.
	e2 := newEngine(nil)
	same("after restart", queryAll(t, e2), flushed)
	// Re-ingest the same walks: every tail pair is also durable; dedup
	// must keep the set — and the row count — stable.
	if err := e2.Ingest(fixes); err != nil {
		t.Fatal(err)
	}
	if err := e2.EvictIdle(); err != nil { // IdleTimeout not elapsed: sessions stay
		t.Fatal(err)
	}
	same("after re-ingest", queryAll(t, e2), flushed)
	if err := e2.CompactNow(); err != nil {
		t.Fatal(err)
	}
	same("after compaction", queryAll(t, e2), flushed)

	// A spatial sub-window agrees with the reference too.
	xs := make([]float64, 0, len(fixes))
	for _, f := range fixes {
		xs = append(xs, f.Point.X)
	}
	sort.Float64s(xs)
	midX := xs[len(xs)/2] + 0.005
	sub, err := e2.QueryWindow(-1e6, -1e6, midX, 1e6, 0, math.MaxUint32)
	if err != nil {
		t.Fatal(err)
	}
	wantSub := ref.window(t, -1e6, -1e6, midX, 1e6, 0, math.MaxUint32)
	if len(wantSub) == 0 || len(wantSub) == len(flushed) {
		t.Fatalf("degenerate sub-window: %d of %d pairs", len(wantSub), len(flushed))
	}
	same("sub-window", pairSet(sub), wantSub)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.QueryWindow(0, 0, 1, 1, 0, 1); err != ErrClosed {
		t.Fatalf("QueryWindow on closed engine = %v, want ErrClosed", err)
	}
}
