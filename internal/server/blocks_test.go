package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// captureConn is a connection that keeps what is written to it.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// served runs one query through sendQuery and returns the QueryResp
// payload the server put on the wire. The answer is written from the
// blocks the read handed over, kept, not copied, so each must still hold
// the bytes it held at its visit when the frame leaves: served checks them
// against copies taken then.
func served(t *testing.T, seq uint64, read func(visit func(trajstore.Block) error) error) []byte {
	t.Helper()
	var c captureConn
	var kept, copies [][]byte
	if !sendQuery(&c, seq, func(visit func(trajstore.Block) error) error {
		return read(func(b trajstore.Block) error {
			kept, copies = append(kept, b.Payload), append(copies, bytes.Clone(b.Payload))
			return visit(b)
		})
	}) {
		t.Fatal("sendQuery reported a dead connection")
	}
	for i := range kept {
		if !bytes.Equal(kept[i], copies[i]) {
			t.Fatalf("block %d of %d changed between its visit and the write", i, len(kept))
		}
	}
	typ, payload, _, err := proto.ReadFrame(&c.buf, nil)
	if err != nil || typ != proto.TypeQueryResp || c.buf.Len() != 0 {
		t.Fatalf("sendQuery wrote type %#x, %v, %d bytes left over; want exactly one QueryResp frame", typ, err, c.buf.Len())
	}
	return payload
}

// refMatch is the window predicate on decoded keys, in degrees: some
// consecutive pair's box meets the window while their time span overlaps
// the range — what the log's block walk must reproduce.
func refMatch(keys []trajstore.GeoKey, q proto.QueryWindow) bool {
	for i := 0; i+1 < len(keys); i++ {
		a, b := keys[i], keys[i+1]
		if math.Min(a.Lon, b.Lon) <= q.MaxLon && math.Max(a.Lon, b.Lon) >= q.MinLon &&
			math.Min(a.Lat, b.Lat) <= q.MaxLat && math.Max(a.Lat, b.Lat) >= q.MinLat &&
			min(a.T, b.T) <= q.T1 && max(a.T, b.T) >= q.T0 {
			return true
		}
	}
	return false
}

// pairsOf reduces records to per-device sets of consecutive key pairs —
// what chunk-merging preserves while it moves record boundaries.
func pairsOf(recs []trajstore.PersistedRecord, keep func(a, b trajstore.GeoKey) bool) map[string]map[[2]trajstore.GeoKey]bool {
	out := make(map[string]map[[2]trajstore.GeoKey]bool)
	for _, r := range recs {
		for i := 0; i+1 < len(r.Keys); i++ {
			if keep(r.Keys[i], r.Keys[i+1]) {
				if out[r.Device] == nil {
					out[r.Device] = make(map[[2]trajstore.GeoKey]bool)
				}
				out[r.Device][[2]trajstore.GeoKey{r.Keys[i], r.Keys[i+1]}] = true
			}
		}
	}
	return out
}

func byDevice(recs []trajstore.PersistedRecord) map[string][]trajstore.PersistedRecord {
	m := make(map[string][]trajstore.PersistedRecord)
	for _, r := range recs {
		m[r.Device] = append(m[r.Device], r)
	}
	return m
}

// once is a read's rule on a record the log holds twice, by brute force: a
// record whose keys are a run of an earlier one's of its device is left out.
func once(recs []trajstore.PersistedRecord) (out []trajstore.PersistedRecord) {
next:
	for _, r := range recs {
		for _, s := range out {
			for i := 0; s.Device == r.Device && i+len(r.Keys) <= len(s.Keys); i++ {
				if slices.Equal(s.Keys[i:i+len(r.Keys)], r.Keys) {
					continue next
				}
			}
		}
		out = append(out, r)
	}
	return out
}

// TestServedFrameIsStoredBytes pins the block path end to end at the
// frame, read the way the server reads — through the tenant's engine: over
// a seeded log — sessions chunked at 16 keys, a duplicate, a second shard —
// in each of its lives (chunked, merged, aged; read cache cold, then warm)
// and over random windows and per-device ranges, the QueryResp payload the
// server writes without decoding anything is byte for byte what
// AppendQueryResp makes of the library's decoded answer — less the copy of
// the duplicate while the log holds it (once): the read serves it one time,
// as Engine.QueryWindow always has — and it parses to the brute-force filter
// of everything the log holds. While a compaction
// is re-joining chunks under the queries, record boundaries are in flux,
// so there the answer is held to the brute force pair by pair. Last, with
// sessions streaming and nothing flushed, the frame is the log's blocks
// and then the open trails', as the bytes the log will store for them.
func TestServedFrameIsStoredBytes(t *testing.T) {
	const devices, perDevice, chunk = 12, 200, 16
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{MaxSegmentBytes: 2 << 10, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var emitted onKeyLog
	eng, err := engine.New(engine.Config{Tolerance: 2, Shards: 2, MaxTrailKeys: chunk, Persister: lg, OnKey: emitted.onKey})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dev := func(d int) string { return fmt.Sprintf("dev-%03d", d) }
	appendChunked := func(from, to int) {
		t.Helper()
		for d := 0; d < devices; d++ {
			keys := track(d, to)
			for lo := from; lo < to-1; lo += chunk - 1 {
				if err := lg.Append(dev(d), keys[lo:min(lo+chunk, to)]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := lg.Append(dev(3), track(3, perDevice)[30:46]); err != nil { // a chunk sent twice: dedup's case
		t.Fatal(err)
	}
	appendChunked(0, perDevice)

	rng := rand.New(rand.NewSource(19))
	randomWindow := func(seq uint64) proto.QueryWindow {
		q := proto.QueryWindow{Seq: seq, MinLon: -1, MinLat: -1, MaxLon: 3, MaxLat: 3, T1: math.MaxUint32}
		switch rng.Intn(8) {
		case 0: // everything
		case 1: // nothing
			q.MinLon, q.MaxLon = 50, 60
		default:
			c, w := 0.1*float64(rng.Intn(devices))+rng.Float64()*0.02, rng.Float64()*0.3
			q.MinLon, q.MaxLon, q.MinLat, q.MaxLat = c-w/3, c+w, c-w, c+w/2
			if rng.Intn(2) == 0 {
				q.T0 = 1000 + uint32(rng.Intn(30*perDevice))
				q.T1 = q.T0 + uint32(rng.Intn(2000))
			}
		}
		return q
	}
	everything := func() (all []trajstore.PersistedRecord) {
		t.Helper()
		for d := 0; d < devices; d++ {
			recs, err := lg.Query(dev(d), 0, math.MaxUint32)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, recs...)
		}
		return all
	}
	window := func(q proto.QueryWindow) func(func(trajstore.Block) error) error {
		return func(visit func(trajstore.Block) error) error {
			return eng.WindowBlocks(q.MinLon, q.MinLat, q.MaxLon, q.MaxLat, q.T0, q.T1, visit)
		}
	}
	// quiescent holds one stage of the log's life to the byte; it returns
	// how many copies of a record the log held the reads left out.
	quiescent := func(stage string) (copies int) {
		t.Helper()
		all := once(everything())
		matched := 0
		for i := 0; i < 60; i++ {
			q := randomWindow(uint64(i + 1))
			var want []trajstore.PersistedRecord
			for _, r := range all {
				if refMatch(r.Keys, q) {
					want = append(want, r)
				}
			}
			matched += len(want)
			for _, temp := range []string{"cold", "warm"} {
				got := served(t, q.Seq, window(q))
				held, err := lg.QueryWindow(q.MinLon, q.MinLat, q.MaxLon, q.MaxLat, q.T0, q.T1)
				if err != nil {
					t.Fatal(err)
				}
				recs := once(held)
				copies += len(held) - len(recs)
				ref, err := proto.AppendQueryResp(nil, proto.QueryResp{Seq: q.Seq, Records: recs})
				if err != nil || !bytes.Equal(got, ref) {
					t.Fatalf("%s, %s, window %+v: served %d B, AppendQueryResp(QueryWindow) %d B (%v): not the same bytes", stage, temp, q, len(got), len(ref), err)
				}
				resp, err := proto.ParseQueryResp(got)
				if err != nil || resp.Err != "" || resp.Seq != q.Seq {
					t.Fatalf("%s, %s, window %+v: served frame parses to seq %d, %q, %v", stage, temp, q, resp.Seq, resp.Err, err)
				}
				if !reflect.DeepEqual(byDevice(resp.Records), byDevice(want)) {
					t.Fatalf("%s, %s, window %+v: served %d records, brute force %d", stage, temp, q, len(resp.Records), len(want))
				}
			}
			// The per-device read, on the same terms.
			d, t0 := dev(rng.Intn(devices)), 1000+uint32(rng.Intn(30*perDevice))
			got := served(t, q.Seq, func(visit func(trajstore.Block) error) error {
				return eng.DeviceBlocks(d, t0, t0+900, visit)
			})
			held, err := lg.Query(d, t0, t0+900)
			if err != nil {
				t.Fatal(err)
			}
			recs := once(held)
			copies += len(held) - len(recs)
			if ref, err := proto.AppendQueryResp(nil, proto.QueryResp{Seq: q.Seq, Records: recs}); err != nil || !bytes.Equal(got, ref) || len(recs) == 0 {
				t.Fatalf("%s, %s [%d,%d]: served %d B, AppendQueryResp(Query) %d B over %d records (%v)", stage, d, t0, t0+900, len(got), len(ref), len(recs), err)
			}
		}
		if matched == 0 {
			t.Fatalf("%s: no window matched anything", stage)
		}
		return copies
	}

	if quiescent("chunked") == 0 {
		t.Fatal("chunked: no read met the chunk the log holds twice")
	}

	// Mid-compaction: chunks are re-joined while the queries run.
	truth := everything()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if res, err := lg.Compact(segmentlog.CompactionPolicy{MergeChunks: true}); err != nil || res.Merged == 0 || res.Deduped != 1 {
			t.Errorf("Compact = %+v, %v; want merges and the one duplicate dropped", res, err)
		}
	}()
	for i := 0; i < 200; i++ {
		q := randomWindow(uint64(i + 1))
		resp, err := proto.ParseQueryResp(served(t, q.Seq, window(q)))
		if err != nil || resp.Err != "" {
			t.Fatalf("mid-compaction, window %+v: %q, %v", q, resp.Err, err)
		}
		// Every returned record matches, and every matching pair of the
		// ground truth is in a returned record.
		for _, r := range resp.Records {
			if !refMatch(r.Keys, q) {
				t.Fatalf("mid-compaction, window %+v: served a record of %s that does not enter it", q, r.Device)
			}
		}
		got := pairsOf(resp.Records, func(a, b trajstore.GeoKey) bool { return true })
		want := pairsOf(truth, func(a, b trajstore.GeoKey) bool { return refMatch([]trajstore.GeoKey{a, b}, q) })
		for d, pairs := range want {
			for p := range pairs {
				if !got[d][p] {
					t.Fatalf("mid-compaction, window %+v: %s lost the pair %v", q, d, p)
				}
			}
		}
	}
	wg.Wait()
	if st := lg.Stats(); st.Records >= len(truth) {
		t.Fatalf("the compaction left %d records of %d", st.Records, len(truth))
	}
	appendChunked(perDevice-1, perDevice+60) // fresh chunks beside the merged records
	if n := quiescent("merged"); n != 0 {
		t.Fatalf("merged: the reads left out %d records of a compacted log", n)
	}

	res, err := lg.Compact(segmentlog.CompactionPolicy{MergeChunks: true, CoarseTolerance: 450, Now: func() time.Time { return time.Unix(1<<20, 0) }})
	if err != nil || res.Aged == 0 {
		t.Fatalf("ageing Compact = %+v, %v; want aged records", res, err)
	}
	quiescent("aged")

	// Un-flushed: four fresh devices stream a few fixes each through the
	// engine — fewer key points than a chunk, so the log has none of them —
	// and are read back at once: behind the log's records come their
	// trails, one block a device, holding exactly the key points OnKey has
	// reported, and the frame is still the canonical encoding of what it
	// parses to.
	var fixes []engine.Fix
	for d := devices; d < devices+4; d++ {
		fixes = append(fixes, toFixes(dev(d), track(d, chunk-4))...)
	}
	if err := eng.Ingest(fixes); err != nil {
		t.Fatal(err)
	}
	tail := func(d string) trajstore.PersistedRecord {
		keys := emitted.all()[d]
		return trajstore.PersistedRecord{Device: d, T0: keys[0].T, T1: keys[len(keys)-1].T, Keys: keys}
	}
	tails := 0
	for i := 0; i < 60; i++ {
		q := randomWindow(uint64(i + 1))
		got := served(t, q.Seq, window(q))
		resp, err := proto.ParseQueryResp(got)
		if err != nil || resp.Err != "" {
			t.Fatalf("un-flushed, window %+v: %q, %v", q, resp.Err, err)
		}
		if ref, err := proto.AppendQueryResp(nil, resp); err != nil || !bytes.Equal(got, ref) {
			t.Fatalf("un-flushed, window %+v: the served frame is not the encoding of the records it parses to (%v)", q, err)
		}
		logged, err := lg.QueryWindow(q.MinLon, q.MinLat, q.MaxLon, q.MaxLat, q.T0, q.T1)
		if err != nil {
			t.Fatal(err)
		}
		var want []trajstore.PersistedRecord
		for d := devices; d < devices+4; d++ {
			if r := tail(dev(d)); refMatch(r.Keys, q) {
				want = append(want, r)
			}
		}
		if len(resp.Records) < len(logged) || !reflect.DeepEqual(resp.Records[:len(logged)], logged) && len(logged) > 0 {
			t.Fatalf("un-flushed, window %+v: the frame does not start with the log's %d records", q, len(logged))
		}
		if !reflect.DeepEqual(byDevice(resp.Records[len(logged):]), byDevice(want)) {
			t.Fatalf("un-flushed, window %+v: after the log's records the frame holds %+v, want the trails %+v", q, resp.Records[len(logged):], want)
		}
		tails += len(want)
	}
	if st := eng.Stats(); tails == 0 || st.Persisted != 0 || st.TrailBytes == 0 {
		t.Fatalf("un-flushed: %d trails matched, engine stats %+v", tails, st)
	}
	d := dev(devices + 1)
	resp, err := proto.ParseQueryResp(served(t, 7, func(visit func(trajstore.Block) error) error {
		return eng.DeviceBlocks(d, 0, math.MaxUint32, visit)
	}))
	if err != nil || !reflect.DeepEqual(resp.Records, []trajstore.PersistedRecord{tail(d)}) {
		t.Fatalf("un-flushed, %s: served %+v, %v; want its one trail", d, resp.Records, err)
	}
}

// TestUnsendableWindowStopsEarly: a window whose answer cannot fit a frame
// gets the in-band "narrow the window" error — on a connection that stays
// usable — and the read behind it is stopped at the record that crosses
// proto.MaxFrame: the answer never holds more than the cap plus that one
// record, however much the window would have returned.
func TestUnsendableWindowStopsEarly(t *testing.T) {
	blk := trajstore.Block{Device: "dev", T0: 1, T1: 2, Payload: make([]byte, 64<<10)}
	blk.Payload[0] = 0 // an empty block, padded: the server never looks inside
	const total = 4 * proto.MaxFrame / (64 << 10)
	flood := &floodLog{blk: blk, n: total}
	hookOpenLog(t, func(inner tenantLog) tenantLog {
		flood.ShardedLog = inner.(*segmentlog.ShardedLog)
		return flood
	})
	_, addr := startServer(t, Config{Dir: t.TempDir(), Engine: engine.Config{Tolerance: 2, Shards: 1}})
	c, err := Dial(addr, "fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.QueryWindow(-1, -1, 1, 1, 0, math.MaxUint32)
	if err == nil || !strings.Contains(err.Error(), "result not sendable") || !strings.Contains(err.Error(), "narrow the window") {
		t.Fatalf("QueryWindow over the frame cap = %v, want the in-band unsendable error", err)
	}
	flood.mu.Lock()
	visits, stopped := flood.visits, flood.stopped
	flood.mu.Unlock()
	per := len(blk.Payload) + len(blk.Device) + 8
	if visits >= total || visits*per > proto.MaxFrame+per || (visits+1)*per < proto.MaxFrame {
		t.Fatalf("the read was handed %d records of %d (%d B each): want it stopped at the one crossing %d B", visits, total, per, proto.MaxFrame)
	}
	if stopped == nil {
		t.Fatal("the visitor never told the read to stop")
	}
	// The connection is still in step: the next query is answered.
	if recs, err := c.QueryTime("nobody", 0, 1); err != nil || len(recs) != 0 {
		t.Fatalf("query after the unsendable one = %d records, %v", len(recs), err)
	}
}

// floodLog is the real sharded log — a full trajstore.Backend, so the
// engine reads it — answering every window with n copies of one block, for
// as long as the visitor takes them.
type floodLog struct {
	*segmentlog.ShardedLog
	blk trajstore.Block
	n   int

	mu      sync.Mutex
	visits  int
	stopped error // what the visitor ended the read with
}

func (f *floodLog) WindowBlocks(_, _, _, _ float64, _, _ uint32, visit func(trajstore.Block) error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; i < f.n && f.stopped == nil; i++ {
		f.visits++
		f.stopped = visit(f.blk)
	}
	return f.stopped
}

// TestShedReleasesLargeBuffers: a frame buffer grown past keepBuf by a
// large frame is dropped, not kept until the connection closes.
func TestShedReleasesLargeBuffers(t *testing.T) {
	if got := shed(make([]byte, 10, keepBuf+1)); got != nil {
		t.Fatalf("shed kept %d B of capacity", cap(got))
	}
}

// countConn is a connection that counts what is written to it and keeps
// nothing.
type countConn struct {
	net.Conn
	n int
}

func (c *countConn) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// TestQueryAnswerCopiesNoPayload: an answer is written from the blocks the
// read handed over. Over 1 000 blocks of 2 KiB sendQuery allocates a head
// and two slice headers a record — under 64 B — plus a constant, never the
// 2 MiB of payload, and the frame it writes is the full answer.
func TestQueryAnswerCopiesNoPayload(t *testing.T) {
	const records, size, perRecord, constant = 1000, 2 << 10, 64, 32 << 10
	blk := trajstore.Block{Device: "dev", T0: 1, T1: 2, Payload: make([]byte, size)}
	read := func(visit func(trajstore.Block) error) error {
		for range records {
			if err := visit(blk); err != nil {
				return err
			}
		}
		return nil
	}
	var c countConn
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ok := sendQuery(&c, 1, read)
	runtime.ReadMemStats(&after)
	if !ok {
		t.Fatal("sendQuery reported a dead connection")
	}
	head := 1 + len(blk.Device) + 1 + 1 + 2 // device, t0, t1, block length
	if want := 4 + 1 + 1 + 2 + records*(head+size) + 1; c.n != want {
		t.Fatalf("sendQuery wrote %d B, want the %d B frame of %d records", c.n, want, records)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	if grew >= records*perRecord+constant {
		t.Fatalf("sendQuery allocated %d B for %d records of %d B: %.0f B a record", grew, records, size, float64(grew)/records)
	}
	t.Logf("sendQuery allocated %d B for %d records of %d B", grew, records, size)
}

// BenchmarkServerQuery is the daemon's answer to a full window without the
// socket: Engine.WindowBlocks over a one-shard log of 2 000 records (100
// devices × 20 chunks of 16 keys), warm in the read cache, through sendQuery
// to a connection that keeps nothing. B/op is the figure: what an answer
// allocates beyond the blocks the read already holds.
func BenchmarkServerQuery(b *testing.B) {
	const devices, chunks, chunk = 100, 20, 16
	lg, err := segmentlog.OpenSharded(b.TempDir(), 1, segmentlog.Options{CacheBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(engine.Config{Tolerance: 2, Shards: 1, Persister: lg})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for d := range devices {
		keys := track(d, chunks*(chunk-1)+1)
		for lo := 0; lo+1 < len(keys); lo += chunk - 1 {
			if err := lg.Append(fmt.Sprintf("dev-%03d", d), keys[lo:lo+chunk]); err != nil {
				b.Fatal(err)
			}
		}
	}
	read := func(visit func(trajstore.Block) error) error {
		return e.WindowBlocks(-180, -90, 180, 90, 0, math.MaxUint32, visit)
	}
	var c countConn
	if !sendQuery(&c, 1, read) { // warms the cache
		b.Fatal("sendQuery reported a dead connection")
	}
	if st := lg.Stats(); st.Records != devices*chunks {
		b.Fatalf("the log holds %d records, want %d", st.Records, devices*chunks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if !sendQuery(&c, 1, read) {
			b.Fatal("sendQuery reported a dead connection")
		}
	}
}
