// The read path: window and per-device queries over what the engine
// stores, as blocks — the backend's records, then the trails no record
// holds yet.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// ErrPartialResult reports that a read could answer from the live side
// (the un-persisted tails) but not, or not wholly, from the durable log:
// persisted history is missing from what was served. Errors carrying it
// (match with errors.Is) wrap the durable side's failure. Callers may treat
// it as any other error, or use the partial answer knowingly.
var ErrPartialResult = errors.New("engine: partial window result (live data only; durable side failed)")

// tailsRead is one read's pass over the trails no log record holds yet;
// mu orders the shard workers adding to it against each other.
type tailsRead struct {
	w      trajstore.Window // what a trail's bounds must meet
	all    bool             // a window read: every device, and a block must enter w (trajstore.Enters)
	device string           // otherwise the one device read

	mu   sync.Mutex
	held []trajstore.Block
}

// tails hands over this shard's trails whose bounds meet the read's — the
// parked ones, then the open sessions' — as the blocks the log will store
// for them, copied into a buffer of the read's own: the sessions write on.
// The exact test is the reader's to run, not the worker's.
func (sh *shard) tails(q *tailsRead) {
	var buf []byte
	add := func(device string, tr *trajstore.Trail) {
		if b, at := tr.Bounds(), len(buf); (q.all || device == q.device) && q.w.Meets(b) {
			buf = tr.AppendBlock(buf)
			q.mu.Lock()
			q.held = append(q.held, trajstore.Block{Device: device, T0: b.T0, T1: b.T1, Payload: buf[at:len(buf):len(buf)]})
			q.mu.Unlock()
		}
	}
	for i := range sh.parked {
		add(sh.parked[i].device, &sh.parked[i].trail)
	}
	if !q.all { // one lookup, not a walk of the shard's sessions
		if s := sh.sessions[q.device]; s != nil && s.unrecorded() {
			add(q.device, &s.trail)
		}
	} else {
		for device, s := range sh.sessions {
			if s.unrecorded() {
				add(device, &s.trail)
			}
		}
	}
}

// read is the one read path. The workers of shards hand over their tails
// in queue order, so the answer reflects every fix queued before the call,
// and waits for them; log then streams the backend's records to visit; the
// tails come last. A block, record or tail, is dropped if one of its
// device already served in this read Contains it — the compactor's own
// test, so a record the log holds twice, or a trail flushed, grown and
// then chunked, or chunk-joined between the two reads is served once and
// never zero times. Tails and log are otherwise disjoint (consecutive
// chunks share a key point, not a pair). An error of visit's ends the read
// and is returned as is; when the backend fails the tails are still served
// and the error matches ErrPartialResult, wrapping the failure.
func (e *Engine) read(shards []*shard, q *tailsRead, log func(visit func(trajstore.Block) error) error, visit func(trajstore.Block) error) error {
	// Like CompactNow/Heal: Close waits for the admitted before closing
	// the backend, so a query can never race the persister's teardown
	// and report a spurious partial result against itself.
	if _, err := e.admit(opCall); err != nil {
		return err
	}
	defer e.inflight.Done()
	if !e.persisting {
		return ErrNoPersister
	}
	if err := e.barrier(shards, func(sh *shard) { sh.tails(q) }); err != nil {
		return err
	}
	type runs struct {
		t1     uint32 // the latest any of blocks ends
		blocks []trajstore.Block
	}
	served := make(map[string]*runs)
	var stop error // visit's own: not the durable side's failure
	serve := func(blk trajstore.Block) error {
		r := served[blk.Device]
		if r == nil {
			r = new(runs)
			served[blk.Device] = r
		}
		if blk.T1 <= r.t1 { // else it ends past all of them, as a log's next record does
			for _, b := range r.blocks {
				if b.Contains(blk) {
					return nil
				}
			}
		}
		r.t1, r.blocks = max(r.t1, blk.T1), append(r.blocks, blk)
		stop = visit(blk)
		return stop
	}
	logErr := log(serve)
	for i := 0; stop == nil && i < len(q.held); i++ {
		// The exact test, on the reader's time, not the worker's; the engine
		// built the block, so it parses.
		if ok, _ := trajstore.Enters(q.held[i].Payload, &q.w); ok || !q.all {
			serve(q.held[i])
		}
	}
	if stop == nil && logErr != nil {
		stop = fmt.Errorf("%w: %w", ErrPartialResult, logErr)
	}
	return stop
}

// WindowBlocks visits, as the block storage holds it, every run of key
// points with a consecutive pair whose bounding box intersects
// [minLon, maxLon] × [minLat, maxLat] (the wire's degrees) and whose time
// span overlaps [t0, t1]: the Persister's records shard by shard in log
// order, then the open sessions' and parked trails (see read). visit runs
// on the caller's goroutine once the shard workers have handed over and
// moved on, so a slow one holds up no ingest; a block outlives its visit
// (trajstore.Block), a trail's copied for the read. An inverted or NaN
// window is refused before any shard is asked, by the log's own rule
// (trajstore.LatticeWindow). Behind an append-only Persister the tails are
// the whole answer; with no Persister no trail is kept: ErrNoPersister.
func (e *Engine) WindowBlocks(minLon, minLat, maxLon, maxLat float64, t0, t1 uint32, visit func(trajstore.Block) error) error {
	w, err := trajstore.LatticeWindow(minLon, minLat, maxLon, maxLat, t0, t1)
	if err != nil {
		return err
	}
	return e.read(e.shards, &tailsRead{w: w, all: true}, func(visit func(trajstore.Block) error) error {
		return e.backend.WindowBlocks(minLon, minLat, maxLon, maxLat, t0, t1, visit)
	}, visit)
}

// DeviceBlocks visits device's runs of key points whose time bounds
// overlap [t0, t1], oldest first: its records in append order, then its
// trails (see read). Only the device's own shard is asked; when visit runs
// and how long a block lives are as for WindowBlocks.
func (e *Engine) DeviceBlocks(device string, t0, t1 uint32, visit func(trajstore.Block) error) error {
	q := tailsRead{device: device, w: trajstore.Window{
		MinLat: math.MinInt64, MinLon: math.MinInt64, MaxLat: math.MaxInt64, MaxLon: math.MaxInt64, T0: int64(t0), T1: int64(t1)}}
	i := trajstore.ShardIndex(device, len(e.shards))
	return e.read(e.shards[i:i+1], &q, func(visit func(trajstore.Block) error) error {
		return e.backend.DeviceBlocks(device, t0, t1, visit)
	}, visit)
}

// QueryWindow is WindowBlocks decoded, in the projected metric plane:
// every stored trajectory segment — consecutive key-point pair — whose
// bounding box intersects [minX, maxX] × [minY, maxY] and whose
// observation time overlaps [t0, t1], at wire resolution, with ID 0 and
// Weight 1; a record the log holds twice is reported once (see read). On
// ErrPartialResult the slice holds what was read before the failure plus
// the live side: a documented partial view.
func (e *Engine) QueryWindow(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]trajstore.Segment, error) {
	lo, hi := trajstore.PlaneKey(core.Point{X: minX, Y: minY}), trajstore.PlaneKey(core.Point{X: maxX, Y: maxY})
	minLon, minLat, maxLon, maxLat := lo.Lon, lo.Lat, hi.Lon, hi.Lat
	w, _ := trajstore.LatticeWindow(minLon, minLat, maxLon, maxLat, t0, t1) // WindowBlocks refuses a bad one before it visits
	var out []trajstore.Segment
	err := e.WindowBlocks(minLon, minLat, maxLon, maxLat, t0, t1, func(blk trajstore.Block) error {
		keys, err := trajstore.DeltaDecode(blk.Payload)
		for i := 1; i < len(keys); i++ {
			if w.MeetsPair(keys[i-1], keys[i]) {
				a, b := trajstore.PlanePoint(keys[i-1]), trajstore.PlanePoint(keys[i])
				out = append(out, trajstore.Segment{A: a, B: b, Weight: 1, FirstT: a.T, LastT: b.T})
			}
		}
		return err // nil: the block was walked before it was served
	})
	return out, err
}
