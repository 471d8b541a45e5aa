// Spatio-temporal window queries over the engine's storage: the backend
// merged with the un-persisted tails of sessions still streaming, so one
// call sees persisted history and what eviction or Close has yet to
// flush.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// ErrPartialResult reports that QueryWindow could answer from the live
// side (the un-persisted tails) but not from the durable log: persisted
// history — from before a restart, of flushed chunks and evicted
// sessions — is missing from the returned segments. Errors carrying it
// (match with errors.Is) wrap the durable side's failure. Callers may
// treat it as any other error, or use the partial slice knowingly.
var ErrPartialResult = errors.New("engine: partial window result (live data only; durable side failed)")

// mPerDeg is the plane the engine persists and queries in.
const mPerDeg = trajstore.MetersPerDegree

// geoPoint maps a wire key back into the projected metric plane. Tails
// and log records both come through it from the same lattice, so the
// live and the durable copy of a segment are equal bit for bit.
func geoPoint(k trajstore.GeoKey) core.Point {
	return core.Point{X: k.Lon * mPerDeg, Y: k.Lat * mPerDeg, T: float64(k.T)}
}

// bits keys a segment by its end points, bit for bit: an integer key
// hashes in one pass, where a map hashes float fields one at a time.
func bits(a, b core.Point) [6]uint64 {
	f := math.Float64bits
	return [6]uint64{f(a.X), f(a.Y), f(a.T), f(b.X), f(b.Y), f(b.T)}
}

// tailsQuery is one QueryWindow's read of the un-persisted trails: each
// shard worker answers it in queue order and appends what it finds under
// mu, which orders the workers against each other and nothing else.
type tailsQuery struct {
	minX, minY, maxX, maxY, t0, t1 float64

	mu  sync.Mutex
	out []trajstore.Segment
}

// meets is the in-memory ground-truth predicate applied to one
// metric-plane segment: the box spanned by a and b intersects the window
// (boundaries inclusive, matching geom.Box.Intersects) and the time spans
// overlap.
func (q *tailsQuery) meets(a, b core.Point) bool {
	loX, hiX := a.X, b.X
	if loX > hiX {
		loX, hiX = hiX, loX
	}
	loY, hiY := a.Y, b.Y
	if loY > hiY {
		loY, hiY = hiY, loY
	}
	loT, hiT := a.T, b.T
	if loT > hiT {
		loT, hiT = hiT, loT
	}
	return loX <= q.maxX && hiX >= q.minX && loY <= q.maxY && hiY >= q.minY && loT <= q.t1 && hiT >= q.t0
}

// tails reports this shard's history that no log record holds yet: the
// parked trails and the open sessions' trails, each skipped whole when
// its bounds miss the window and otherwise read back from its block — at
// wire resolution, exactly what the log will return for it.
func (sh *shard) tails(q *tailsQuery) {
	var out []trajstore.Segment
	add := func(tr *trajstore.Trail) {
		if b := tr.Bounds(); tr.Len() < 2 || !q.meets(geoPoint(b.Min()), geoPoint(b.Max())) {
			return
		}
		c := tr.Cursor()
		k, _ := c.Next() // the engine built the block: it parses
		for a, i := geoPoint(k), 1; i < tr.Len(); i++ {
			k, _ = c.Next()
			b := geoPoint(k)
			if q.meets(a, b) {
				out = append(out, trajstore.Segment{A: a, B: b, Weight: 1, FirstT: a.T, LastT: b.T})
			}
			a = b
		}
	}
	for i := range sh.parked {
		add(&sh.parked[i].trail)
	}
	for _, s := range sh.sessions {
		add(&s.trail)
	}
	q.mu.Lock()
	q.out = append(q.out, out...)
	q.mu.Unlock()
}

// QueryWindow answers a spatio-temporal window query in the projected
// metric plane: every stored trajectory segment whose bounding box
// intersects [minX, maxX] × [minY, maxY] and whose observation time
// overlaps [t0, t1]. History lives in the Persister; the live side is
// the tails: the open sessions' un-flushed trails plus any trails parked
// by degraded mode, read by each shard worker in queue order — so the
// answer reflects every fix queued before the call, and waits for them.
// An append-only Persister has nothing to read back, so there the tails
// are the whole answer; with no Persister at all no trail is kept and
// the call returns ErrNoPersister.
//
// Durable records are split into their consecutive key-point pairs,
// filtered exactly, and deduplicated against the live set. The tails are read before the log, so a trail flushed
// between the two reads is reported once and never zero times; tails and
// log are otherwise disjoint (consecutive chunks share a key point, not
// a pair). Segments come back with ID 0 and Weight 1.
//
// When the durable side fails, the error matches ErrPartialResult
// (wrapping the underlying failure) and the returned slice holds the
// live-side answer only — a documented partial view, not a silent one.
func (e *Engine) QueryWindow(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]trajstore.Segment, error) {
	// Like CompactNow/Heal: Close waits for the admitted before closing
	// the backend, so a query can never race the persister's teardown
	// and report a spurious partial result against itself.
	if _, err := e.admit(opCall); err != nil {
		return nil, err
	}
	defer e.inflight.Done()
	if !e.persisting {
		return nil, ErrNoPersister
	}

	q := tailsQuery{minX: minX, minY: minY, maxX: maxX, maxY: maxY, t0: float64(t0), t1: float64(t1)}
	if err := e.barrier(func(sh *shard) { sh.tails(&q) }); err != nil {
		return nil, err
	}
	out := q.out
	durable, err := e.backend.QueryWindow(minX/mPerDeg, minY/mPerDeg, maxX/mPerDeg, maxY/mPerDeg, t0, t1)
	if err != nil {
		return out, fmt.Errorf("%w: %w", ErrPartialResult, err)
	}
	seen := make(map[[6]uint64]bool, len(out))
	for _, s := range out {
		seen[bits(s.A, s.B)] = true
	}
	for _, rec := range durable {
		for i := 0; i+1 < len(rec.Keys); i++ {
			a, b := geoPoint(rec.Keys[i]), geoPoint(rec.Keys[i+1])
			if !q.meets(a, b) {
				continue
			}
			if k := bits(a, b); !seen[k] {
				seen[k] = true
				out = append(out, trajstore.Segment{A: a, B: b, Weight: 1, FirstT: a.T, LastT: b.T})
			}
		}
	}
	return out, nil
}
