// Spatio-temporal window queries over the engine's storage: the live
// in-memory shard stores merged with the durable segment log, so one
// call sees both persisted history (which survives restarts) and the
// un-persisted tails of sessions that are still streaming (which only
// the stores hold until eviction or Close flushes them to the log).
package engine

import (
	"errors"
	"fmt"
	"math"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// ErrPartialResult reports that QueryWindow could answer from the live
// in-memory stores but not from the durable log: the returned segments
// are the live side only, and persisted history (from before a restart,
// or of already-evicted sessions) is missing. Errors carrying it (match
// with errors.Is) wrap the durable side's failure. Callers wanting
// fail-fast semantics treat it as any other error; callers serving
// best-effort dashboards may use the partial slice knowingly.
var ErrPartialResult = errors.New("engine: partial window result (live data only; durable side failed)")

// pairKey identifies one trajectory segment (a consecutive key-point
// pair) at the wire format's resolution — 1e-7° coordinates, whole
// seconds — which is exactly what survives the persist round trip. Live
// and durable copies of the same segment therefore collide, and the
// merge drops the durable duplicate.
type pairKey [6]int64

// quantT clamps a metric-plane timestamp to the wire format's uint32
// seconds, matching trajstore.PointKeysToGeo.
func quantT(t float64) int64 {
	if t < 0 {
		return 0
	}
	if t > math.MaxUint32 {
		return math.MaxUint32
	}
	return int64(uint32(t))
}

// pairKeyOf quantizes a metric-plane segment. m is metres per degree.
func pairKeyOf(a, b core.Point, m float64) pairKey {
	return pairKey{
		int64(math.Round(a.Y / m * 1e7)), int64(math.Round(a.X / m * 1e7)), quantT(a.T),
		int64(math.Round(b.Y / m * 1e7)), int64(math.Round(b.X / m * 1e7)), quantT(b.T),
	}
}

// geoPoint maps a persisted key back into the projected metric plane.
func geoPoint(k trajstore.GeoKey, m float64) core.Point {
	return core.Point{X: k.Lon * m, Y: k.Lat * m, T: float64(k.T)}
}

// pairInWindow is the in-memory ground-truth predicate applied to one
// metric-plane segment: bounding boxes intersect (boundaries inclusive,
// matching geom.Box.Intersects) and the time spans overlap.
func pairInWindow(a, b core.Point, minX, minY, maxX, maxY, t0, t1 float64) bool {
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
	return loX <= maxX && hiX >= minX && loY <= maxY && hiY >= minY && loT <= t1 && hiT >= t0
}

// QueryWindow answers a spatio-temporal window query in the projected
// metric plane: every stored trajectory segment whose bounding box
// intersects [minX, maxX] × [minY, maxY] and whose observation time
// overlaps [t0, t1]. Results merge the live in-memory stores with the
// durable log (when the configured Persister is a trajstore.Backend):
// durable records are split into their consecutive key-point
// pairs, filtered exactly, and deduplicated against the live set at
// wire resolution — so a segment both in memory and on disk is
// reported once, persisted history from before a restart is reported
// from disk, and a still-streaming session's tail is reported from
// memory. Durable-only segments come back with ID 0 and Weight 1.
//
// Like Stats, the snapshot is not a barrier: fixes still queued for a
// shard worker are invisible until processed. Call Sync first for a
// quiescent view. Results from live stores that were merged under a
// MergeTolerance, or aged, may not exactly coincide with their durable
// counterparts; such near-duplicates are reported from both sides.
//
// When the durable side fails, the error matches ErrPartialResult
// (wrapping the underlying failure) and the returned slice holds the
// live-side answer only — a documented partial view, not a silent one.
func (e *Engine) QueryWindow(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]trajstore.Segment, error) {
	// Register in compactWG under the same lock the closed check reads,
	// exactly like CompactNow/Heal: Close waits on compactWG before
	// closing the backend, so an admitted query can never race the
	// persister's teardown and report a spurious partial result against
	// itself.
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrClosed
	}
	e.compactWG.Add(1)
	e.mu.RUnlock()
	defer e.compactWG.Done()

	ft0, ft1 := float64(t0), float64(t1)
	out := e.stores.QueryWindow(minX, minY, maxX, maxY, ft0, ft1)
	m := e.mPerDegree
	durable, err := e.backend.QueryWindow(minX/m, minY/m, maxX/m, maxY/m, t0, t1)
	if err != nil {
		return out, fmt.Errorf("%w: %w", ErrPartialResult, err)
	}
	if len(durable) == 0 {
		return out, nil
	}
	seen := make(map[pairKey]bool, len(out))
	for _, s := range out {
		seen[pairKeyOf(s.A, s.B, m)] = true
	}
	for _, rec := range durable {
		for i := 0; i+1 < len(rec.Keys); i++ {
			a := geoPoint(rec.Keys[i], m)
			b := geoPoint(rec.Keys[i+1], m)
			if !pairInWindow(a, b, minX, minY, maxX, maxY, ft0, ft1) {
				continue
			}
			k := pairKeyOf(a, b, m)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, trajstore.Segment{A: a, B: b, Weight: 1, FirstT: a.T, LastT: b.T})
		}
	}
	return out, nil
}
