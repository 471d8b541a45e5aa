// Spatio-temporal window queries over the durable log. QueryWindow is
// the cross-device counterpart of the per-device Query: it returns
// every record whose trajectory actually enters an axis-aligned window
// during a time range, pruning with two metadata tiers before touching
// any payload — per-segment summaries (the manifest-level bbox/time
// union of a whole file) and per-record bounding boxes (from the block
// index / record headers). The bounding structures only ever prune: a
// candidate record is decoded and tested exactly, so the indexed and the
// scan-fallback paths return identical results.
package segmentlog

import (
	"errors"
	"fmt"
	"io/fs"
	"math"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// meets reports whether bounds b — a record's, or a segment's union —
// can hold a key pair inside the degree-coordinate window [minX, maxX] ×
// [minY, maxY] (X longitude, Y latitude) during [t0, t1], boundaries
// inclusive — matching trajstore's geom.Box.Intersects. The bounds are on
// the lattice DeltaEncode quantizes to, so they bound the decoded key
// points exactly.
func meets(b trajstore.Bounds, minX, minY, maxX, maxY float64, t0, t1 uint32) bool {
	return b.T0 <= t1 && b.T1 >= t0 &&
		float64(b.MinLon)/1e7 <= maxX && float64(b.MaxLon)/1e7 >= minX &&
		float64(b.MinLat)/1e7 <= maxY && float64(b.MaxLat)/1e7 >= minY
}

// segSummary is the per-segment metadata union used for segment-level
// pruning: the bounds of every record in the file (valid when records >
// 0). It is maintained incrementally on append, rebuilt from the block
// index or scan on Open, and published in the MANIFEST for sealed
// segments.
type segSummary struct {
	records int
	trajstore.Bounds
}

// add folds one record's bounds into the summary.
func (s *segSummary) add(b trajstore.Bounds) {
	if s.records == 0 {
		s.Bounds = b
	}
	s.Union(b)
	s.records++
}

// sumOf summarizes a segment's records.
func sumOf(metas []recordMeta) (s segSummary) {
	for i := range metas {
		s.add(metas[i].Bounds)
	}
	return s
}

// WindowStats reports how a window query was answered: how much the
// two pruning tiers saved and how many records had to be decoded. The
// selectivity win of the block index is RecordsDecoded versus the
// total record count a full scan would decode.
type WindowStats struct {
	Segments       int // segments in the snapshot
	SegmentsPruned int // skipped whole via segment summaries
	RecordsIndexed int // records whose metadata was examined
	RecordsPruned  int // records skipped via per-record bbox/time bounds
	RecordsDecoded int // candidate records read and decoded from disk
	RecordsMatched int // records returned
	CacheHits      int // candidate records served from the read cache (not decoded)
}

// windowMatch is the exact predicate: the polyline has at least one
// consecutive key-point pair whose bounding box intersects the window
// and whose time span overlaps [t0, t1] — the same per-segment test
// the in-memory trajstore ground truth (Query ∩ QueryTime) applies.
// Records with fewer than two keys never match.
func windowMatch(keys []trajstore.GeoKey, minX, minY, maxX, maxY float64, t0, t1 uint32) bool {
	for i := 0; i+1 < len(keys); i++ {
		a, b := &keys[i], &keys[i+1]
		loX, hiX := a.Lon, b.Lon
		if loX > hiX {
			loX, hiX = hiX, loX
		}
		if loX > maxX || hiX < minX {
			continue
		}
		loY, hiY := a.Lat, b.Lat
		if loY > hiY {
			loY, hiY = hiY, loY
		}
		if loY > maxY || hiY < minY {
			continue
		}
		loT, hiT := a.T, b.T
		if loT > hiT {
			loT, hiT = hiT, loT
		}
		if loT > t1 || hiT < t0 {
			continue
		}
		return true
	}
	return false
}

// QueryWindowStats returns the decoded records — across all devices, in
// log order — that enter the window [minX, maxX] × [minY, maxY]
// (degrees: X longitude, Y latitude) during [t0, t1]: records with at
// least one consecutive key-point pair whose bounding box intersects
// the window and whose time span overlaps the range — plus the pruning
// statistics. Segment summaries and per-record bounding boxes prune the
// candidate set; candidates are decoded and tested exactly. Like Query,
// a call racing a concurrent compaction transparently retries against
// the newly published generation.
func (l *shardLog) QueryWindowStats(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]Record, WindowStats, error) {
	if math.IsNaN(minX) || math.IsNaN(minY) || math.IsNaN(maxX) || math.IsNaN(maxY) {
		return nil, WindowStats{}, errors.New("segmentlog: window bounds must not be NaN")
	}
	if minX > maxX || minY > maxY || t0 > t1 {
		return nil, WindowStats{}, fmt.Errorf("segmentlog: inverted window [%g,%g]×[%g,%g] t[%d,%d]", minX, maxX, minY, maxY, t0, t1)
	}
	for attempt := 0; ; attempt++ {
		out, ws, retry, err := l.queryWindowOnce(minX, minY, maxX, maxY, t0, t1)
		if err != nil && retry && attempt < 4 {
			continue
		}
		if err != nil && retry && l.ro {
			return out, ws, fmt.Errorf("segmentlog: log rewritten by a concurrent compaction; reopen to read the new generation: %w", err)
		}
		return out, ws, err
	}
}

// queryWindowOnce is one snapshot-prune-decode pass; retry is true when
// a segment file vanished under a concurrent compaction.
func (l *shardLog) queryWindowOnce(minX, minY, maxX, maxY float64, t0, t1 uint32) (out []Record, ws WindowStats, retry bool, err error) {
	cands, segs, gen, ws, err := l.snapshotWindow(minX, minY, maxX, maxY, t0, t1)
	if err != nil {
		return nil, ws, false, err
	}
	files := newSegReader(l.fs, segs)
	defer files.close()
	for _, ref := range cands {
		// Candidates that fail the exact test below are cached too: they
		// survived the metadata pruning, so the same window (or a
		// neighboring one) will keep re-reading them.
		rec, hit, err := l.loadRecord(files, gen, ref)
		if err != nil {
			return nil, ws, errors.Is(err, fs.ErrNotExist), err
		}
		if hit {
			ws.CacheHits++
		} else {
			ws.RecordsDecoded++
		}
		if !windowMatch(rec.Keys, minX, minY, maxX, maxY, t0, t1) {
			continue
		}
		ws.RecordsMatched++
		out = append(out, rec)
	}
	return out, ws, false, nil
}

// snapshotWindow collects, under the lock, the candidate records whose
// metadata cannot rule out a window match, flushing pending writes
// first so disk reads observe every indexed record. Candidates come
// back in (segment, offset) order — log order. gen is the manifest
// generation the snapshot belongs to — the cache epoch of every
// candidate returned.
func (l *shardLog) snapshotWindow(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]refSnap, []string, uint64, WindowStats, error) {
	var ws WindowStats
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, 0, ws, ErrClosed
	}
	// A flush failure poisons the active segment and withdraws the
	// at-risk records from the index, leaving it consistent — window
	// queries keep answering from the durable prefix (see snapshotRefs).
	if err := l.flushLocked(); err != nil && !l.poisoned {
		return nil, nil, 0, ws, err
	}
	var cands []refSnap
	ws.Segments = len(l.segs)
	for si := range l.segs {
		sum := &l.segs[si].sum
		if sum.records == 0 || !meets(sum.Bounds, minX, minY, maxX, maxY, t0, t1) {
			ws.SegmentsPruned++
			continue
		}
		// Deferred segments carry their manifest summary, so the prune
		// above worked without touching disk; only a segment the window
		// might actually hit pays its load here.
		if err := l.ensureSegLoadedLocked(si); err != nil {
			return nil, nil, 0, ws, err
		}
		for pi := range l.segRecs[si] {
			m := &l.segRecs[si][pi]
			ws.RecordsIndexed++
			if !meets(m.Bounds, minX, minY, maxX, maxY, t0, t1) {
				ws.RecordsPruned++
				continue
			}
			cands = append(cands, refSnap{seg: si, off: m.off, bodyLen: m.bodyLen})
		}
	}
	return cands, l.segPathsLocked(), l.gen, ws, nil
}
