// Spatio-temporal window queries over the durable log. QueryWindow is
// the cross-device counterpart of the per-device Query: it returns
// every record whose trajectory actually enters an axis-aligned window
// during a time range, pruning with two metadata tiers before touching
// any payload — per-segment summaries (the bbox/time union of a whole
// file) and per-record bounding boxes (from the record headers). The
// bounding structures only ever prune: a candidate record's block is
// walked and tested exactly.
package segmentlog

import "github.com/trajcomp/bqs/internal/trajstore"

// segSummary is the per-segment metadata union used for segment-level
// pruning: the bounds of every record in the file (valid when records >
// 0). It is maintained incrementally on append and rebuilt by the scan on
// Open.
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
// two pruning tiers saved and how many records had to be read. The
// selectivity win of the metadata is RecordsDecoded versus the
// total record count a full scan would read.
type WindowStats struct {
	Segments       int // segments in the snapshot
	SegmentsPruned int // skipped whole via segment summaries
	RecordsIndexed int // records whose metadata was examined
	RecordsPruned  int // records skipped via per-record bbox/time bounds
	RecordsDecoded int // candidate records read back from disk and verified
	RecordsMatched int // records returned
	CacheHits      int // candidate records served from the read cache (not read)
}

// windowBlocks visits, in log order, every record that enters w (see
// trajstore.Enters): segment summaries and per-record bounding boxes prune the
// candidate set under the lock, the candidates are walked exactly. The
// pass's statistics are added to ws.
func (l *shardLog) windowBlocks(w *trajstore.Window, ws *WindowStats, visit func(Block) error) error {
	return l.read(w, ws, visit, func() (cands []refSnap) {
		ws.Segments += len(l.segs)
		for si := range l.segs {
			s := &l.segs[si]
			if s.sum.records == 0 || !w.Meets(s.sum.Bounds) {
				ws.SegmentsPruned++
				continue
			}
			for pi := range s.recs {
				m := &s.recs[pi]
				ws.RecordsIndexed++
				if !w.Meets(m.Bounds) {
					ws.RecordsPruned++
					continue
				}
				cands = append(cands, refSnap{seg: si, off: m.off, bodyLen: m.bodyLen})
			}
		}
		return cands
	})
}
