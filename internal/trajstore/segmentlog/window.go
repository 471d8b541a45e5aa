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

// sumOf is a segment's summary for segment-level pruning: the union of
// its records' bounds, valid when there are records.
func sumOf(metas []recordMeta) (sum trajstore.Bounds) {
	for i := range metas {
		if i == 0 {
			sum = metas[i].Bounds
		}
		sum.Union(metas[i].Bounds)
	}
	return sum
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
			if len(s.recs) == 0 || !w.Meets(s.sum) {
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
