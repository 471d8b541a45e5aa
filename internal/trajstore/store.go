package trajstore

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/trajcomp/bqs/internal/baseline"
	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/geom"
)

// Segment is one stored compressed trajectory segment: two key points plus
// merge bookkeeping. Weight counts how many observed traversals the
// segment represents; FirstT/LastT span the times it was observed.
type Segment struct {
	ID     uint64
	A, B   core.Point
	Weight int
	FirstT float64
	LastT  float64
}

// length returns the spatial length of the segment.
func (s Segment) length() float64 { return s.A.Vec().Dist(s.B.Vec()) }

// Config parameterizes a Store.
type Config struct {
	// MergeTolerance is the maximum symmetric deviation at which a new
	// segment is considered a duplicate of a stored one and merged into it
	// (Section V-F: "If any existing compressed segment could represent
	// the same path with a minor error, the new segment is considered
	// duplicate information and is merged"). 0 disables merging.
	MergeTolerance float64
	// CellSize is the spatial-index grid cell size in metres; defaults to
	// 4× MergeTolerance or 100 m, whichever is larger.
	CellSize float64
}

// Store is an in-memory historical trajectory database with error-bounded
// merging and ageing. It is safe for concurrent use.
//
// Segment IDs are allocated sequentially, so the segment table is a dense
// chunked vector indexed by ID-1 rather than a map: the per-key-point
// insert on the ingestion hot path is an append into a fixed-size chunk
// (no reallocation ever copies existing segments, unlike a flat slice
// whose growth would move the whole table) and ID lookups from the
// spatial index are two direct loads. A deleted slot keeps a zero Segment
// (ID 0) as a tombstone; only ageing deletes, so tombstones stay rare and
// bounded by the segments ever replaced.
type Store struct {
	mu     sync.RWMutex
	cfg    Config
	nextID uint64
	segs   [][]Segment // chunks of segChunkSize; slot for ID at (id-1)>>bits, (id-1)&mask
	live   int         // segments currently stored (allocated slots minus tombstones)
	index  *gridIndex

	inserted int
	merged   int
}

const (
	segChunkBits = 12
	segChunkSize = 1 << segChunkBits // 4096 segments (256 KiB) per chunk
)

// segAt returns a pointer to the live segment with the given ID, or nil.
// Callers hold the lock.
func (st *Store) segAt(id uint64) *Segment {
	if id == 0 || id > st.nextID {
		return nil
	}
	i := id - 1
	s := &st.segs[i>>segChunkBits][i&(segChunkSize-1)]
	if s.ID == 0 {
		return nil
	}
	return s
}

// appendSeg stores s under the just-allocated st.nextID. Callers hold the
// lock and have incremented nextID.
func (st *Store) appendSeg(s Segment) {
	if n := len(st.segs); n == 0 || len(st.segs[n-1]) == segChunkSize {
		st.segs = append(st.segs, make([]Segment, 0, segChunkSize))
	}
	n := len(st.segs) - 1
	st.segs[n] = append(st.segs[n], s)
	st.live++
}

// forEachSeg calls fn for every live segment. Callers hold the lock; fn
// may tombstone the segment it is handed but must not append.
func (st *Store) forEachSeg(fn func(*Segment)) {
	for _, chunk := range st.segs {
		for i := range chunk {
			if chunk[i].ID != 0 {
				fn(&chunk[i])
			}
		}
	}
}

// NewStore returns an empty store.
func NewStore(cfg Config) (*Store, error) {
	if cfg.MergeTolerance < 0 || math.IsNaN(cfg.MergeTolerance) || math.IsInf(cfg.MergeTolerance, 0) {
		return nil, errors.New("trajstore: merge tolerance must be a finite number ≥ 0")
	}
	if cfg.CellSize <= 0 {
		cfg.CellSize = math.Max(100, 4*cfg.MergeTolerance)
	}
	return &Store{
		cfg:   cfg,
		index: newGridIndex(cfg.CellSize),
	}, nil
}

// Len returns the number of stored segments.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.live
}

// Stats returns how many segments were inserted and how many of those were
// merged into existing ones.
func (st *Store) Stats() (inserted, merged int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.inserted, st.merged
}

// InsertTrajectory inserts every segment of a compressed trajectory
// (consecutive key-point pairs), merging duplicates. It returns the number
// of segments merged rather than newly stored.
func (st *Store) InsertTrajectory(keys []core.Point) int {
	merged := 0
	for i := 0; i+1 < len(keys); i++ {
		if st.Insert(keys[i], keys[i+1]) {
			merged++
		}
	}
	return merged
}

// Insert stores the segment (a, b), merging it into a similar historical
// segment when one exists. It reports whether a merge happened.
func (st *Store) Insert(a, b core.Point) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inserted++
	if st.cfg.MergeTolerance > 0 {
		if s := st.findSimilar(a, b); s != nil {
			s.Weight++
			s.FirstT = math.Min(s.FirstT, a.T)
			s.LastT = math.Max(s.LastT, b.T)
			st.merged++
			return true
		}
	}
	st.nextID++
	st.appendSeg(Segment{ID: st.nextID, A: a, B: b, Weight: 1, FirstT: a.T, LastT: b.T})
	st.index.insert(st.nextID, segBox(a, b))
	return false
}

// findSimilar looks for a stored segment that represents the same path as
// (a, b) within the merge tolerance: endpoints within tolerance of the
// stored segment (and vice versa for the stored endpoints), i.e. a
// symmetric Hausdorff-style test on the two 2-point polylines. It returns
// the resolved live segment (nil when none matches) so the caller does
// not repeat the table lookup.
func (st *Store) findSimilar(a, b core.Point) *Segment {
	tol := st.cfg.MergeTolerance
	box := segBox(a, b).Inflate(tol)
	for _, id := range st.index.query(box) {
		s := st.segAt(id)
		if s == nil {
			continue
		}
		if symmetricSegmentDistance(a.Vec(), b.Vec(), s.A.Vec(), s.B.Vec()) <= tol {
			return s
		}
	}
	return nil
}

// symmetricSegmentDistance returns the symmetric Hausdorff distance
// between segments (a1, b1) and (a2, b2): the farthest any endpoint lies
// from the other segment. For 2-point polylines the endpoint set realizes
// the Hausdorff maximum.
func symmetricSegmentDistance(a1, b1, a2, b2 geom.Vec) float64 {
	d := geom.DistToSegment(a1, a2, b2)
	if v := geom.DistToSegment(b1, a2, b2); v > d {
		d = v
	}
	if v := geom.DistToSegment(a2, a1, b1); v > d {
		d = v
	}
	if v := geom.DistToSegment(b2, a1, b1); v > d {
		d = v
	}
	return d
}

// Query returns the segments intersecting the axis-aligned rectangle
// [minX, maxX] × [minY, maxY] (by bounding box).
func (st *Store) Query(minX, minY, maxX, maxY float64) []Segment {
	st.mu.RLock()
	defer st.mu.RUnlock()
	box := geom.Box{Min: geom.V(minX, minY), Max: geom.V(maxX, maxY)}
	var out []Segment
	for _, id := range st.index.query(box) {
		s := st.segAt(id)
		if s == nil {
			continue
		}
		if segBox(s.A, s.B).Intersects(box) {
			out = append(out, *s)
		}
	}
	return out
}

// QueryWindow returns the segments intersecting the axis-aligned
// rectangle (by bounding box) whose observation window also overlaps
// [t0, t1] — Query ∩ QueryTime in one indexed pass. It is the
// in-memory ground truth the durable log's window queries are tested
// against.
func (st *Store) QueryWindow(minX, minY, maxX, maxY, t0, t1 float64) []Segment {
	st.mu.RLock()
	defer st.mu.RUnlock()
	box := geom.Box{Min: geom.V(minX, minY), Max: geom.V(maxX, maxY)}
	var out []Segment
	for _, id := range st.index.query(box) {
		s := st.segAt(id)
		if s == nil {
			continue
		}
		if s.FirstT <= t1 && s.LastT >= t0 && segBox(s.A, s.B).Intersects(box) {
			out = append(out, *s)
		}
	}
	return out
}

// QueryTime returns the segments whose observation window overlaps
// [t0, t1].
func (st *Store) QueryTime(t0, t1 float64) []Segment {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []Segment
	st.forEachSeg(func(s *Segment) {
		if s.FirstT <= t1 && s.LastT >= t0 {
			out = append(out, *s)
		}
	})
	return out
}

// Segments returns a snapshot of all stored segments.
func (st *Store) Segments() []Segment {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]Segment, 0, st.live)
	st.forEachSeg(func(s *Segment) { out = append(out, *s) })
	return out
}

// Age re-compresses chains of stored segments with a coarser tolerance
// (Section V-F: "the ageing procedure re-runs the compression algorithm on
// the existing trajectories that are already compressed, but with a
// greater error tolerance"). Segments whose observation ended before
// cutoffT are grouped into temporally contiguous chains, each chain's key
// points are re-compressed with Douglas-Peucker at the given tolerance,
// and the chain is replaced. It returns how many key points were dropped.
func (st *Store) Age(cutoffT, tolerance float64) (dropped int, err error) {
	if tolerance <= 0 || math.IsNaN(tolerance) {
		return 0, errors.New("trajstore: ageing tolerance must be positive")
	}
	st.mu.Lock()
	defer st.mu.Unlock()

	// Collect aged segments and chain them by shared endpoints. The aged
	// subset is gathered once; the chain growing re-scans only it.
	var aged []*Segment
	st.forEachSeg(func(s *Segment) {
		if s.LastT < cutoffT {
			aged = append(aged, s)
		}
	})
	var chains [][]core.Point
	used := make(map[uint64]bool)
	for _, s := range aged {
		if used[s.ID] {
			continue
		}
		// Grow a chain forward and backward through matching endpoints.
		chain := []core.Point{s.A, s.B}
		used[s.ID] = true
		for extended := true; extended; {
			extended = false
			for _, s2 := range aged {
				if used[s2.ID] {
					continue
				}
				last := chain[len(chain)-1]
				first := chain[0]
				switch {
				case s2.A.Equal(last):
					chain = append(chain, s2.B)
					used[s2.ID] = true
					extended = true
				case s2.B.Equal(first):
					chain = append([]core.Point{s2.A}, chain...)
					used[s2.ID] = true
					extended = true
				}
			}
		}
		chains = append(chains, chain)
	}

	for _, chain := range chains {
		kept, dpErr := baseline.DouglasPeucker(chain, tolerance, core.MetricLine)
		if dpErr != nil {
			return dropped, fmt.Errorf("trajstore: ageing failed: %w", dpErr)
		}
		dropped += len(chain) - len(kept)
		// Replace the chain's segments.
		st.removeChainLocked(chain)
		for i := 0; i+1 < len(kept); i++ {
			st.nextID++
			st.appendSeg(Segment{ID: st.nextID, A: kept[i], B: kept[i+1], Weight: 1,
				FirstT: kept[i].T, LastT: kept[i+1].T})
			st.index.insert(st.nextID, segBox(kept[i], kept[i+1]))
		}
	}
	return dropped, nil
}

// removeChainLocked deletes every stored segment whose endpoints are
// consecutive points of the chain. Callers hold the write lock.
func (st *Store) removeChainLocked(chain []core.Point) {
	for i := 0; i+1 < len(chain); i++ {
		st.forEachSeg(func(s *Segment) {
			if s.A.Equal(chain[i]) && s.B.Equal(chain[i+1]) {
				st.index.remove(s.ID, segBox(s.A, s.B))
				*s = Segment{} // tombstone
				st.live--
			}
		})
	}
}

// StorageBytes returns the store's contents in the paper's fixed sample
// budget: each distinct chain point costs WireSize bytes. It is the
// quantity the device's flash budget (Table II) constrains.
func (st *Store) StorageBytes() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	// Count distinct endpoints: consecutive segments share points.
	seen := make(map[[3]float64]bool, st.live*2)
	n := 0
	st.forEachSeg(func(s *Segment) {
		for _, p := range [2]core.Point{s.A, s.B} {
			k := [3]float64{p.X, p.Y, p.T}
			if !seen[k] {
				seen[k] = true
				n++
			}
		}
	})
	return n * WireSize
}

func segBox(a, b core.Point) geom.Box {
	minX, maxX := a.X, b.X
	if minX > maxX {
		minX, maxX = maxX, minX
	}
	minY, maxY := a.Y, b.Y
	if minY > maxY {
		minY, maxY = maxY, minY
	}
	return geom.Box{Min: geom.Vec{X: minX, Y: minY}, Max: geom.Vec{X: maxX, Y: maxY}}
}
