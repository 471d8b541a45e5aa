package baseline

import (
	"container/heap"
	"errors"
	"math"

	"github.com/trajcomp/bqs/internal/core"
)

// SQUISH-E (Muckell et al., GeoInformatica 2013) is the related-work
// priority-queue compressor the paper discusses: each interior point
// carries a priority estimating the error introduced by removing it
// (its SED — synchronized Euclidean distance — to the segment between its
// live neighbours, plus the accumulated error of points already removed
// between them). SQUISH-E(λ) bounds the compression ratio and runs online;
// SQUISH-E(μ) bounds the error but needs the whole stream, matching the
// paper's observation that "the error-bound version runs offline only".
//
// It is provided as an extension baseline for ablation studies; the paper's
// own evaluation compares BQS against DP/BDP/BGD/DR.

// sqPoint is a doubly-linked priority-queue node.
type sqPoint struct {
	p          core.Point
	pri        float64 // removal priority (estimated introduced error)
	acc        float64 // max accumulated error of removed neighbours
	prev, next int     // linked-list indices, -1 at ends
	heapIdx    int     // position in the heap, -1 when removed
}

type sqHeap struct {
	nodes []*sqPoint
}

func (h sqHeap) Len() int           { return len(h.nodes) }
func (h sqHeap) Less(i, j int) bool { return h.nodes[i].pri < h.nodes[j].pri }
func (h sqHeap) Swap(i, j int) {
	h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
	h.nodes[i].heapIdx = i
	h.nodes[j].heapIdx = j
}
func (h *sqHeap) Push(x interface{}) {
	n := x.(*sqPoint)
	n.heapIdx = len(h.nodes)
	h.nodes = append(h.nodes, n)
}
func (h *sqHeap) Pop() interface{} {
	old := h.nodes
	n := old[len(old)-1]
	n.heapIdx = -1
	h.nodes = old[:len(old)-1]
	return n
}

// squish is the shared machinery, STTrace's too: maintain a buffer of
// capacity cap; when full, remove the minimum-priority interior point and,
// when accumulate is set (SQUISH-E), inflate its neighbours' accumulated
// error by its priority.
type squish struct {
	all        []*sqPoint
	h          sqHeap
	head       int
	tail       int
	cap        int
	accumulate bool
}

func newSquish(capacity int, accumulate bool) *squish {
	return &squish{head: -1, tail: -1, cap: capacity, accumulate: accumulate}
}

func (s *squish) push(p core.Point) {
	n := &sqPoint{p: p, pri: 0, prev: s.tail, next: -1, heapIdx: -1}
	idx := len(s.all)
	s.all = append(s.all, n)
	if s.tail >= 0 {
		s.all[s.tail].next = idx
	} else {
		s.head = idx
	}
	s.tail = idx
	heap.Push(&s.h, n)
	// A new tail makes the previous tail an interior point: set its real
	// priority now that both neighbours exist.
	if n.prev >= 0 && s.all[n.prev].prev >= 0 {
		s.refresh(n.prev)
	}
	if s.cap > 0 && s.h.Len() > s.cap {
		s.removeMin()
	}
}

// refresh recomputes the priority of interior node i.
func (s *squish) refresh(i int) {
	n := s.all[i]
	if n.prev < 0 || n.next < 0 || n.heapIdx < 0 {
		return
	}
	n.pri = n.acc + core.SyncDist(n.p, s.all[n.prev].p, s.all[n.next].p)
	heap.Fix(&s.h, n.heapIdx)
}

// removeMin evicts the lowest-priority interior point. Endpoints (infinite
// effective priority) are protected by skipping nodes without two
// neighbours; they are pushed with priority 0 but never interior when the
// heap holds > 2 nodes... they are instead given maximal priority here.
func (s *squish) removeMin() {
	// Endpoints must never be evicted: temporarily treat them as infinite.
	// Simplest robust approach: pop until an interior node is found,
	// keeping the popped endpoints aside.
	var kept []*sqPoint
	var victim *sqPoint
	for s.h.Len() > 0 {
		n := heap.Pop(&s.h).(*sqPoint)
		if n.prev >= 0 && n.next >= 0 {
			victim = n
			break
		}
		kept = append(kept, n)
	}
	for _, k := range kept {
		heap.Push(&s.h, k)
	}
	if victim == nil {
		return
	}
	p, nx := victim.prev, victim.next
	s.all[p].next = nx
	s.all[nx].prev = p
	if s.accumulate {
		s.all[p].acc = maxf(s.all[p].acc, victim.pri)
		s.all[nx].acc = maxf(s.all[nx].acc, victim.pri)
	}
	s.refresh(p)
	s.refresh(nx)
}

// minInteriorPriority returns the smallest interior priority, or +Inf.
func (s *squish) minInteriorPriority() float64 {
	best := math.Inf(1)
	for _, n := range s.h.nodes {
		if n.prev >= 0 && n.next >= 0 && n.pri < best {
			best = n.pri
		}
	}
	return best
}

func (s *squish) result() []core.Point {
	var out []core.Point
	for i := s.head; i >= 0; i = s.all[i].next {
		out = append(out, s.all[i].p)
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// SquishELambda compresses pts online with a bounded compression ratio
// lambda ≥ 1: the buffer capacity is ⌈n/λ⌉ and the lowest-priority point is
// evicted whenever the buffer overflows. The error is unbounded (the
// trade-off the paper criticizes).
func SquishELambda(pts []core.Point, lambda float64) ([]core.Point, error) {
	if lambda < 1 {
		return nil, errors.New("baseline: lambda must be ≥ 1")
	}
	if len(pts) <= 2 {
		out := make([]core.Point, len(pts))
		copy(out, pts)
		return out, nil
	}
	capacity := int(float64(len(pts))/lambda + 0.999999)
	if capacity < 2 {
		capacity = 2
	}
	s := newSquish(capacity, true)
	for _, p := range pts {
		s.push(p)
	}
	return s.result(), nil
}

// SquishEMu compresses pts with a bounded SED error mu: points are evicted
// greedily while the cheapest eviction stays within the bound. As the paper
// notes, this flavour requires the whole trajectory (offline).
func SquishEMu(pts []core.Point, mu float64) ([]core.Point, error) {
	if err := checkTolerance(mu); err != nil {
		return nil, err
	}
	if len(pts) <= 2 {
		out := make([]core.Point, len(pts))
		copy(out, pts)
		return out, nil
	}
	s := newSquish(0, true) // unbounded buffer: load everything first
	for _, p := range pts {
		s.push(p)
	}
	for s.minInteriorPriority() <= mu {
		s.removeMin()
	}
	return s.result(), nil
}
