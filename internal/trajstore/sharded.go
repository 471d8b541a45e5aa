package trajstore

import (
	"errors"
	"fmt"
)

// Stats is a point-in-time snapshot of a store's bookkeeping, usable on
// its own or merged across shards with Add. It is cheap to take (O(1)
// counter reads); the O(segments) wire-size accounting lives in
// StorageBytes so monitoring loops polling stats don't pay for it.
type Stats struct {
	Segments int // segments currently stored
	Inserted int // segments ever offered to Insert
	Merged   int // offered segments folded into an existing one
}

// Add accumulates o into s (shard merging).
func (s *Stats) Add(o Stats) {
	s.Segments += o.Segments
	s.Inserted += o.Inserted
	s.Merged += o.Merged
}

// Snapshot returns the store's current statistics.
func (st *Store) Snapshot() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return Stats{
		Segments: st.live,
		Inserted: st.inserted,
		Merged:   st.merged,
	}
}

// Sharded is a fixed set of independent Stores. Each shard has its own
// lock and spatial index, so writers hashed to different shards never
// contend; cross-shard reads fan out and concatenate. The caller owns the
// shard assignment (the ingestion engine hashes device IDs), which also
// means merging only deduplicates segments within a shard — the intended
// trade for linear write scaling.
type Sharded struct {
	shards []*Store
}

// NewSharded returns n independent stores built from the same Config.
func NewSharded(n int, cfg Config) (*Sharded, error) {
	if n <= 0 {
		return nil, errors.New("trajstore: shard count must be positive")
	}
	s := &Sharded{shards: make([]*Store, n)}
	for i := range s.shards {
		st, err := NewStore(cfg)
		if err != nil {
			return nil, fmt.Errorf("trajstore: shard %d: %w", i, err)
		}
		s.shards[i] = st
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns the i-th store.
func (s *Sharded) Shard(i int) *Store { return s.shards[i] }

// MergedStats sums the statistics of every shard.
func (s *Sharded) MergedStats() Stats {
	var total Stats
	for _, st := range s.shards {
		total.Add(st.Snapshot())
	}
	return total
}

// StorageBytes sums the wire-format size of every shard's contents.
// O(total segments); see Store.StorageBytes.
func (s *Sharded) StorageBytes() int {
	n := 0
	for _, st := range s.shards {
		n += st.StorageBytes()
	}
	return n
}

// Len returns the total number of stored segments across shards.
func (s *Sharded) Len() int {
	n := 0
	for _, st := range s.shards {
		n += st.Len()
	}
	return n
}

// Segments returns a snapshot of every shard's segments, concatenated.
// Segment IDs are only unique within a shard.
func (s *Sharded) Segments() []Segment {
	var out []Segment
	for _, st := range s.shards {
		out = append(out, st.Segments()...)
	}
	return out
}

// Query fans the rectangle query out to every shard and concatenates the
// results.
func (s *Sharded) Query(minX, minY, maxX, maxY float64) []Segment {
	var out []Segment
	for _, st := range s.shards {
		out = append(out, st.Query(minX, minY, maxX, maxY)...)
	}
	return out
}

// QueryWindow fans the combined spatio-temporal window query out to
// every shard and concatenates the results.
func (s *Sharded) QueryWindow(minX, minY, maxX, maxY, t0, t1 float64) []Segment {
	var out []Segment
	for _, st := range s.shards {
		out = append(out, st.QueryWindow(minX, minY, maxX, maxY, t0, t1)...)
	}
	return out
}

// QueryTime fans the time-window query out to every shard.
func (s *Sharded) QueryTime(t0, t1 float64) []Segment {
	var out []Segment
	for _, st := range s.shards {
		out = append(out, st.QueryTime(t0, t1)...)
	}
	return out
}

// Age runs the ageing procedure on every shard, returning the total key
// points dropped. The first shard error aborts the sweep.
func (s *Sharded) Age(cutoffT, tolerance float64) (dropped int, err error) {
	for i, st := range s.shards {
		d, err := st.Age(cutoffT, tolerance)
		dropped += d
		if err != nil {
			return dropped, fmt.Errorf("trajstore: shard %d: %w", i, err)
		}
	}
	return dropped, nil
}
