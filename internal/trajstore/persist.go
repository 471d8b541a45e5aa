package trajstore

import (
	"errors"
	"syscall"
)

// TransientErr classifies a persist-path failure: true for errors that
// plausibly clear on their own (an I/O hiccup, an interrupted or timed
// out syscall) and are worth retrying with backoff; false for terminal
// conditions — a full disk (ENOSPC/EDQUOT), corruption, or anything
// unrecognized — where retrying the same append can only burn time
// while the engine should be flipping into degraded mode. The
// classifier lives here rather than in the engine so it can be applied
// to any Persister implementation's errors.
func TransientErr(err error) bool {
	for _, t := range []error{syscall.EIO, syscall.ETIMEDOUT, syscall.EINTR, syscall.EAGAIN} {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// Persister is the durability hook of the storage layer: finalized
// (flushed or evicted) session trajectories are handed to it as wire
// GeoKeys — the slice is the implementation's to keep — and Sync acts as
// a durability barrier: every Append that returned before Sync must
// survive a crash once Sync returns. The segmentlog package provides the
// append-only file implementation; tests substitute in-memory fakes.
// Implementations must be safe for concurrent use (shard workers append
// concurrently).
type Persister interface {
	Append(device string, keys []GeoKey) error
	Sync() error
	Close() error
}

// ShardIndex routes a device ID to one of n shards by FNV-1a. It is THE
// routing function of the system: the ingestion engine's shard workers
// and the sharded segment log both use it, so when their shard counts
// agree a device's session worker appends straight into the shard log
// it owns — no cross-shard handoff, no second hash. Callers guarantee
// n ≥ 1.
func ShardIndex(device string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(device); i++ {
		h ^= uint64(device[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// PersistedRecord is one durably stored trajectory as read back from a
// Persister's log: the decoded key points plus the indexed time bounds.
// segmentlog.Record is an alias of this type.
type PersistedRecord struct {
	Device string
	T0, T1 uint32   // indexed observation time bounds, seconds
	Keys   []GeoKey // the compressed trajectory's key points
}

// Backend is the durable storage the ingestion engine runs on: a
// Persister that is sharded by ShardIndex over the device ID, compacts
// itself and answers window and per-device queries from disk as the
// blocks it stores. segmentlog.ShardedLog is the implementation;
// AppendOnly adapts anything that is only a Persister. Every method must
// be safe to call concurrently with every other.
type Backend interface {
	Persister
	// AppendTrail is the engine's one way in: Append for a finalized
	// trajectory held as the block its session built. It must copy what it
	// keeps (AppendBlock, Keys): t's pages return to a pool. Routing by ShardIndex
	// means an engine with the same shard count has each worker appending
	// to a log shard of its own.
	AppendTrail(device string, t *Trail) error
	// CompactNow runs the drain's compaction pass — rewriting everything
	// stored smaller by merging and ageing, see segmentlog.ShardedLog.Compact
	// — with the configured policy. Periodic passes are the backend's own.
	CompactNow() error
	// WindowBlocks visits, shard by shard and in log order within one,
	// every stored record with at least one consecutive key-point pair
	// whose bounding box intersects [minLon, maxLon] × [minLat, maxLat]
	// (degrees) and whose time span overlaps [t0, t1] (LatticeWindow's rule
	// on the bounds); DeviceBlocks visits device's records whose time
	// bounds overlap [t0, t1], in append order. Each is handed over as the
	// Block stored, nothing decoded, unchanged after visit returns whatever
	// the log does next (Block); an error from visit ends the read.
	WindowBlocks(minLon, minLat, maxLon, maxLat float64, t0, t1 uint32, visit func(Block) error) error
	DeviceBlocks(device string, t0, t1 uint32, visit func(Block) error) error
}

// AppendOnly adapts a bare Persister to Backend: nothing to compact or
// query. It is the one place a built trail turns back into GeoKeys: every
// Append p sees gets a freshly allocated slice it may keep. A nil p yields
// the "no persister" backend, whose Append, Sync and Close do nothing
// either.
func AppendOnly(p Persister) Backend {
	if p == nil {
		p = nopPersister{}
	}
	return appendOnly{p}
}

type appendOnly struct{ Persister }

func (a appendOnly) AppendTrail(device string, t *Trail) error {
	return a.Append(device, t.Keys())
}
func (appendOnly) CompactNow() error { return nil }
func (appendOnly) WindowBlocks(_, _, _, _ float64, _, _ uint32, _ func(Block) error) error {
	return nil
}
func (appendOnly) DeviceBlocks(string, uint32, uint32, func(Block) error) error { return nil }

type nopPersister struct{}

func (nopPersister) Append(string, []GeoKey) error { return nil }
func (nopPersister) Sync() error                   { return nil }
func (nopPersister) Close() error                  { return nil }
