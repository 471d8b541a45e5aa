// Read-side record cache: decoded records keyed by (manifest
// generation, segment path, record offset). The bytes at a (path, off)
// are immutable for as long as a generation references them — appends
// only extend files, and every layout change (rotation, compaction,
// heal/salvage, recovery truncation) publishes a new manifest
// generation — so a generation bump is the whole invalidation
// protocol: stale entries simply stop being looked up and age out of
// the LRU tail. A cache hit serves from memory and therefore skips the
// pread, the CRC re-verification and the delta-varint decode; the CRC
// was verified when the entry was populated.
//
// One cache is shared by all shard logs of a ShardedLog (a single
// budget for the tree); the path component of the key includes the
// shard directory, so keys never collide across shards.
package segmentlog

import (
	"github.com/trajcomp/bqs/internal/cache"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// recKey identifies one immutable record body in one published
// generation of one log.
type recKey struct {
	gen  uint64
	path string
	off  int64
}

// cachedRec is the cached decode of one record. The keys slice is
// owned by the cache: cloned in on put, cloned out on get, so neither
// the populating query's caller nor a later hit's caller can mutate
// the cached copy.
type cachedRec struct {
	device string
	t0, t1 uint32
	keys   []trajstore.GeoKey
}

// recordCache is the concrete cache type the log embeds. A nil
// *recordCache is the configured-off state: every operation no-ops.
type recordCache = cache.Cache[recKey, cachedRec]

// geoKeySize is the charged size of one trajstore.GeoKey (two float64
// coordinates plus a uint32 timestamp, padded): what the decoded slice
// actually costs, not the ~2.5-byte delta-encoded wire form.
const geoKeySize = 24

// recSize charges an entry what its decoded form occupies, plus the
// key strings and a fixed allowance for struct and list overhead.
func recSize(k recKey, v cachedRec) int64 {
	return int64(len(k.path)) + int64(len(v.device)) + geoKeySize*int64(len(v.keys)) + 96
}

// newRecordCache builds a record cache with the given byte budget
// (nil — off — when maxBytes ≤ 0).
func newRecordCache(maxBytes int64) *recordCache {
	return cache.New(maxBytes, recSize)
}

// cacheGet returns a private copy of the cached decode of the record
// at (gen, path, off), if present.
func (l *shardLog) cacheGet(gen uint64, path string, off int64) (Record, bool) {
	v, ok := l.cache.Get(recKey{gen: gen, path: path, off: off})
	if !ok {
		return Record{}, false
	}
	keys := make([]trajstore.GeoKey, len(v.keys))
	copy(keys, v.keys)
	return Record{Device: v.device, T0: v.t0, T1: v.t1, Keys: keys}, true
}

// cachePut stores a private copy of a freshly decoded record.
func (l *shardLog) cachePut(gen uint64, path string, off int64, r Record) {
	if l.cache == nil {
		return
	}
	keys := make([]trajstore.GeoKey, len(r.Keys))
	copy(keys, r.Keys)
	l.cache.Put(recKey{gen: gen, path: path, off: off},
		cachedRec{device: r.Device, t0: r.T0, t1: r.T1, keys: keys})
}

// CacheStats snapshots the read cache shared by all shards; all zero
// when no cache is configured.
func (s *ShardedLog) CacheStats() cache.Stats { return s.cache.Stats() }

// ReclaimedBytes is the cumulative net disk space reclaimed by
// compactions published over this open handle's lifetime, summed over
// shards (BytesIn − BytesOut per publish; a reseal pass that grows the
// data subtracts).
func (s *ShardedLog) ReclaimedBytes() int64 {
	var n int64
	for _, lg := range s.shards {
		n += lg.reclaimed.Load()
	}
	return n
}
