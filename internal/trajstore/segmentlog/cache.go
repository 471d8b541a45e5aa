// Read-side record cache: verified record payloads keyed by (manifest
// generation, segment path, record offset). The bytes at a (path, off)
// are immutable for as long as a generation references them — appends
// only extend files, and every layout change (rotation, compaction,
// heal/salvage, recovery truncation) publishes a new manifest
// generation — so a generation bump is the whole invalidation
// protocol: stale entries simply stop being looked up and age out of
// the LRU tail. A cache hit serves from memory and therefore skips the
// pread and the CRC re-verification; the CRC was verified when the entry
// was populated.
//
// One cache is shared by all shard logs of a ShardedLog (a single
// budget for the tree); the path component of the key includes the
// shard directory, so keys never collide across shards.
package segmentlog

import "github.com/trajcomp/bqs/internal/cache"

// recKey identifies one immutable record body in one published
// generation of one log.
type recKey struct {
	gen  uint64
	path string
	off  int64
}

// recordCache is the concrete cache type the log embeds: a record's Block,
// whose payload nobody writes, so entries are shared, never cloned. A nil
// *recordCache is the configured-off state: every operation no-ops.
type recordCache = cache.Cache[recKey, Block]

// newRecordCache builds a record cache with the given byte budget (nil —
// off — when maxBytes ≤ 0). An entry is charged what it holds: the stored
// bytes, the key strings, and a fixed allowance for the record header the
// payload's buffer also pins and for struct, list and map overhead.
func newRecordCache(maxBytes int64) *recordCache {
	return cache.New(maxBytes, func(k recKey, v Block) int64 {
		return int64(len(k.path)+len(v.Device)+len(v.Payload)) + 128
	})
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
