// Read-side record cache: verified records' blocks keyed by (segment
// path, record offset). The bytes at a (path, off) never change while
// the cache lives: appends only extend a file, a sealed file is never
// written again, segment numbers are never reused, heal and compaction
// write fresh paths, and recovery truncates before the cache exists. So
// there is no invalidation protocol: a rotation costs nothing, and the
// entries of files a compaction deletes or a heal cuts off simply stop
// being looked up and age out of the LRU tail. A cache hit serves from
// memory and therefore skips the pread, the CRC re-verification and the
// unpacking; the CRC was verified when the entry was populated.
//
// One cache is shared by all shard logs of a ShardedLog (a single
// budget for the tree); the path component of the key includes the
// shard directory, so keys never collide across shards.
package segmentlog

import "github.com/trajcomp/bqs/internal/cache"

// recKey identifies one immutable record body of one log.
type recKey struct {
	path string
	off  uint32
}

// recordCache is the concrete cache type the log embeds: a record's Block,
// whose payload nobody writes, so entries are shared, never cloned. A nil
// *recordCache is the configured-off state: every operation no-ops.
type recordCache = cache.Cache[recKey, Block]

// newRecordCache builds a record cache with the given byte budget (nil —
// off — when maxBytes ≤ 0). An entry is charged what it holds: the block,
// unpacked into a buffer of its own, the key strings, and a fixed allowance
// for struct, list and map overhead.
func newRecordCache(maxBytes int64) *recordCache {
	return cache.New(maxBytes, func(k recKey, v Block) int64 {
		return int64(len(k.path)+len(v.Device)+len(v.Payload)) + 128
	})
}
