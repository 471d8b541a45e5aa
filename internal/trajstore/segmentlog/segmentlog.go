// Package segmentlog is the durable persistence layer of the trajectory
// database: an append-only, CRC-checksummed log of finalized compressed
// trajectories, stored as trajstore.Trail.AppendPacked writes them.
//
// The design follows the constraints of the paper's target platform and
// the ROADMAP's server-side north star at once: writes are single-pass
// and sequential (one buffered append per finalized trajectory, fsync on
// a Sync barrier or once maxUnsynced bytes wait), files rotate at a size threshold so
// retention and compaction can operate on whole segments, and recovery
// is a forward scan that rebuilds the in-memory index (device → record
// offsets + time bounds + spatial bounding boxes) and truncates a torn
// tail left by a crash mid-write. Everything before the last completed
// Sync is durable; a torn record after it is detected by length/CRC
// validation and dropped. A sealed segment is its own index: every open
// scans it, and window queries (see window.go) prune records spatially
// on the metadata the scan kept, without decoding them.
//
// On-disk layout. A log root (see sharded.go) holds SHARDS, the writer
// LOCK and one shard directory per shard. A shard directory holds a
// MANIFEST (see manifest.go) naming the live segment files in logical
// order and the numbered segment files "seg-00000001.log",
// "seg-00000002.log", .... Writers emit segment version 5; versions 4, 3
// and 2 are read until a compaction rewrites them; any other version is
// rejected with ErrCorrupt. Segment numbers are allocated from a monotonic
// sequence and never reused while referenced; after compaction (see compact.go) a
// low-numbered file may be superseded by a higher-numbered one holding
// older data, which is why the MANIFEST — not directory order — defines
// the log. Each segment file starts with
// an 8-byte header — magic "BQSLOG" plus a version byte and a zero pad —
// followed by length-prefixed records:
//
//	u32  bodyLen   little-endian length of body
//	u32  crc32c    Castagnoli CRC of body
//	body:
//	  uvarint deviceLen, device ID bytes
//	  payload              the packed key points (Trail.AppendPacked)
//
// (Version 4 packs the payload without the turn, the flags and the ageing
// watermark — trajstore.UnpackV4Block; versions 3 and 2 also frame the ID
// with a u16 length and put the record's bounds, 24 bytes, before the
// payload — in version 2 the delta-varint block.) A record is valid iff its
// length prefix fits in the file, bodyLen is plausible (≤ MaxRecordBytes),
// the CRC matches and its payload unpacks to keys on the globe — the walk
// that gives the record's bounds; the first invalid record ends the scan
// and the file is truncated there.
package segmentlog

import (
	"errors"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/trajcomp/bqs/internal/cache"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

const (
	// headerSize is the per-file header: 6 magic bytes, version, pad.
	headerSize = 8
	// recordHeaderSize prefixes every record: u32 bodyLen + u32 crc32c.
	recordHeaderSize = 8
	// version is the format version byte of every segment file written
	// (the package comment has its records); from oldestVersion on, read.
	version, oldestVersion = 5, 2
	// MaxRecordBytes caps a single record body. A length prefix above it
	// is treated as corruption, bounding allocation on malicious or
	// damaged input. 16 MiB ≈ 1.5 M key points per trajectory.
	MaxRecordBytes = 16 << 20
	// DefaultMaxSegmentBytes is the rotation threshold when Options
	// leaves it zero.
	DefaultMaxSegmentBytes = 64 << 20
	// maxSegmentSize caps a segment file, so that its record offsets fit
	// recordMeta's 32 bits (openShardLog bounds MaxSegmentBytes by it).
	maxSegmentSize = 1 << 32
	// lockName is the advisory lock file granting a process exclusive
	// write access to a log root.
	lockName = "LOCK"
)

var magic = [6]byte{'B', 'Q', 'S', 'L', 'O', 'G'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("segmentlog: closed")

// ErrReadOnly reports a mutating operation on a log opened with
// Options.ReadOnly.
var ErrReadOnly = errors.New("segmentlog: read-only")

// ErrLocked reports that another process holds the directory's write
// lock (a live engine, another bqsrecover -repair, ...).
var ErrLocked = errors.New("segmentlog: directory locked by another process")

// ErrCorrupt reports a structurally invalid segment file or manifest
// (bad magic, unsupported version, sealed CRC mismatch) that recovery
// cannot interpret at all; torn or checksum-failing records are
// recovered from silently and do not raise it.
var ErrCorrupt = errors.New("segmentlog: corrupt segment file")

// Options parameterizes OpenSharded.
type Options struct {
	// MaxSegmentBytes rotates the active segment file once its size
	// reaches this threshold (4 GiB less one record at most). Default DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
	// ReadOnly opens the log purely for inspection: no directory lock is
	// taken and nothing on disk is modified — a torn tail is skipped
	// (reported in Stats.Truncated) instead of truncated in place, and
	// Append/Sync/Compact return ErrReadOnly. This is the safe mode for
	// looking at a directory a live engine may own; bqsrecover uses it
	// by default.
	ReadOnly bool
	// Compaction, when non-nil, is the policy CompactNow and, with Every
	// set, the log's own periodic passes apply. Explicit Compact calls pass
	// their own policy and ignore this field.
	Compaction *CompactionPolicy
	// FS substitutes the filesystem every disk operation goes through.
	// nil means vfs.OS, the zero-overhead passthrough to the os
	// package — production callers never set this. Tests inject
	// vfs.FaultFS to exercise ENOSPC/EIO/fsync-failure/crash schedules
	// against the whole durable stack.
	FS vfs.FS
	// CacheBytes, when positive, enables the read-side record cache
	// with that byte budget: query paths serve repeated reads of the
	// same record from memory, skipping the pread and CRC
	// re-verification. Entries are keyed by segment path and record
	// offset, bytes that never change, so nothing is ever invalidated:
	// what a compaction deletes ages out (see cache.go). Zero disables
	// caching, the default.
	CacheBytes int64
	// cache is the one record cache OpenSharded builds from CacheBytes
	// for all of its shard logs: one budget.
	cache *recordCache
}

// Record is one persisted trajectory, decoded. It is an alias of
// trajstore.PersistedRecord so the storage layer can consume query
// results without importing this package.
type Record = trajstore.PersistedRecord

// recordMeta is the indexed metadata of one record: where it lives in
// its segment file and everything a query can prune on without
// decoding the payload. Open derives it in the scan that validates each
// record's payload. It is 36 bytes: one is resident per record.
type recordMeta struct {
	trajstore.Bounds
	dev     uint32 // device number: shardLog.names[dev] is its ID
	off     uint32 // body offset within the segment file, below maxSegmentSize
	bodyLen uint32
}

// recordAddr locates one record for the per-device index: the segment
// slot in shardLog.segs and the position within that segment's recs.
type recordAddr struct {
	seg, pos int32
}

// segmentFile is one on-disk segment and everything the log knows about
// it, complete from the moment openShardLog returns. size is taken when
// the segment is loaded or sealed; while a segment is the active one its
// live size is shardLog.off.
type segmentFile struct {
	path    string
	version byte             // the file's format version: how its records are read
	size    int64            // valid bytes, header included
	sum     trajstore.Bounds // union of recs' bounds (sumOf): what a window prunes the whole file on
	recs    []recordMeta     // every record, in file order
}

// refSnap locates one record for a read outside the lock.
type refSnap struct {
	seg          int
	off, bodyLen uint32
}

// Stats is a point-in-time snapshot of the log's contents.
type Stats struct {
	Segments        int         // segment files
	Records         int         // records indexed
	Devices         int         // distinct device IDs
	Bytes           int64       // total valid bytes on disk, headers included
	Truncated       int64       // torn/corrupt tail bytes dropped by recovery on Open (detected, not dropped, in read-only mode)
	Unsynced        int64       // bytes accepted but not yet covered by an fsync: with the engine's TrailBytes, what a SIGKILL now would lose
	Gen             uint64      // manifest generation currently published
	Rewritten       int64       // bytes the compactions published over this handle's lifetime wrote (BytesOut per pass): over what was appended, the write amplification
	Reclaimed       int64       // net disk bytes freed by the compactions published over this handle's lifetime (BytesIn − BytesOut per pass)
	CompactFailures uint64      // failed passes of Options.Compaction, periodic ones and CompactNow alike: the sharded log's count, not summed
	Cache           cache.Stats // the read cache's counters, all zero when none is configured: the shards' one cache, not summed
}

// shardLog is one shard of a ShardedLog: a complete segment log in its
// own directory. All methods are safe for concurrent use; appends are
// serialized, queries read committed records directly from disk, and
// Compact rewrites sealed segments concurrently with both. It takes no
// lock of its own — the root LOCK its ShardedLog holds excludes every
// other writer of the tree.
type shardLog struct {
	dir  string
	opts Options
	ro   bool
	fs   vfs.FS // never nil: Options.FS or vfs.OS

	// compactMu serializes compactions; it is never held together with
	// mu except for the brief publish step.
	compactMu sync.Mutex
	// tiers are the segment counts of earlier passes' output runs, oldest
	// first, over the head of segs — what follows them, the active segment
	// aside, was sealed since the last pass. They live in memory only: an
	// open takes all that is sealed for one tier. Guarded by compactMu.
	tiers []int

	// compactLive counts the records an in-flight pass holds in memory,
	// compactLiveHWM its high-water mark across passes: they observe the
	// compactor's bounded-memory invariant (tests assert on the HWM).
	compactLive    atomic.Int64
	compactLiveHWM atomic.Int64

	// cache is the read-side record cache (nil when not configured);
	// possibly shared with other shard logs. See cache.go.
	cache *recordCache

	mu sync.Mutex
	// rewritten and reclaimed sum, over the passes this handle published,
	// the bytes written (BytesOut) and the net disk freed (BytesIn − BytesOut).
	rewritten, reclaimed int64
	closed               bool
	gen                  uint64 // last manifest generation written (or read, in RO mode)
	nextSeq              uint64 // next segment file number to allocate
	// segs is the log's one in-memory view: the live segments in logical
	// order, the active one last, each carrying its own records. Stats,
	// the manifest and index are read off it.
	segs []segmentFile
	// names numbers the devices in segs (ids maps back; internLocked),
	// never renumbering, so a prefix taken under mu stays valid without it.
	// index lists each device's records in append order, empty while all
	// are withdrawn: extended by every append, popped and re-added around a
	// poisoned tail, redone from where the segment list is replaced (the
	// end of open: all of it; a compaction publish: its selection on).
	names []string
	ids   map[string]uint32
	index [][]recordAddr
	// truncated counts the torn or corrupt bytes recovery dropped on open
	// (Stats.Truncated) — the one figure segs cannot reproduce.
	truncated int64
	active    vfs.File // write handle of segs[len(segs)-1] (nil in RO mode)
	off       int64    // logical size of the active segment (incl. unwritten appends)
	// syncedOff is the active-segment offset covered by the last
	// successful fsync: everything below it is durable, everything at
	// or above it exists only in the page cache (and in unsynced).
	syncedOff int64
	// unsynced is the write-behind buffer: every record framed since the
	// last successful fsync of the active segment; its first written bytes
	// have been passed to the file. After a failed fsync the page-cache
	// state of those bytes is unknown — the kernel may have dropped them —
	// so this is the only copy salvage (healLocked) can rewrite into a
	// fresh segment. The append that takes it to maxUnsynced fsyncs then
	// and there, so it is bounded by that plus one record.
	unsynced []byte
	written  int
	// poisoned marks the active segment as unusable after a failed
	// write or fsync: no further byte may be appended to it, and the
	// records in atRisk are withheld from the index until healLocked
	// lands them in a fresh segment. poisonErr is the causing error.
	poisoned  bool
	poisonErr error
	// atRisk holds the record metadata of the unsynced region while
	// poisoned: removed from the index (so "indexed ⇒ servable" holds
	// even though their segment bytes may be gone) and re-indexed by a
	// successful heal.
	atRisk []recordMeta
}

// compactLiveAdd advances the live record count and its
// high-water mark.
func (l *shardLog) compactLiveAdd(n int) {
	live := l.compactLive.Add(int64(n))
	for {
		hwm := l.compactLiveHWM.Load()
		if live <= hwm || l.compactLiveHWM.CompareAndSwap(hwm, live) {
			return
		}
	}
}

// addRecordLocked appends one record to the last segment: its record
// list, its summary and the per-device index advance together. Callers
// hold mu.
func (l *shardLog) addRecordLocked(m recordMeta) {
	seg := len(l.segs) - 1
	s := &l.segs[seg]
	l.index[m.dev] = append(l.index[m.dev], recordAddr{seg: int32(seg), pos: int32(len(s.recs))})
	if len(s.recs) == 0 {
		s.sum = m.Bounds
	}
	s.sum.Union(m.Bounds)
	s.recs = append(s.recs, m)
}

// internLocked returns device's number, giving a new device the next one
// and an empty index list; a known device costs no allocation. Callers
// hold mu (or are inside openShardLog).
func (l *shardLog) internLocked(device []byte) uint32 {
	id, ok := l.ids[string(device)]
	if !ok {
		id = uint32(len(l.names))
		l.names = append(l.names, string(device))
		l.ids[l.names[id]] = id
		l.index = append(l.index, nil)
	}
	return id
}

// addrsLocked returns device's indexed records. Callers hold mu.
func (l *shardLog) addrsLocked(device string) []recordAddr {
	if id, ok := l.ids[device]; ok {
		return l.index[id]
	}
	return nil
}

// reindexLocked redoes the per-device index from segment slot lo on, where
// the segment list was replaced (0: all of it): every list keeps its entries
// below lo and gets the rest anew. Iterating segments in logical order
// preserves per-device append order, the Query contract; the cost is the
// device count and the records from lo on, not the log.
func (l *shardLog) reindexLocked(lo int) {
	for dev, addrs := range l.index {
		l.index[dev] = addrs[:sort.Search(len(addrs), func(k int) bool { return int(addrs[k].seg) >= lo })]
	}
	for si := lo; si < len(l.segs); si++ {
		for pi := range l.segs[si].recs {
			dev := l.segs[si].recs[pi].dev
			l.index[dev] = append(l.index[dev], recordAddr{seg: int32(si), pos: int32(pi)})
		}
	}
}

// Stats returns a snapshot of the log's bookkeeping, computed from the
// segment list: no counter is kept beside it but the truncation count.
func (l *shardLog) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Segments: len(l.segs), Truncated: l.truncated,
		Unsynced: int64(len(l.unsynced)), Gen: l.gen, Rewritten: l.rewritten, Reclaimed: l.reclaimed,
	}
	for _, addrs := range l.index {
		if len(addrs) > 0 {
			s.Devices++
		}
	}
	for i := range l.segs {
		sf := &l.segs[i]
		s.Records += len(sf.recs)
		if i == len(l.segs)-1 && !l.ro {
			s.Bytes += l.off // the active segment, buffered appends included
		} else {
			s.Bytes += sf.size
		}
	}
	return s
}

// Devices returns the indexed device IDs, sorted.
func (l *shardLog) Devices() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.index))
	for dev, addrs := range l.index {
		if len(addrs) > 0 {
			out = append(out, l.names[dev])
		}
	}
	sort.Strings(out)
	return out
}

// DeviceSpan returns the record count and overall time bounds indexed
// for a device; ok is false for an unknown device.
func (l *shardLog) DeviceSpan(device string) (records int, t0, t1 uint32, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	addrs := l.addrsLocked(device)
	if len(addrs) == 0 {
		return 0, 0, 0, false
	}
	span := l.metaAt(addrs[0]).Bounds
	for _, a := range addrs[1:] {
		span.Union(l.metaAt(a).Bounds)
	}
	return len(addrs), span.T0, span.T1, true
}

// metaAt resolves a record address. Callers hold mu.
func (l *shardLog) metaAt(a recordAddr) *recordMeta { return &l.segs[a.seg].recs[a.pos] }
