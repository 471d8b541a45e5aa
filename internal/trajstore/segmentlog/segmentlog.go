// Package segmentlog is the durable persistence layer of the trajectory
// database: an append-only, CRC-checksummed log of finalized compressed
// trajectories in the trajstore delta-varint wire format.
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
// validation and dropped. Sealed segments additionally carry a block
// index file (see blockindex.go) so reopening a large log does not
// re-read every byte, and window queries (see window.go) prune records
// spatially without decoding them.
//
// On-disk layout. A log root (see sharded.go) holds SHARDS, the writer
// LOCK and one shard directory per shard. A shard directory holds a
// MANIFEST (see manifest.go) naming the live segment files in logical
// order, numbered segment files "seg-00000001.log", "seg-00000002.log",
// ..., and their sealed block indexes "seg-00000001.idx". There is one
// on-disk format; a file or manifest carrying any other version is
// rejected with ErrCorrupt. Segment numbers are allocated from a
// monotonic sequence and never reused while referenced; after compaction
// (see compact.go) a low-numbered file may be superseded by a
// higher-numbered one holding older data, which is why the MANIFEST —
// not directory order — defines the log. Each segment file starts with
// an 8-byte header — magic "BQSLOG" plus a version byte and a zero pad —
// followed by length-prefixed records:
//
//	u32  bodyLen   little-endian length of body
//	u32  crc32c    Castagnoli CRC of body
//	body:
//	  u16 deviceLen, device ID bytes
//	  u32 t0, u32 t1       time bounds of the trajectory (seconds)
//	  4 × i32              spatial bounding box in 1e-7°
//	                       (minLat, minLon, maxLat, maxLon)
//	  payload              trajstore.DeltaEncode of the key points
//
// A record is valid iff its length prefix fits in the file, bodyLen is
// plausible (≤ MaxRecordBytes) and the CRC matches; the first invalid
// record ends the scan and the file is truncated there.
package segmentlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

const (
	// headerSize is the per-file header: 6 magic bytes, version, pad.
	headerSize = 8
	// recordHeaderSize prefixes every record: u32 bodyLen + u32 crc32c.
	recordHeaderSize = 8
	// version is the format version byte of every segment file: record
	// bodies carry a spatial bounding box between the time bounds and
	// the payload.
	version = 2
	// MaxRecordBytes caps a single record body. A length prefix above it
	// is treated as corruption, bounding allocation on malicious or
	// damaged input. 16 MiB ≈ 1.5 M key points per trajectory.
	MaxRecordBytes = 16 << 20
	// DefaultMaxSegmentBytes is the rotation threshold when Options
	// leaves it zero.
	DefaultMaxSegmentBytes = 64 << 20
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
// recovered from silently and do not raise it. A corrupt block-index
// file never raises it either — the index is an accelerator and falls
// back to scanning the segment.
var ErrCorrupt = errors.New("segmentlog: corrupt segment file")

// Options parameterizes OpenSharded.
type Options struct {
	// MaxSegmentBytes rotates the active segment file once its size
	// reaches this threshold. Default DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
	// ReadOnly opens the log purely for inspection: no directory lock is
	// taken and nothing on disk is modified — a torn tail is skipped
	// (reported in Stats.Truncated) instead of truncated in place, and
	// Append/Sync/Compact return ErrReadOnly. This is the safe mode for
	// looking at a directory a live engine may own; bqsrecover uses it
	// by default.
	ReadOnly bool
	// Compaction, when non-nil, is the policy CompactNow applies — the
	// engine's periodic compaction hook reaches the log through it.
	// Explicit Compact calls pass their own policy and ignore this
	// field.
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
	// re-verification. Entries are keyed by manifest generation, so
	// compaction (and every other layout change) invalidates them
	// without a flush protocol. Zero disables caching — the default,
	// and the pre-cache behavior exactly.
	CacheBytes int64
	// cache, when non-nil, overrides CacheBytes with an existing cache
	// instance. OpenSharded sets it so all shard logs share one budget.
	cache *recordCache
}

// Record is one persisted trajectory, decoded. It is an alias of
// trajstore.PersistedRecord so the storage layer can consume query
// results without importing this package.
type Record = trajstore.PersistedRecord

// recordMeta is the indexed metadata of one record: where it lives in
// its segment file and everything a query can prune on without
// decoding the payload. It is read on Open from the segment's block
// index (or by scanning the file) and is the unit the block index
// serializes.
type recordMeta struct {
	device  string
	off     int64 // body offset within the segment file
	bodyLen int
	trajstore.Bounds
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
	path string
	size int64        // valid bytes, header included
	idx  bool         // a sealed block-index file is live for this segment
	sum  segSummary   // union of recs' bounds: what a window prunes the whole file on
	recs []recordMeta // every record, in file order
}

// refSnap locates one record for a read outside the lock.
type refSnap struct {
	seg     int
	off     int64
	bodyLen int
}

// Stats is a point-in-time snapshot of the log's contents.
type Stats struct {
	Segments    int    // segment files
	IndexedSegs int    // sealed segments with a live block index
	Records     int    // records indexed
	Devices     int    // distinct device IDs
	Bytes       int64  // total valid bytes on disk, headers included
	Truncated   int64  // torn/corrupt tail bytes dropped by recovery on Open (detected, not dropped, in read-only mode)
	Unsynced    int64  // bytes accepted but not yet covered by an fsync: with the engine's TrailBytes, what a SIGKILL now would lose
	Gen         uint64 // manifest generation currently published
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
	// lastCompact memoizes the previous pass (guarded by compactMu) so
	// a periodic tick on an unchanged log returns without re-reading
	// every sealed segment. gen is the generation the
	// pass left behind; nextAgeT1 is the smallest record timestamp not
	// yet old enough to age (MaxUint32 when none) — a later pass with
	// the same policy can only differ once the cutoff reaches it.
	lastCompact struct {
		valid     bool
		gen       uint64
		policy    CompactionPolicy // Now is ignored in comparisons
		nextAgeT1 uint32
	}

	// compactLive counts sealed records currently held in
	// memory by an in-flight streaming compaction; compactLiveHWM is
	// the high-water mark across passes. They observe the compactor's
	// bounded-memory invariant (tests assert on the HWM).
	compactLive    atomic.Int64
	compactLiveHWM atomic.Int64

	// cache is the read-side record cache (nil when not configured);
	// possibly shared with other shard logs. See cache.go.
	cache *recordCache
	// reclaimed accumulates net disk bytes freed by published
	// compactions (BytesIn − BytesOut per pass) over this handle's
	// lifetime.
	reclaimed atomic.Int64

	mu      sync.Mutex
	closed  bool
	gen     uint64 // last manifest generation written (or read, in RO mode)
	nextSeq uint64 // next segment file number to allocate
	// segs is the log's one in-memory view: the live segments in logical
	// order, the active one last, each carrying its own records. Stats,
	// the manifest and index are read off it.
	segs []segmentFile
	// index lists each device's records in append order. It is derived
	// from segs: extended by every append, popped and re-added around a
	// poisoned tail, rebuilt where the segment list is replaced (the end
	// of open, a compaction publish).
	index map[string][]recordAddr
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
	l.index[m.device] = append(l.index[m.device], recordAddr{seg: int32(seg), pos: int32(len(s.recs))})
	s.recs = append(s.recs, m)
	s.sum.add(m.Bounds)
}

// rebuildIndexLocked reconstructs the per-device index where the segment
// list was replaced. Iterating segments in logical order preserves
// per-device append order, the Query contract.
func (l *shardLog) rebuildIndexLocked() {
	idx := make(map[string][]recordAddr, len(l.index))
	for si := range l.segs {
		for pi := range l.segs[si].recs {
			dev := l.segs[si].recs[pi].device
			idx[dev] = append(idx[dev], recordAddr{seg: int32(si), pos: int32(pi)})
		}
	}
	l.index = idx
}

// openShardLog opens (creating if necessary) the shard log in dir: it
// loads the MANIFEST (falling back to a lexical scan of the segment
// files when a crash during the directory's first open left none, and
// publishing one), loads every live segment's records (loadSegment),
// truncating any torn tail, removes files a crashed compaction left
// unreferenced, and readies the last segment for appending: the view is
// complete, and a damaged segment refused, before it returns. With
// Options.ReadOnly it does none of the mutating parts — no cleanup, no
// truncation, no appending.
func openShardLog(dir string, opts Options) (*shardLog, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if opts.MaxSegmentBytes < headerSize+recordHeaderSize {
		return nil, fmt.Errorf("segmentlog: MaxSegmentBytes %d too small", opts.MaxSegmentBytes)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	l := &shardLog{dir: dir, opts: opts, ro: opts.ReadOnly, fs: fsys, index: make(map[string][]recordAddr)}
	if opts.cache != nil {
		l.cache = opts.cache
	} else {
		l.cache = newRecordCache(opts.CacheBytes)
	}
	if l.ro {
		fi, err := l.fs.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("segmentlog: %w", err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("segmentlog: %s is not a directory", dir)
		}
	} else if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segmentlog: %w", err)
	}

	man, found, err := readManifest(l.fs, dir)
	if err != nil {
		return nil, err
	}
	var entries []manifestSeg
	if found {
		l.gen = man.Gen
		entries = man.Segs
	} else {
		// No manifest was ever published here, so no compaction ever
		// ran either: files were only appended in sequence and lexical
		// order is logical order.
		globbed, err := l.fs.Glob(filepath.Join(dir, "seg-*.log"))
		if err != nil {
			return nil, fmt.Errorf("segmentlog: %w", err)
		}
		sort.Strings(globbed)
		for _, p := range globbed {
			if _, ok := parseSegName(filepath.Base(p)); ok {
				entries = append(entries, manifestSeg{Name: filepath.Base(p)})
			}
		}
	}
	for i, ent := range entries {
		seg, err := l.loadSegment(filepath.Join(dir, ent.Name), ent, i == len(entries)-1)
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, seg)
		if n, ok := parseSegName(ent.Name); ok && n >= l.nextSeq {
			l.nextSeq = n + 1
		}
	}
	l.rebuildIndexLocked()
	if l.nextSeq == 0 {
		l.nextSeq = 1
	}
	// Sweep crashed-compaction leftovers only AFTER the referenced set
	// scanned clean: if a referenced segment turns out unreadable, an
	// unpublished compactor output may be the only intact copy of its
	// data — deleting it first would destroy the salvage option. The
	// sweep's live set is the OLD manifest plus the block indexes
	// loadSegment just (re)built — those are published by the manifest
	// written below, so deleting them here would leave that manifest
	// referencing missing files.
	if found && !l.ro {
		keep := make(map[string]bool)
		for i := range l.segs {
			if l.segs[i].idx {
				if n, ok := parseSegName(filepath.Base(l.segs[i].path)); ok {
					keep[idxName(n)] = true
				}
			}
		}
		if err := cleanUnreferenced(l.fs, dir, man, keep); err != nil {
			return nil, err
		}
	}

	if l.ro {
		return l, nil
	}
	if len(l.segs) == 0 {
		f, seg, err := l.newSegmentFileLocked()
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, seg)
		l.active = f
		l.off = headerSize
	} else {
		// Reopen the last segment for appending at its recovered size.
		last := &l.segs[len(l.segs)-1]
		f, err := l.fs.OpenFile(last.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("segmentlog: %w", err)
		}
		if _, err := f.Seek(last.size, io.SeekStart); err != nil {
			_ = f.Close() // open failed; the seek error is the story
			return nil, fmt.Errorf("segmentlog: %w", err)
		}
		l.active = f
		l.off = last.size
	}
	// Whatever recovery read back from disk is the durable baseline.
	l.syncedOff = l.off
	// Publish the live set: after a successful writable open the
	// MANIFEST always exists and matches memory (sealing any recovery
	// edits under a fresh generation).
	if err := l.writeManifestLocked(); err != nil {
		_ = l.active.Close() // open failed; the publish error is the story
		return nil, err
	}
	return l, nil
}

// loadSegment reads one live segment's records — the only loader. A
// sealed segment the manifest marks idx comes through its block index
// when that validates: size, CRC and, where the entry carries one, the
// manifest's summary — both were sealed from the same metadata, so an
// index that diverges from the CRC-protected manifest (a stale file from
// an earlier life of this sequence number, a crafted CRC collision) is
// rejected. Anything else is scanned (readSegment), and on a writable
// handle a scanned sealed segment gets its block index (re)built, so the
// next open is cheap again.
func (l *shardLog) loadSegment(path string, ent manifestSeg, final bool) (segmentFile, error) {
	if !final && ent.Idx {
		if size, metas, err := loadBlockIndex(l.fs, path); err == nil {
			if sum := sumOf(metas); ent.Sum == nil || sum == *ent.Sum {
				return segmentFile{path: path, size: size, idx: true, sum: sum, recs: metas}, nil
			}
		}
	}
	metas, valid, err := l.readSegment(path, final)
	if err != nil {
		return segmentFile{}, err
	}
	idx := !l.ro && !final && writeBlockIndex(l.fs, path, valid, metas) == nil
	return segmentFile{path: path, size: valid, idx: idx, sum: sumOf(metas), recs: metas}, nil
}

// acquireLock takes the directory's advisory write lock: an flock(2) on
// the LOCK file, which the kernel releases automatically if the process
// dies, so a crashed owner never wedges the directory. The holder's PID
// is written into the file purely as a diagnostic.
func acquireLock(fsys vfs.FS, dir string) (vfs.File, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		// Name the directory, not just the LOCK path buried in a
		// *PathError: a bqsd tenant-open failure must say which tenant
		// directory could not be locked.
		return nil, fmt.Errorf("segmentlog: locking %s: %w", dir, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		if err != syscall.EWOULDBLOCK && err != syscall.EAGAIN {
			// Not contention (e.g. a filesystem without flock support):
			// report the real error, not a phantom lock holder.
			_ = f.Close()
			return nil, fmt.Errorf("segmentlog: flock %s: %w", dir, err)
		}
		pid := make([]byte, 32)
		n, _ := f.ReadAt(pid, 0)
		_ = f.Close()
		holder := strings.TrimSpace(string(pid[:n]))
		if holder == "" {
			return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		return nil, fmt.Errorf("%w: %s (held by pid %s)", ErrLocked, dir, holder)
	}
	if err := f.Truncate(0); err == nil {
		f.WriteAt([]byte(strconv.Itoa(os.Getpid())+"\n"), 0)
	}
	return f, nil
}

// cleanUnreferenced removes files a crashed compaction or rotation left
// behind: a stale manifest temp file, and canonical segment or
// block-index files the manifest does not reference (either a new
// generation that was never published, or a superseded generation whose
// deletion was interrupted). keep names extra files the caller intends
// to publish in the next manifest (freshly rebuilt block indexes). Only
// called on writable opens with a validated manifest in hand.
func cleanUnreferenced(fsys vfs.FS, dir string, man manifest, keep map[string]bool) error {
	live := make(map[string]bool, 2*len(man.Segs)+len(keep))
	for name := range keep {
		live[name] = true
	}
	for _, s := range man.Segs {
		live[s.Name] = true
		if s.Idx {
			if n, ok := parseSegName(s.Name); ok {
				live[idxName(n)] = true
			}
		}
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("segmentlog: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		stale := name == manifestTmpName
		if _, ok := parseSegName(name); ok && !live[name] {
			stale = true
		}
		if _, ok := parseIdxName(name); ok && !live[name] {
			stale = true
		}
		if stale {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("segmentlog: removing unreferenced %s: %w", name, err)
			}
		}
	}
	return nil
}

// manifestSegs builds the manifest entries for a logical segment list.
// Sealed segments publish their block-index reference and bbox/time
// summary; the final entry is the active segment, whose summary is
// still growing, so it carries none.
func manifestSegs(segs []segmentFile) []manifestSeg {
	out := make([]manifestSeg, len(segs))
	for i, s := range segs {
		ms := manifestSeg{Name: filepath.Base(s.path), Idx: s.idx}
		if i < len(segs)-1 && s.sum.records > 0 {
			sum := s.sum
			ms.Sum = &sum
		}
		out[i] = ms
	}
	return out
}

// writeManifestLocked atomically publishes the current live segment list
// under the next generation number. Callers hold mu (or are inside
// openShardLog).
func (l *shardLog) writeManifestLocked() error {
	m := manifest{Gen: l.gen + 1, Segs: manifestSegs(l.segs)}
	if err := writeManifest(l.fs, l.dir, m); err != nil {
		return err
	}
	l.gen = m.Gen
	return nil
}

// readSegment reads one segment file and returns the metadata of its
// valid records and its valid size, handling an invalid tail. Dropping
// bytes after the first invalid record is only sound where a crash
// could actually tear a write: the final (active-to-be) segment, or a
// genuinely record-free tail left by an unsynced rotation. A
// *non-final* segment whose bad record is followed by more valid
// records is mid-file corruption of data that was once durable — now
// that compaction makes sealed segments long-lived archives, that must
// fail (ErrCorrupt) rather than silently destroy everything after the
// rotten byte. Read-only handles stay lenient throughout: they modify
// nothing and exist to salvage whatever is readable.
func (l *shardLog) readSegment(path string, final bool) (metas []recordMeta, valid int64, err error) {
	data, err := l.fs.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("segmentlog: %w", err)
	}
	if len(data) < headerSize {
		// A crash can leave a freshly rotated file with a partial
		// header; rewrite it as empty rather than failing the open.
		if l.ro {
			l.truncated += int64(len(data))
			return nil, int64(len(data)), nil
		}
		if !final {
			return nil, 0, fmt.Errorf("%w: %s: sealed segment shorter than its header", ErrCorrupt, filepath.Base(path))
		}
		return nil, headerSize, l.rewriteEmpty(path)
	}
	if [6]byte(data[:6]) != magic {
		return nil, 0, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	if data[6] != version {
		return nil, 0, fmt.Errorf("%w: %s: unsupported version %d", ErrCorrupt, filepath.Base(path), data[6])
	}
	valid = headerSize
	for pos := headerSize; ; {
		body, bodyOff, next, ok := nextRecord(data, pos)
		if !ok {
			break
		}
		dev, b, payload, err := splitBody(body)
		if err != nil || !trajstore.DeltaValidate(payload) {
			break
		}
		metas = append(metas, recordMeta{device: dev, off: int64(bodyOff), bodyLen: len(body), Bounds: b})
		valid = int64(next)
		pos = next
	}
	if torn := int64(len(data)) - valid; torn > 0 {
		if !l.ro && !final {
			// Distinguish an unsynced-rotation torn tail (nothing valid
			// after the cut — safe to drop) from mid-file corruption
			// (valid records still follow the bad one — refusing is the
			// only non-destructive option).
			if off := resyncScan(data, int(valid)); off >= 0 {
				return nil, 0, fmt.Errorf("%w: %s: invalid record at offset %d but valid data at %d — refusing to truncate a sealed segment mid-file",
					ErrCorrupt, filepath.Base(path), valid, off)
			}
		}
		if !l.ro {
			if err := l.fs.Truncate(path, valid); err != nil {
				return nil, 0, fmt.Errorf("segmentlog: truncating torn tail: %w", err)
			}
		}
		l.truncated += torn
	}
	return metas, valid, nil
}

// resyncScan looks for a valid, decodable record anywhere after from;
// it returns the offset of the first one, or -1. Used to tell mid-file
// corruption apart from a torn tail (a false positive needs random
// bytes to pass both plausibility checks and CRC-32C, ~2^-32).
func resyncScan(data []byte, from int) int {
	for pos := from + 1; pos+recordHeaderSize <= len(data); pos++ {
		if body, _, _, ok := nextRecord(data, pos); ok {
			if _, _, payload, err := splitBody(body); err == nil && trajstore.DeltaValidate(payload) {
				return pos
			}
		}
	}
	return -1
}

// nextRecord validates the record starting at pos and returns its body,
// the body's file offset and the offset just past the record.
func nextRecord(data []byte, pos int) (body []byte, bodyOff, next int, ok bool) {
	if pos+recordHeaderSize > len(data) {
		return nil, 0, 0, false
	}
	bodyLen := int(binary.LittleEndian.Uint32(data[pos:]))
	crc := binary.LittleEndian.Uint32(data[pos+4:])
	if bodyLen < minBodySize || bodyLen > MaxRecordBytes {
		return nil, 0, 0, false
	}
	bodyOff = pos + recordHeaderSize
	next = bodyOff + bodyLen
	if next > len(data) || next < pos { // overflow-safe upper check
		return nil, 0, 0, false
	}
	body = data[bodyOff:next]
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, 0, 0, false
	}
	return body, bodyOff, next, true
}

// minBodySize is the smallest legal body: device length prefix (may be
// zero bytes of ID), both time bounds, the 16-byte bounding box, and a
// ≥1-byte payload (the delta-varint count).
const minBodySize = 2 + 4 + 4 + 16 + 1

// splitBody splits a validated record body into its fields.
func splitBody(body []byte) (device string, b trajstore.Bounds, payload []byte, err error) {
	if len(body) < minBodySize {
		return "", b, nil, trajstore.ErrShortBuffer
	}
	devLen := int(binary.LittleEndian.Uint16(body))
	rest := body[2:]
	if len(rest) < devLen+boundsSize+1 {
		return "", b, nil, trajstore.ErrShortBuffer
	}
	if b, err = readBounds(rest[devLen:], rest[devLen+8:]); err != nil {
		return "", b, nil, err
	}
	return string(rest[:devLen]), b, rest[devLen+boundsSize:], nil
}

// boundsSize is a record's bounds as its header and its block-index entry
// carry them: u32 t0, t1 (at times), then — after a flag byte, in the
// index — the box as 4 × i32 minLat, minLon, maxLat, maxLon (at box).
const boundsSize = 8 + 16

// readBounds decodes that layout and rejects inverted bounds.
func readBounds(times, box []byte) (trajstore.Bounds, error) {
	u := binary.LittleEndian.Uint32
	b := trajstore.Bounds{T0: u(times), T1: u(times[4:]),
		MinLat: int32(u(box)), MinLon: int32(u(box[4:])), MaxLat: int32(u(box[8:])), MaxLon: int32(u(box[12:]))}
	if !b.Valid() {
		return b, errors.New("segmentlog: inverted record bounds")
	}
	return b, nil
}

// frameRecord appends the full wire form of one record — length prefix,
// CRC, header, the trail's block — to dst; on an error dst comes back as
// it was. Shared by the append path and the compactor so the two can
// never drift apart on format. b is the caller's: the trail's own bounds,
// except that the compactor keeps a record's indexed time span when
// ageing thins its keys.
func frameRecord(dst []byte, device string, b trajstore.Bounds, tr *trajstore.Trail) ([]byte, error) {
	if len(device) > int(^uint16(0)) {
		return dst, fmt.Errorf("segmentlog: device ID longer than %d bytes", ^uint16(0))
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, 0) // bodyLen and CRC, backpatched below
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(device)))
	dst = append(dst, device...)
	for _, v := range [...]uint32{b.T0, b.T1, uint32(b.MinLat), uint32(b.MinLon), uint32(b.MaxLat), uint32(b.MaxLon)} {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	dst = tr.AppendBlock(dst)
	body := dst[start+recordHeaderSize:]
	if len(body) > MaxRecordBytes {
		return dst[:start], fmt.Errorf("segmentlog: record body %d bytes exceeds MaxRecordBytes", len(body))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst, nil
}

// rewriteEmpty resets path to a bare header (crash during file creation).
func (l *shardLog) rewriteEmpty(path string) error {
	f, err := l.fs.OpenFile(path, os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segmentlog: %w", err)
	}
	defer f.Close()
	return writeHeader(f)
}

func writeHeader(f vfs.File) error {
	var hdr [headerSize]byte
	copy(hdr[:], magic[:])
	hdr[6] = version
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("segmentlog: %w", err)
	}
	return nil
}

// createSegmentFile creates segment file seq — O_EXCL: a number is never
// reused — and writes its header. The file is neither durable (no
// directory fsync) nor published, and nextSeq has not moved: those are
// each caller's protocol.
func (l *shardLog) createSegmentFile(seq uint64) (vfs.File, segmentFile, error) {
	path := filepath.Join(l.dir, segName(seq))
	f, err := l.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, segmentFile{}, fmt.Errorf("segmentlog: %w", err)
	}
	if err := writeHeader(f); err != nil {
		_ = f.Close() // creation failed; the file is removed below
		l.fs.Remove(path)
		return nil, segmentFile{}, err
	}
	return f, segmentFile{path: path, size: headerSize}, nil
}

// newSegmentFileLocked creates the next numbered segment file and fsyncs
// the directory entry. The file is NOT yet published: callers append it
// to l.segs and rewrite the manifest — until then recovery treats it as
// unreferenced garbage, so a crash in between loses nothing. Callers
// hold mu (or are inside openShardLog). The directory fsync matters
// because a file whose directory entry is not durable can vanish
// wholesale in a crash, taking "synced" records with it.
func (l *shardLog) newSegmentFileLocked() (vfs.File, segmentFile, error) {
	f, seg, err := l.createSegmentFile(l.nextSeq)
	if err != nil {
		return nil, segmentFile{}, err
	}
	if err := syncDir(l.fs, l.dir); err != nil {
		_ = f.Close() // creation failed; the file is removed below
		l.fs.Remove(seg.path)
		return nil, segmentFile{}, err
	}
	l.nextSeq++
	return f, seg, nil
}

// syncDir fsyncs a directory so entries for newly created files are
// durable. Some platforms/filesystems reject fsync on directories;
// those errors are ignored (matching common WAL implementations).
func syncDir(fsys vfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("segmentlog: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return fmt.Errorf("segmentlog: fsync dir: %w", err)
	}
	return nil
}

// writeFileSync creates (or truncates) path, writes data, fsyncs and
// closes it — the one durable small-file write; a partial file is removed.
// what names the file in errors.
func writeFileSync(fsys vfs.FS, what, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segmentlog: %s: %w", what, err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil { // else the write/fsync error is the story
		err = cerr
	}
	if err != nil {
		fsys.Remove(path)
		return fmt.Errorf("segmentlog: %s: %w", what, err)
	}
	return nil
}

// publishFile atomically replaces dir/name with data: temp file
// (name.tmp), fsync, rename, directory fsync — the tree's one rename. On
// any error the previous file is untouched, and a reader sees either the
// old content or the new, never a mixture.
func publishFile(fsys vfs.FS, what, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+tmpSuffix)
	if err := writeFileSync(fsys, what, tmp, data); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, name)); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("segmentlog: %s: %w", what, err)
	}
	return syncDir(fsys, dir)
}

// tmpSuffix marks publishFile's staging file.
const tmpSuffix = ".tmp"

// sealText appends the trailer that seals the MANIFEST and SHARDS text
// files: a "crc xxxxxxxx" line carrying the CRC-32C of every preceding
// byte.
func sealText(text []byte) []byte {
	return fmt.Appendf(text, "crc %08x\n", crc32.Checksum(text, castagnoli))
}

// unsealText checks that trailer and returns the text it covers, final
// newline included. what names the file in errors.
func unsealText(what string, data []byte) ([]byte, error) {
	crcAt := bytes.LastIndex(data, []byte("\ncrc "))
	if crcAt < 0 {
		return nil, fmt.Errorf("%w: %s: missing crc line", ErrCorrupt, what)
	}
	covered := data[:crcAt+1]
	crcLine := string(data[crcAt+1:])
	if !strings.HasSuffix(crcLine, "\n") {
		return nil, fmt.Errorf("%w: %s: truncated crc line", ErrCorrupt, what)
	}
	crcHex := strings.TrimSuffix(strings.TrimPrefix(crcLine, "crc "), "\n")
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil || len(crcHex) != 8 {
		return nil, fmt.Errorf("%w: %s: bad crc field", ErrCorrupt, what)
	}
	if got := crc32.Checksum(covered, castagnoli); got != uint32(want) {
		return nil, fmt.Errorf("%w: %s: crc mismatch (%08x != %08x)", ErrCorrupt, what, got, want)
	}
	return covered, nil
}

// AppendTrail persists one finalized trajectory for device, already
// encoded: the log only frames it. The record is buffered in the
// process; it reaches the OS on the next flush and is durable after the
// next Sync, or once maxUnsynced bytes wait. Empty trajectories are
// ignored, and tr is not retained.
//
// An error means the record was NOT accepted — it is not in the log and
// never will be — so callers may safely retry or re-route it without
// creating duplicates. Conversely nil means accepted: the record is in
// the log (possibly only in the in-process salvage buffer of a poisoned
// segment) and will be durable after the next successful Sync.
//
// When the append fills the active segment, rotation happens inline, and
// an fsync when it fills the write-behind buffer. A failure of either
// does not fail the append: in every failure mode the record is retained
// — still pending in the old segment (which stays active and writable,
// rotation retried by the next append) or salvaged by the poison path —
// and any durability consequence resurfaces from the next Append or Sync.
func (l *shardLog) AppendTrail(device string, tr *trajstore.Trail) error {
	if tr.Len() == 0 {
		return nil
	}
	b := tr.Bounds()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.ro {
		return ErrReadOnly
	}
	if l.poisoned {
		if err := l.healLocked(); err != nil {
			return fmt.Errorf("segmentlog: active segment poisoned (%v); salvage failed: %w", l.poisonErr, err)
		}
	}

	start := len(l.unsynced)
	buf, err := frameRecord(l.unsynced, device, b, tr)
	l.unsynced = buf
	if err != nil {
		return err
	}
	n := len(buf) - start

	l.addRecordLocked(recordMeta{
		device: device, off: l.off + recordHeaderSize, bodyLen: n - recordHeaderSize, Bounds: b,
	})
	l.off += int64(n)

	// Accepted: a failure below must not un-accept the record (see above).
	switch {
	case l.off >= l.opts.MaxSegmentBytes:
		_ = l.rotateLocked()
	case len(l.unsynced) >= maxUnsynced:
		_, _ = l.fsyncLocked()
	}
	return nil
}

// maxUnsynced bounds what a shard log holds in memory — and a SIGKILL
// loses of what it accepted — between fsyncs, however rare the caller's
// Sync barriers and however large the segments.
const maxUnsynced = 256 << 10

// fsyncLocked writes the buffer's tail through and fsyncs the active
// segment. A failed fsync is never retried against the same file — the
// kernel may have dropped the dirty pages, so a later "successful" fsync
// would silently lose them (the fsyncgate bug). Instead the segment is
// poisoned and the un-synced records are salvaged into a fresh file;
// healed reports that, and then too the data IS durable and err is nil.
func (l *shardLog) fsyncLocked() (healed bool, err error) {
	if err = l.flushLocked(); err == nil { // a failed flush poisons by itself
		if err = l.active.Sync(); err == nil {
			l.durableLocked()
			return false, nil
		}
		err = fmt.Errorf("segmentlog: %w", err)
		l.poisonLocked(err)
	}
	if l.healLocked() == nil {
		return true, nil
	}
	return false, err
}

// durableLocked records that an fsync covered the whole active segment:
// the buffer — the salvage copy, which must not outlive the segment its
// offsets index into — starts over, from nothing if a record outgrew it.
func (l *shardLog) durableLocked() {
	l.syncedOff = l.off
	l.unsynced, l.written = l.unsynced[:0], 0
	if cap(l.unsynced) > 2*maxUnsynced {
		l.unsynced = nil
	}
}

// flushLocked writes unsynced's unwritten tail through to the active file.
// A write failure — including a short write, which advances the file offset
// by an unknown amount and corrupts the tail — poisons the active segment:
// its on-disk state past the durable watermark is no longer trusted,
// and salvage (healLocked) must move the at-risk bytes to a fresh file.
func (l *shardLog) flushLocked() error {
	if l.written == len(l.unsynced) {
		return nil
	}
	if _, err := l.active.Write(l.unsynced[l.written:]); err != nil {
		err = fmt.Errorf("segmentlog: %w", err)
		l.poisonLocked(err)
		return err
	}
	l.written = len(l.unsynced)
	return nil
}

// poisonLocked marks the active segment unusable after a failed write
// or fsync. Everything at or above the durable watermark (syncedOff) is
// of unknown on-disk state — the kernel may have dropped or torn those
// pages — so those records are withdrawn from the index (preserving
// "indexed ⇒ servable"; their bytes live on in l.unsynced, the salvage
// copy) and the segment is logically sealed at the watermark. No
// further byte is appended to the file; healLocked rewrites the
// at-risk region into a fresh segment.
func (l *shardLog) poisonLocked(cause error) {
	if l.poisoned {
		return
	}
	l.poisoned = true
	l.poisonErr = cause
	cur := &l.segs[len(l.segs)-1]
	// Sync and flush always cover whole records, so the watermark is a
	// record boundary: a meta either starts below it (durable) or at/
	// above it (at risk) — never straddles.
	keep := len(cur.recs)
	for keep > 0 && cur.recs[keep-1].off-recordHeaderSize >= l.syncedOff {
		keep--
	}
	l.atRisk = append(l.atRisk[:0], cur.recs[keep:]...)
	cur.recs = cur.recs[:keep]
	cur.sum = sumOf(cur.recs)
	// Withdraw the at-risk records from the per-device index. They are
	// the newest entries of their devices (appends only extend the
	// active tail), so popping each device's list tail — newest first —
	// removes exactly them.
	for i := len(l.atRisk) - 1; i >= 0; i-- {
		dev := l.atRisk[i].device
		lst := l.index[dev]
		l.index[dev] = lst[:len(lst)-1]
		if len(lst) == 1 {
			delete(l.index, dev)
		}
	}
	l.off = l.syncedOff
	l.written = len(l.unsynced) // the old file gets no more writes
}

// healLocked salvages a poisoned log: it seals the old active segment
// at the durable watermark, rewrites the at-risk bytes into a fresh
// fsync'd segment, publishes the new segment list, and re-indexes the
// at-risk records there. On any failure the log stays poisoned — the
// salvage copy is untouched, so the next Append/Sync retries. After a
// successful heal every previously appended record is durable, so a
// Sync that triggered it may report success.
func (l *shardLog) healLocked() error {
	f, seg, err := l.newSegmentFileLocked()
	if err != nil {
		return err
	}
	if len(l.unsynced) > 0 {
		if _, err := f.Write(l.unsynced); err != nil {
			_ = f.Close() // salvage failed; the write error is the story
			l.fs.Remove(seg.path)
			return fmt.Errorf("segmentlog: salvage: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // salvage failed; the fsync error is the story
		l.fs.Remove(seg.path)
		return fmt.Errorf("segmentlog: salvage: %w", err)
	}
	seg.size = headerSize + int64(len(l.unsynced))
	watermark := l.syncedOff // where the at-risk offsets count from
	var old vfs.File
	var dropPath string
	if watermark == headerSize {
		// No fsync ever succeeded on the old active file, so nothing in
		// it is durable — even its 8-byte header may be lost. Sealing it
		// would publish a segment whose on-disk bytes cannot be trusted;
		// instead the salvage file takes its manifest slot and the old
		// file becomes unreferenced debris (removed below, or swept by
		// the next Open).
		cur := len(l.segs) - 1
		prev := l.segs[cur]
		l.segs[cur] = seg
		if err := l.writeManifestLocked(); err != nil {
			// Without the publish the heal has not happened: a crash now
			// must land on the old generation. The salvage file is left
			// on disk (the manifest rename may have landed before the
			// failure; see sealActiveLocked) and swept later.
			l.segs[cur] = prev
			_ = f.Close() // heal aborted; the publish error is the story
			return err
		}
		old, dropPath = l.active, prev.path
		l.active, l.off = f, seg.size
	} else {
		// A successful fsync covered everything below the watermark —
		// header included — so the old file can be sealed there. Its
		// bytes beyond the watermark are of unknown content but may
		// well be intact: left in place, a clean reopen would scan them
		// AND the salvaged copies, serving duplicates. The truncate
		// must therefore succeed before the new segment is published.
		if err := l.fs.Truncate(l.segs[len(l.segs)-1].path, watermark); err != nil {
			_ = f.Close() // heal aborted; the truncate error is the story
			l.fs.Remove(seg.path)
			return fmt.Errorf("segmentlog: salvage: truncating poisoned segment: %w", err)
		}
		if old, err = l.sealActiveLocked(f, seg); err != nil {
			return err
		}
	}
	for _, m := range l.atRisk {
		m.off += headerSize - watermark
		l.addRecordLocked(m)
	}
	l.atRisk = nil
	l.durableLocked()
	l.poisoned = false
	l.poisonErr = nil
	_ = old.Close() // best-effort: the handle points at a superseded file
	if dropPath != "" {
		l.fs.Remove(dropPath) // best-effort: unreferenced since the publish
	}
	return nil
}

// sealActiveLocked seals the active segment where it stands (l.off, all
// of it fsync'd) and makes seg — f, created and durable — the active one:
// index the old, append the new, publish. The block index is written
// before the manifest references it, and its failure only costs the
// acceleration (the segment scans fine). The caller closes the old
// handle it gets back, after the swap, so the log never points at a
// closed file. A failed publish leaves the old segment active and
// writable: the new file stays on disk — the write may have reached the
// rename before failing, so deleting it could orphan a manifest entry;
// referenced or not, it is harmless and the next successful publish or
// Open sweeps it, and its number is not reused. The just-written block
// index is likewise unreferenced; further appends into the old segment
// make it stale, which the size check on load detects.
func (l *shardLog) sealActiveLocked(f vfs.File, seg segmentFile) (old vfs.File, err error) {
	cur := len(l.segs) - 1
	l.segs[cur].size = l.off
	l.segs[cur].idx = writeBlockIndex(l.fs, l.segs[cur].path, l.off, l.segs[cur].recs) == nil
	l.segs = append(l.segs, seg)
	if err := l.writeManifestLocked(); err != nil {
		l.segs = l.segs[:cur+1]
		l.segs[cur].idx = false
		_ = f.Close() // never published; the publish error is the story
		return nil, err
	}
	old = l.active
	l.active, l.off, l.syncedOff = f, seg.size, seg.size
	return old, nil
}

// rotateLocked seals the active segment and starts the next one; a
// failure at any step leaves the old segment active and writable
// (sealActiveLocked).
func (l *shardLog) rotateLocked() error {
	// A completed segment file is always fully durable: fsync before
	// rotating away from it. A successful salvage IS the rotation (old
	// segment sealed at the watermark, at-risk records re-landed in a
	// fresh fsync'd file), so the append succeeds.
	if healed, err := l.fsyncLocked(); healed || err != nil {
		return err
	}
	f, seg, err := l.newSegmentFileLocked()
	if err != nil {
		return err
	}
	old, err := l.sealActiveLocked(f, seg)
	if err != nil {
		return err
	}
	if err := old.Close(); err != nil {
		// The new segment is already active and the old one was flushed
		// and fsync'd above, so nothing is lost; surface the failure.
		return fmt.Errorf("segmentlog: closing rotated segment: %w", err)
	}
	return nil
}

// Sync flushes buffered records and fsyncs the active segment: every
// Append that returned before Sync was called is durable once Sync
// returns nil — after a salvage, if that is what it took (fsyncLocked).
func (l *shardLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.ro {
		return ErrReadOnly
	}
	return l.syncLocked()
}

// syncLocked is Sync's body, and Close's: on a writable log, open or
// closing.
func (l *shardLog) syncLocked() error {
	if l.poisoned {
		if err := l.healLocked(); err != nil {
			return fmt.Errorf("segmentlog: active segment poisoned (%v); salvage failed: %w", l.poisonErr, err)
		}
		return nil // healLocked fsync'd everything previously appended
	}
	_, err := l.fsyncLocked()
	return err
}

// Close flushes, fsyncs and closes the log. It waits for an in-flight
// Compact to finish first — ShardedLog.Close releases the root lock
// once every shard has closed, and that must not happen while a
// compactor is still creating files in the directory, or a new owner
// could collide with the zombie's writes. Further operations return
// ErrClosed; Close is idempotent.
func (l *shardLog) Close() error {
	l.compactMu.Lock() // compactMu before mu, matching Compact
	defer l.compactMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.ro {
		return nil
	}
	// The close error matters even when the sync already failed: a
	// write-path close is when the last buffered bytes reach the
	// kernel, so join both rather than letting either mask the other.
	return errors.Join(l.syncLocked(), l.active.Close())
}

// Stats returns a snapshot of the log's bookkeeping, computed from the
// segment list: no counter is kept beside it but the truncation count.
func (l *shardLog) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Segments: len(l.segs), Devices: len(l.index), Truncated: l.truncated,
		Unsynced: int64(len(l.unsynced)), Gen: l.gen,
	}
	for i := range l.segs {
		sf := &l.segs[i]
		if sf.idx {
			s.IndexedSegs++
		}
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
	for dev := range l.index {
		out = append(out, dev)
	}
	sort.Strings(out)
	return out
}

// DeviceSpan returns the record count and overall time bounds indexed
// for a device; ok is false for an unknown device.
func (l *shardLog) DeviceSpan(device string) (records int, t0, t1 uint32, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	addrs := l.index[device]
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

// Block is one stored record as the log holds it and the wire carries it;
// an alias of trajstore.Block, as Record is of PersistedRecord.
type Block = trajstore.Block

// decodeInto is the decode edge, for callers that want GeoKeys rather than
// bytes: a visitor appending each block as a Record with Keys of its own.
func decodeInto(out *[]Record) func(Block) error {
	return func(b Block) error {
		keys, err := trajstore.DeltaDecode(b.Payload)
		*out = append(*out, Record{Device: b.Device, T0: b.T0, T1: b.T1, Keys: keys})
		return err // nil: Enters walked this very block
	}
}

// deviceBlocks visits, in append order, the records of device whose time
// bounds overlap [t0, t1].
func (l *shardLog) deviceBlocks(device string, t0, t1 uint32, visit func(Block) error) error {
	return l.read(nil, new(WindowStats), visit, func() (refs []refSnap) {
		for _, a := range l.index[device] {
			if m := l.metaAt(a); m.T0 <= t1 && m.T1 >= t0 {
				refs = append(refs, refSnap{seg: int(a.seg), off: m.off, bodyLen: m.bodyLen})
			}
		}
		return refs
	})
}

// read answers one query: snapshot lists the candidate records, and each
// is then loaded — from the read cache, else read back from disk and
// CRC-verified — walked once (trajstore.Enters) and, when it matches, visited;
// nothing is decoded.
func (l *shardLog) read(w *trajstore.Window, ws *WindowStats, visit func(Block) error, pick func() []refSnap) error {
	files := segReader{fs: l.fs}
	defer files.close()
	refs, cached, gen, err := l.snapshot(&files, pick)
	for i, ref := range refs {
		var blk Block
		if cached != nil {
			blk = cached[i]
		}
		hit := blk.Payload != nil
		if hit {
			ws.CacheHits++
		} else if blk, err = files.readBlock(ref); err != nil {
			return err
		} else {
			ws.RecordsDecoded++
		}
		match, err := trajstore.Enters(blk.Payload, w)
		if err != nil {
			return fmt.Errorf("segmentlog: indexed record unreadable: %w", err)
		}
		// Candidates that fail the exact test are cached too: they survived
		// the metadata pruning, so the same window (or a neighboring one)
		// will keep re-reading them.
		if !hit {
			l.cache.Put(recKey{gen: gen, path: files.paths[ref.seg], off: ref.off}, blk)
		}
		if match {
			ws.RecordsMatched++
			if err := visit(blk); err != nil {
				return err
			}
		}
	}
	return err
}

// snapshot runs pick under the lock, after writing buffered appends
// through so disk reads observe every indexed record (a flush failure
// poisons the active segment and withdraws the at-risk records from the
// index, leaving it consistent: queries keep answering from the durable
// prefix). Still under the lock it takes what the read cache holds —
// cached[i] is refs[i]'s block, safe from eviction now — and opens the
// other candidates' segments while they cannot vanish: a compaction
// deletes a file only after publishing, under this lock, the generation
// that drops it (a read-only handle has no such guarantee against its
// directory's live writer). gen is the snapshot's manifest generation,
// the cache epoch of its candidates.
func (l *shardLog) snapshot(files *segReader, pick func() []refSnap) (refs []refSnap, cached []Block, gen uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, 0, ErrClosed
	}
	if err := l.flushLocked(); err != nil && !l.poisoned {
		return nil, nil, 0, err
	}
	refs = pick()
	if l.cache != nil {
		cached = make([]Block, len(refs))
	}
	for i, ref := range refs {
		path := l.segs[ref.seg].path
		if blk, hit := l.cache.Get(recKey{gen: l.gen, path: path, off: ref.off}); hit {
			cached[i] = blk
		} else if err := files.open(ref.seg, path, len(l.segs)); err != nil {
			if l.ro && errors.Is(err, fs.ErrNotExist) {
				err = fmt.Errorf("segmentlog: log rewritten by a concurrent compaction; reopen to read the new generation: %w", err)
			}
			return nil, nil, 0, err
		}
	}
	return refs, cached, l.gen, nil
}

// segReader reads CRC-verified records through one handle per segment:
// opened first — seg of n, at path — then shared by any number of readers
// (preads).
type segReader struct {
	fs    vfs.FS
	paths []string   // by segment; set once opened
	files []vfs.File // parallel to paths
}

func (r *segReader) close() {
	for _, f := range r.files {
		if f != nil {
			_ = f.Close() // read-only handles; every read was CRC-checked
		}
	}
}

func (r *segReader) open(seg int, path string, n int) (err error) {
	if r.files == nil {
		r.paths, r.files = make([]string, n), make([]vfs.File, n)
	}
	if r.files[seg] == nil {
		if r.files[seg], err = r.fs.Open(path); err != nil {
			return fmt.Errorf("segmentlog: %w", err)
		}
		r.paths[seg] = path
	}
	return nil
}

// readBlock reads ref's record — header and body — from its opened
// segment via pread (safe for concurrent use of the shared handle) and
// re-verifies the length prefix and CRC against the indexed metadata: the
// index-time check does not protect against bit rot between Open and the
// read.
func (r *segReader) readBlock(ref refSnap) (Block, error) {
	rec := make([]byte, recordHeaderSize+ref.bodyLen)
	if _, err := r.files[ref.seg].ReadAt(rec, ref.off-recordHeaderSize); err != nil {
		return Block{}, fmt.Errorf("segmentlog: reading record: %w", err)
	}
	body, _, next, ok := nextRecord(rec, 0)
	if !ok || next != len(rec) {
		return Block{}, fmt.Errorf("%w: record at offset %d no longer matches its length and checksum", ErrCorrupt, ref.off)
	}
	dev, b, payload, err := splitBody(body)
	if err != nil {
		return Block{}, fmt.Errorf("%w: indexed record unreadable: %v", ErrCorrupt, err)
	}
	return Block{Device: dev, T0: b.T0, T1: b.T1, Payload: payload}, nil
}
