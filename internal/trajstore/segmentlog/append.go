// The write path: segment creation, the buffered append, fsync and its
// poison-and-heal failure protocol, rotation, Sync and Close.
package segmentlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

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
	return f, segmentFile{path: path, version: version, size: headerSize}, nil
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
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writableLocked(); err != nil {
		return err
	}
	if l.poisoned {
		if err := l.healLocked(); err != nil {
			return fmt.Errorf("segmentlog: active segment poisoned (%v); salvage failed: %w", l.poisonErr, err)
		}
	}

	start := len(l.unsynced)
	buf, err := frameRecord(l.unsynced, device, tr)
	l.unsynced = buf
	if err != nil {
		return err
	}
	n := len(buf) - start

	l.addRecordLocked(recordMeta{
		dev: l.internLocked([]byte(device)), off: uint32(l.off + recordHeaderSize), bodyLen: uint32(n - recordHeaderSize), Bounds: tr.Bounds(),
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
	for keep > 0 && int64(cur.recs[keep-1].off)-recordHeaderSize >= l.syncedOff {
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
		lst := &l.index[l.atRisk[i].dev]
		*lst = (*lst)[:len(*lst)-1]
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
		m.off = uint32(int64(m.off) + headerSize - watermark)
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
// index the old, append the new, publish. The caller closes the old
// handle it gets back, after the swap, so the log never points at a
// closed file. A failed publish leaves the old segment active and
// writable: the new file stays on disk — the write may have reached the
// rename before failing, so deleting it could orphan a manifest entry;
// referenced or not, it is harmless and the next successful publish or
// Open sweeps it, and its number is not reused.
func (l *shardLog) sealActiveLocked(f vfs.File, seg segmentFile) (old vfs.File, err error) {
	cur := len(l.segs) - 1
	l.segs[cur].size = l.off
	l.segs[cur].recs = slices.Clone(l.segs[cur].recs) // sealed, it grows no more: shed append's spare room
	l.segs = append(l.segs, seg)
	if err := l.writeManifestLocked(); err != nil {
		l.segs = l.segs[:cur+1]
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

// seal rotates a non-empty active segment out, so that a compaction pass
// reaches its records: a drain's last chunks are merged with the ones before
// them. An empty one stays — a clean restart adds no file — and a poisoned
// one is the next append's or Sync's to heal.
func (l *shardLog) seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writableLocked(); err != nil || l.poisoned || l.off == headerSize {
		return err
	}
	return l.rotateLocked()
}

// writableLocked refuses a mutating operation on a closed or read-only log.
func (l *shardLog) writableLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.ro {
		return ErrReadOnly
	}
	return nil
}

// Sync flushes buffered records and fsyncs the active segment: every
// Append that returned before Sync was called is durable once Sync
// returns nil — after a salvage, if that is what it took (fsyncLocked).
func (l *shardLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writableLocked(); err != nil {
		return err
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
