// Opening a shard log: manifest, every segment's records (a scan of each
// file), torn-tail recovery and the sweep of unreferenced files.
package segmentlog

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// openShardLog opens (creating if necessary) the shard log in dir: it
// loads the MANIFEST — the only source of the segment list; a directory
// without one is fresh, or refused with ErrCorrupt if it holds segments —
// loads every live segment's records (loadSegment), truncating any torn
// tail, readies the last segment for appending, publishes the list and
// removes the files it does not name: the view is complete, and a damaged
// segment refused, before it returns. With Options.ReadOnly it does none
// of the mutating parts — no truncation, no appending, no publish, no
// cleanup.
func openShardLog(dir string, opts Options) (*shardLog, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if opts.MaxSegmentBytes < headerSize+recordHeaderSize {
		return nil, fmt.Errorf("segmentlog: MaxSegmentBytes %d too small", opts.MaxSegmentBytes)
	}
	if limit := int64(maxSegmentSize - recordHeaderSize - MaxRecordBytes); opts.MaxSegmentBytes > limit {
		return nil, fmt.Errorf("segmentlog: MaxSegmentBytes %d above %d: one record past it, a segment would outgrow 32-bit record offsets", opts.MaxSegmentBytes, limit)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	l := &shardLog{dir: dir, opts: opts, ro: opts.ReadOnly, fs: fsys, nextSeq: 1, ids: make(map[string]uint32), cache: opts.cache}
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
	if !found {
		// Every shard publishes its MANIFEST before its root commits, so a
		// directory without one is fresh, and a segment there holding no
		// record is a failed first open's, swept by the publish. Others have
		// no order to read them in: not file names, which compaction skews.
		segs, err := l.fs.Glob(filepath.Join(dir, "seg-*.log"))
		if err != nil {
			return nil, fmt.Errorf("segmentlog: %w", err)
		}
		for _, p := range segs {
			if fi, err := l.fs.Stat(p); err != nil || fi.Size() > headerSize {
				return nil, fmt.Errorf("%w: %s: segment files but no %s", ErrCorrupt, dir, manifestName)
			}
			if n, ok := parseSegName(filepath.Base(p)); ok {
				l.nextSeq = max(l.nextSeq, n+1)
			}
		}
	}
	l.gen = man.Gen
	for i, ent := range man.Segs {
		seg, err := l.loadSegment(filepath.Join(dir, ent.Name), i == len(man.Segs)-1)
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, seg)
		if n, _ := parseSegName(ent.Name); n >= l.nextSeq {
			l.nextSeq = n + 1
		}
	}
	l.reindexLocked(0)
	l.tiers = []int{max(len(l.segs)-1, 0)} // what is sealed, one tier

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
	// Sweep crashed-compaction leftovers only now: had a referenced
	// segment been unreadable the open failed above, and an unpublished
	// compactor output may be the only intact copy of its data. The live
	// set is the list just published.
	if err := cleanUnreferenced(l.fs, dir, l.segs); err != nil {
		_ = l.active.Close() // open failed; the sweep error is the story
		return nil, err
	}
	return l, nil
}

// loadSegment reads one live segment file — the only loader: a sealed
// segment is its own index — and returns it with the metadata of its valid
// records and its valid size, handling an invalid tail. Dropping bytes
// after the first invalid record is only sound where a crash could
// actually tear a write: the final (active-to-be) segment, or a genuinely
// record-free tail left by an unsynced rotation. A *non-final* segment
// whose bad record is followed by more valid records is mid-file
// corruption of data that was once durable — now that compaction makes
// sealed segments long-lived archives, that must fail (ErrCorrupt) rather
// than silently destroy everything after the rotten byte. Read-only
// handles stay lenient, modifying nothing and salvaging what is readable;
// a file past 32-bit offsets fails both.
func (l *shardLog) loadSegment(path string, final bool) (segmentFile, error) {
	if fi, err := l.fs.Stat(path); err == nil && fi.Size() > maxSegmentSize {
		return segmentFile{}, fmt.Errorf("%w: %s: %d bytes, past 32-bit record offsets", ErrCorrupt, filepath.Base(path), fi.Size())
	}
	data, err := l.fs.ReadFile(path)
	if err != nil {
		return segmentFile{}, fmt.Errorf("segmentlog: %w", err)
	}
	if len(data) < headerSize {
		// A crash can leave a freshly rotated file with a partial
		// header; rewrite it as empty rather than failing the open.
		if l.ro {
			l.truncated += int64(len(data))
			return segmentFile{path: path, size: int64(len(data))}, nil
		}
		if !final {
			return segmentFile{}, fmt.Errorf("%w: %s: sealed segment shorter than its header", ErrCorrupt, filepath.Base(path))
		}
		return segmentFile{path: path, size: headerSize}, l.rewriteEmpty(path)
	}
	if [6]byte(data[:6]) != magic {
		return segmentFile{}, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	if v := data[6]; v != version {
		return segmentFile{}, fmt.Errorf("%w: %s: segment version %d, and only %d is read; %s", ErrCorrupt, filepath.Base(path), v, version, upgradeHint)
	}
	metas, scratch := []recordMeta(nil), []byte(nil)
	valid := int64(headerSize)
	for pos := headerSize; ; {
		body, bodyOff, next, ok := nextRecord(data, pos)
		if !ok {
			break
		}
		dev, unpacked, tr, err := openRecord(scratch[:0], body)
		if err != nil {
			break
		}
		scratch = unpacked
		metas = append(metas, recordMeta{dev: l.internLocked(dev), off: uint32(bodyOff), bodyLen: uint32(len(body)), Bounds: tr.Bounds()})
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
				return segmentFile{}, fmt.Errorf("%w: %s: invalid record at offset %d but valid data at %d — refusing to truncate a sealed segment mid-file",
					ErrCorrupt, filepath.Base(path), valid, off)
			}
		}
		if !l.ro {
			if err := l.fs.Truncate(path, valid); err != nil {
				return segmentFile{}, fmt.Errorf("segmentlog: truncating torn tail: %w", err)
			}
		}
		l.truncated += torn
	}
	if !final {
		metas = slices.Clone(metas) // sealed, it grows no more: shed the scan's spare room
	}
	return segmentFile{path: path, size: valid, sum: sumOf(metas), recs: metas}, nil
}

// resyncScan looks for a valid, decodable record anywhere after from;
// it returns the offset of the first one, or -1. Used to tell mid-file
// corruption apart from a torn tail (a false positive needs random
// bytes to pass both plausibility checks and CRC-32C, ~2^-32).
func resyncScan(data []byte, from int) int {
	for pos := from + 1; pos+recordHeaderSize <= len(data); pos++ {
		if body, _, _, ok := nextRecord(data, pos); ok {
			if _, _, _, err := openRecord(nil, body); err == nil {
				return pos
			}
		}
	}
	return -1
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

// cleanUnreferenced removes files a crashed compaction or rotation left
// behind: a stale manifest temp file, canonical segment files the published
// list segs does not reference: either a new generation that was never
// published, or a superseded generation whose deletion was interrupted.
func cleanUnreferenced(fsys vfs.FS, dir string, segs []segmentFile) error {
	live := make(map[string]bool, len(segs))
	for _, s := range segs {
		live[filepath.Base(s.path)] = true
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("segmentlog: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if _, seg := parseSegName(name); name == manifestTmpName || seg && !live[name] {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("segmentlog: removing unreferenced %s: %w", name, err)
			}
		}
	}
	return nil
}
