// The read path: a query snapshots its candidate records under the lock,
// then loads each — read cache, else pread + CRC — and walks it undecoded.
package segmentlog

import (
	"errors"
	"fmt"
	"io/fs"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

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
		for _, a := range l.addrsLocked(device) {
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
	refs, cached, err := l.snapshot(&files, pick)
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
			l.cache.Put(recKey{path: files.paths[ref.seg], off: ref.off}, blk)
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
// directory's live writer).
func (l *shardLog) snapshot(files *segReader, pick func() []refSnap) (refs []refSnap, cached []Block, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, ErrClosed
	}
	if err := l.flushLocked(); err != nil && !l.poisoned {
		return nil, nil, err
	}
	refs = pick()
	if l.cache != nil {
		cached = make([]Block, len(refs))
	}
	for i, ref := range refs {
		path := l.segs[ref.seg].path
		if blk, hit := l.cache.Get(recKey{path: path, off: ref.off}); hit {
			cached[i] = blk
		} else if err := files.open(ref.seg, &l.segs[ref.seg], len(l.segs)); err != nil {
			if l.ro && errors.Is(err, fs.ErrNotExist) {
				err = fmt.Errorf("segmentlog: log rewritten by a concurrent compaction; reopen to read the new generation: %w", err)
			}
			return nil, nil, err
		}
	}
	return refs, cached, nil
}

// segReader reads CRC-verified records through one handle per segment:
// opened first — seg of n — then shared by any number of readers (preads).
type segReader struct {
	fs       vfs.FS
	paths    []string   // by segment; set once opened
	versions []byte     // parallel to paths: the segment's format version
	files    []vfs.File // parallel to paths
}

func (r *segReader) close() {
	for _, f := range r.files {
		if f != nil {
			_ = f.Close() // read-only handles; every read was CRC-checked
		}
	}
}

func (r *segReader) open(seg int, sf *segmentFile, n int) (err error) {
	if r.files == nil {
		r.paths, r.versions, r.files = make([]string, n), make([]byte, n), make([]vfs.File, n)
	}
	if r.files[seg] == nil {
		if r.files[seg], err = r.fs.Open(sf.path); err != nil {
			return fmt.Errorf("segmentlog: %w", err)
		}
		r.paths[seg], r.versions[seg] = sf.path, sf.version
	}
	return nil
}

// readTrail reads ref's record — header and body — from its opened
// segment via pread (safe for concurrent use of the shared handle),
// re-verifies the length prefix and CRC against the indexed metadata (bit
// rot between Open and the read) and opens its payload: the device ID and
// the trail, both in bytes this read allocated.
func (r *segReader) readTrail(ref refSnap) ([]byte, trajstore.Trail, error) {
	n := recordHeaderSize + int(ref.bodyLen)
	rec := make([]byte, n, 3*n) // and room to unpack after it
	if _, err := r.files[ref.seg].ReadAt(rec, int64(ref.off)-recordHeaderSize); err != nil {
		return nil, trajstore.Trail{}, fmt.Errorf("segmentlog: reading record: %w", err)
	}
	body, _, next, ok := nextRecord(rec, 0)
	if !ok || next != len(rec) {
		return nil, trajstore.Trail{}, fmt.Errorf("%w: record at offset %d no longer matches its length and checksum", ErrCorrupt, ref.off)
	}
	dev, _, tr, err := openRecord(rec[n:], body, r.versions[ref.seg])
	if err != nil {
		return nil, tr, fmt.Errorf("%w: indexed record unreadable: %v", ErrCorrupt, err)
	}
	return dev, tr, nil
}

// readBlock is readTrail's record as a block, copied out at size.
func (r *segReader) readBlock(ref refSnap) (Block, error) {
	dev, tr, err := r.readTrail(ref)
	if err != nil {
		return Block{}, err
	}
	return Block{Device: string(dev), T0: tr.Bounds().T0, T1: tr.Bounds().T1, Payload: tr.AppendBlock(nil)}, nil
}
