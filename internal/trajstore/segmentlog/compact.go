// Compaction: the paper's Section V-F maintenance procedures applied to
// the durable log. Closed (sealed) segment files are immutable, so a
// compactor can re-read them wholesale, rewrite their contents smaller,
// and atomically swap the result in via the MANIFEST — while appends
// keep flowing into the active segment and queries keep reading either
// generation.
//
// Three error-bounded rewrites run per device, in order, on stored blocks:
//
//   - Chunk merging: the engine's MaxTrailKeys chunking splits one long
//     session into consecutive records that overlap by exactly one key
//     point (engine.persistTrail). Merging re-joins them, dropping the
//     duplicated boundary keys — a pure dedup, the polyline is
//     unchanged.
//   - Overlap dedup: a record whose key points appear as a contiguous
//     run inside another record of the same device (a re-ingested
//     historical trajectory, an exact duplicate) is dropped — the
//     paper's merge procedure specialized to the exact-overlap case the
//     wire format can prove.
//   - Ageing: records older than CompactionPolicy.MinAge are decoded
//     and re-run through the FBQS compressor at CoarseTolerance
//     (Liu et al.'s amnesic compression: fidelity decays with age, but
//     stays error-bounded). The compressor emits a subset of the input
//     points, so retained keys are bit-identical and every dropped key
//     lies within CoarseTolerance of the aged polyline.
//
// Publish protocol (crash-safe at every step):
//
//  1. write new segment files under fresh sequence numbers — they are
//     not in the MANIFEST yet, so a crash leaves garbage that the next
//     Open removes;
//  2. fsync the new files and the directory;
//  3. write MANIFEST.tmp, fsync, rename over MANIFEST, fsync the
//     directory — the atomic commit point;
//  4. delete the superseded files — a crash in between leaves
//     unreferenced old files that the next Open removes.
//
// Recovery therefore always lands on exactly one generation: the old one
// before the rename, the new one after.
package segmentlog

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// CompactionPolicy parameterizes Compact.
type CompactionPolicy struct {
	// MinAge: only records whose newest key point (T1) is at least this
	// old — relative to Now — are aged. Zero ages every sealed record
	// (when CoarseTolerance enables ageing at all).
	MinAge time.Duration
	// CoarseTolerance, when > 0, enables ageing: qualifying records are
	// re-compressed at this tolerance in the trajstore.PlanePoint plane —
	// DESIGN.md's "The contract" has what it bounds. Zero disables ageing.
	CoarseTolerance float64
	// MergeChunks enables re-joining consecutive same-device records
	// that share their boundary key point.
	MergeChunks bool
	// Now substitutes the ageing clock; nil means time.Now. Tests use
	// it to age deterministically.
	Now func() time.Time
}

// CompactionResult reports what one Compact call did.
type CompactionResult struct {
	SegmentsIn  int    // sealed segments consumed
	SegmentsOut int    // segments written in their place
	RecordsIn   int    // records read from sealed segments
	RecordsOut  int    // records written
	BytesIn     int64  // on-disk bytes of the consumed segments, headers included
	BytesOut    int64  // on-disk bytes of the written segments
	Merged      int    // records removed by chunk-merging
	Deduped     int    // records dropped as fully overlapped
	Aged        int    // records re-compressed at CoarseTolerance
	Gen         uint64 // generation published (0 when there was nothing to do)
}

// compactRecord is one logical record flowing through the rewrite: its
// indexed time span and its key points as the stored block, opened — keys
// exist only while ageing re-compresses them.
type compactRecord struct {
	device string
	t0, t1 uint32
	trail  trajstore.Trail
}

// ageCompressor is the registry compressor ageing re-runs old records
// through.
const ageCompressor = "fbqs"

// devOut is one device's rewrite result, handed from a compaction
// worker to the ordered writer.
type devOut struct {
	recs                  []compactRecord
	decoded               int // sealed records read for this device (memory accounting)
	merged, deduped, aged int
	nextAgeT1             uint32
	err                   error
}

// compact rewrites every sealed segment (all but the active one) through
// the merge/dedup/ageing pipeline and atomically publishes the result as
// a new manifest generation. Appends and queries proceed concurrently;
// compactions serialize with each other. On any failure — including a
// sealed record that no longer validates (bit rot since open) — the
// published generation is untouched; partially written output files are
// swept by the next Open.
//
// Memory and parallelism: the pass streams — devices are read and
// rewritten one at a time by a pool of workers goroutines, and a device's
// records are released as soon as the ordered writer has framed them, so
// peak usage is bounded by the workers largest devices, never the whole
// sealed log. The count does not affect the output (ShardedLog.Compact
// derives it). Record reads go through the per-record offsets the block
// index recovered (pread, CRC-verified), not a whole-file slurp.
func (l *shardLog) compact(p CompactionPolicy, workers int) (CompactionResult, error) {
	var res CompactionResult
	if math.IsNaN(p.CoarseTolerance) || p.CoarseTolerance < 0 {
		return res, fmt.Errorf("segmentlog: CoarseTolerance must be ≥ 0")
	}
	if p.CoarseTolerance > 0 {
		// Validate the tolerance up front so a bad policy fails before
		// any IO.
		if _, err := stream.New(ageCompressor, p.CoarseTolerance); err != nil {
			return res, fmt.Errorf("segmentlog: age compressor: %w", err)
		}
	}
	now := time.Now
	if p.Now != nil {
		now = p.Now
	}

	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	// The sealed prefix is immutable from here on — appends, rotation and
	// heal only touch the active entry and what follows it, and competing
	// compactions are excluded by compactMu — so the pass reads it, records
	// included, without the lock.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return res, ErrClosed
	}
	if l.ro {
		l.mu.Unlock()
		return res, ErrReadOnly
	}
	sealed := l.segs[: len(l.segs)-1 : len(l.segs)-1]
	genAtSnap := l.gen
	l.mu.Unlock()
	if len(sealed) == 0 {
		return res, nil
	}

	// Memo fast path: if the previous pass (same policy) already saw
	// this exact generation and no record has aged into eligibility
	// since, this pass is guaranteed to change nothing — skip even the
	// read, so a periodic tick on a quiet log is O(1).
	cutoff := ageCutoff(now(), p.MinAge)
	m := &l.lastCompact
	if m.valid && m.gen == genAtSnap &&
		m.policy.CoarseTolerance == p.CoarseTolerance &&
		m.policy.MergeChunks == p.MergeChunks &&
		(p.CoarseTolerance == 0 || cutoff < m.nextAgeT1) {
		return res, nil
	}

	// Each device's sealed records, in append order, are the head of its
	// index list — the entries below the active segment — and as immutable
	// as the prefix they point into: an append extends a list, poison and
	// heal pop and re-add active-segment entries only, and the one rebuild
	// is this pass's own publish. The pass reads them in place rather than
	// hold a third entry per sealed record for its whole length.
	l.mu.Lock()
	perDev := make(map[string][]recordAddr, len(l.index))
	for dev, addrs := range l.index {
		n := sort.Search(len(addrs), func(i int) bool { return int(addrs[i].seg) >= len(sealed) })
		if n > 0 {
			perDev[dev] = addrs[:n:n]
		}
	}
	l.mu.Unlock()
	for _, sf := range sealed {
		res.RecordsIn += len(sf.recs)
		res.SegmentsIn++
		res.BytesIn += sf.size
	}
	// Open every sealed file once; workers share the handles via pread.
	files := &segReader{fs: l.fs}
	defer files.close()
	for i, sf := range sealed {
		if err := files.open(i, sf.path, len(sealed)); err != nil {
			return res, fmt.Errorf("compact: %w", err)
		}
	}

	// Fan the devices out to the worker pool and write the results in
	// sorted device order (deterministic output; per-device record order
	// is preserved — the Query contract). The semaphore is the memory
	// bound: a slot is taken before a device is read and released only
	// after the writer has consumed it, so at most `workers` devices'
	// records are alive at any moment.
	devices := make([]string, 0, len(perDev))
	for dev := range perDev {
		devices = append(devices, dev)
	}
	sort.Strings(devices)
	results := make([]chan devOut, len(devices))
	for i := range results {
		results[i] = make(chan devOut, 1)
	}
	work := make(chan int)
	sem := make(chan struct{}, workers)
	go func() {
		for i := range devices {
			sem <- struct{}{}
			work <- i
		}
		close(work)
	}()
	if workers > len(devices) {
		workers = len(devices)
	}
	for w := 0; w < workers; w++ {
		go func() {
			for i := range work {
				results[i] <- l.compactDevice(perDev[devices[i]], sealed, files, p, cutoff)
			}
		}()
	}

	cw := &compactWriter{l: l}
	nextAgeT1 := uint32(math.MaxUint32)
	var firstErr error
	for i := range devices {
		out := <-results[i] //bqslint:ignore lockedsend compactMu serializes compactions and every worker sends exactly once, so this receive under the lock always drains
		if firstErr == nil {
			if out.err != nil {
				firstErr = out.err
			} else {
				res.Merged += out.merged
				res.Deduped += out.deduped
				res.Aged += out.aged
				if out.nextAgeT1 < nextAgeT1 {
					nextAgeT1 = out.nextAgeT1
				}
				for _, r := range out.recs {
					if err := cw.add(r); err != nil {
						firstErr = err
						break
					}
				}
				res.RecordsOut += len(out.recs)
			}
		}
		l.compactLive.Add(-int64(out.decoded))
		<-sem //bqslint:ignore lockedsend the semaphore slot is released by the worker whose result was just received; the receive cannot block
	}
	if firstErr != nil {
		cw.discard()
		return res, firstErr
	}

	// Nothing changed at the record level: discard the (byte-identical)
	// output and skip the publish, so a periodic compaction tick on an
	// already-compacted (or incompressible) log costs one streaming read
	// pass, not a generation bump and fsync storm every interval — and
	// the memo below makes the next tick O(1). (RecordsIn == 0 with
	// sealed segments present still publishes, to drop the empty files. A
	// sealed segment whose block index failed to write at rotation is not a
	// reason to rewrite: the next writable open re-seals it, loadSegment.)
	if res.Merged == 0 && res.Deduped == 0 && res.Aged == 0 && res.RecordsIn > 0 {
		cw.discard()
		res.RecordsOut = res.RecordsIn
		res.SegmentsOut = res.SegmentsIn
		res.BytesOut = res.BytesIn
		l.lastCompact.valid = true
		l.lastCompact.gen = genAtSnap // a rotation since the snapshot makes this miss: conservative
		l.lastCompact.policy = p
		l.lastCompact.nextAgeT1 = nextAgeT1
		return res, nil
	}

	// Seal the output segments and their block indexes (unreferenced
	// until the manifest rename below).
	newSegs, err := cw.finish()
	if err != nil {
		return res, err
	}
	res.SegmentsOut = len(newSegs)
	for _, s := range newSegs {
		res.BytesOut += s.size
	}
	// Publish: swap the sealed prefix for the new segments in one
	// manifest generation, then rebuild the index to match.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return res, ErrClosed
	}
	prev := l.segs
	tailOnlyActive := len(prev) == len(sealed)+1 // else rotation sealed more during the pass
	l.segs = append(newSegs, prev[len(sealed):]...)
	if err := l.writeManifestLocked(); err != nil {
		l.segs = prev
		l.mu.Unlock()
		return res, err
	}
	res.Gen = l.gen
	// The superseded segments' cache entries are orphans from here on (no
	// record points at those paths); account the net disk reclaim of this pass.
	// BytesOut is complete here even though res is still being built:
	// the output segments were sealed above and the tail was never an
	// input.
	l.reclaimed.Add(res.BytesIn - res.BytesOut)
	l.rebuildIndexLocked()
	l.mu.Unlock()

	// Delete the superseded generation — segment files and their block
	// indexes. Failures (and crashes) here are benign: the files are
	// unreferenced and the next Open sweeps them.
	for _, sf := range sealed {
		if err := l.fs.Remove(sf.path); err != nil && !os.IsNotExist(err) {
			return res, fmt.Errorf("segmentlog: removing superseded %s: %w", sf.path, err)
		}
		if ip, ok := idxPathFor(sf.path); ok {
			if err := l.fs.Remove(ip); err != nil && !os.IsNotExist(err) {
				return res, fmt.Errorf("segmentlog: removing superseded %s: %w", ip, err)
			}
		}
	}
	if err := syncDir(l.fs, l.dir); err != nil {
		return res, err
	}
	// The published generation is now the compactor's own output; if no
	// rotation sealed fresh segments mid-pass, the next same-policy tick
	// can skip until new data (or a newly eligible record) appears.
	if tailOnlyActive {
		l.lastCompact.valid = true
		l.lastCompact.gen = res.Gen
		l.lastCompact.policy = p
		l.lastCompact.nextAgeT1 = nextAgeT1
	} else {
		l.lastCompact.valid = false
	}
	return res, nil
}

// compactDevice is the worker side of the streaming compactor: it reads
// one device's sealed records — addrs, into sealed — (pread through the
// indexed offsets, CRC re-verified), opens their blocks and runs the merge/dedup/ageing
// pipeline on them. Every record was valid when Open indexed it, so
// anything that fails to validate now is bit rot — the pass must abort
// (leaving the old generation untouched) rather than drop the record and
// then delete its only copy. out.decoded is reported even on error so the
// writer's live-memory accounting stays balanced.
func (l *shardLog) compactDevice(addrs []recordAddr, sealed []segmentFile, files *segReader, p CompactionPolicy, cutoff uint32) (out devOut) {
	out.nextAgeT1 = math.MaxUint32
	recs := make([]compactRecord, 0, len(addrs))
	for _, a := range addrs {
		var tr trajstore.Trail
		m := &sealed[a.seg].recs[a.pos]
		blk, err := files.readBlock(refSnap{seg: int(a.seg), off: m.off, bodyLen: m.bodyLen})
		if err == nil {
			tr, err = trajstore.OpenTrail(blk.Payload)
		}
		if err != nil {
			out.err = fmt.Errorf("compact: %s: record at offset %d: %w (bit rot since open?)",
				filepath.Base(sealed[a.seg].path), m.off, err)
			return out
		}
		recs = append(recs, compactRecord{device: blk.Device, t0: blk.T0, t1: blk.T1, trail: tr})
		out.decoded++
		l.compactLiveAdd(1)
	}
	if p.MergeChunks {
		recs, out.merged = mergeChunks(recs)
	}
	recs, out.deduped = dedupContained(recs)
	if p.CoarseTolerance > 0 {
		for i := range recs {
			r := &recs[i]
			if r.t1 > cutoff { // too young: the pass that must look again
				out.nextAgeT1 = min(out.nextAgeT1, r.t1)
				continue
			}
			if r.trail.Len() <= 2 {
				continue // nothing to thin
			}
			aged, err := ageKeys(r.trail.Keys(), p)
			if err == nil && aged != nil {
				r.trail = trajstore.Trail{}
				err = r.trail.Add(aged...)
				out.aged++
			}
			if err != nil {
				out.err = err
				return out
			}
		}
	}
	out.recs = recs
	return out
}

// mergeChunks re-joins consecutive records that overlap by exactly one
// key point (the engine's chunking invariant: each chunk restarts from
// the previous chunk's last key) by joining their blocks — see Trail.Join.
// Merging stops before a record would exceed the record-size cap.
func mergeChunks(recs []compactRecord) (out []compactRecord, merged int) {
	out = recs[:0]
	for _, r := range recs {
		if len(out) > 0 {
			prev := &out[len(out)-1]
			if minBodySize+len(r.device)+binary.MaxVarintLen64+prev.trail.Size()+r.trail.Size() <= MaxRecordBytes &&
				prev.trail.Join(&r.trail) {
				prev.t0, prev.t1 = min(prev.t0, r.t0), max(prev.t1, r.t1)
				merged++
				continue
			}
		}
		out = append(out, r)
	}
	return out, merged
}

// dedupContained drops records fully overlapped by another record of the
// same device: the record's key points appear as a contiguous run inside
// the other's. Exact duplicates are the len-equal special case. When an
// already-kept record is contained in a newer one, the kept record is
// replaced instead. Blocks are walked only for pairs whose spans nest.
func dedupContained(recs []compactRecord) (out []compactRecord, dropped int) {
	var kept []compactRecord
	for _, r := range recs {
		contained := false
		filtered := kept[:0]
		for _, k := range kept {
			switch {
			case !contained && k.t0 <= r.t0 && r.t1 <= k.t1 && k.trail.Contains(&r.trail):
				contained = true
				filtered = append(filtered, k)
			case r.t0 <= k.t0 && k.t1 <= r.t1 && r.trail.Contains(&k.trail):
				dropped++ // k is swallowed by the newer r
			default:
				filtered = append(filtered, k)
			}
		}
		kept = filtered
		if contained {
			dropped++
		} else {
			kept = append(kept, r)
		}
	}
	return kept, dropped
}

// ageCutoff converts (now, MinAge) to a uint32 seconds threshold:
// records whose t1 ≤ cutoff qualify for ageing.
func ageCutoff(now time.Time, minAge time.Duration) uint32 {
	c := now.Unix() - int64(minAge/time.Second)
	if c < 0 {
		return 0
	}
	if c > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(c)
}

// ageKeys re-compresses one record's key points at the coarse tolerance.
// It returns nil (and no error) when the compressor kept every key. The
// compressors emit a subset of their input points, so each retained key
// is returned bit-identical to the original (preserving the wire bytes
// exactly); every dropped key is within CoarseTolerance of the aged
// polyline, the bound the compressor guarantees for all input points.
func ageKeys(keys []trajstore.GeoKey, p CompactionPolicy) ([]trajstore.GeoKey, error) {
	comp, err := stream.New(ageCompressor, p.CoarseTolerance)
	if err != nil {
		return nil, fmt.Errorf("segmentlog: age compressor: %w", err)
	}
	pts := make([]core.Point, len(keys))
	for i, k := range keys {
		pts[i] = trajstore.PlanePoint(k)
	}
	kps := stream.Compress(comp, pts)
	if len(kps) >= len(keys) {
		return nil, nil // nothing gained
	}
	out := make([]trajstore.GeoKey, 0, len(kps))
	j := 0
	for _, kp := range kps {
		// Key points are emitted in input order; advance to the source
		// point and keep its exact original GeoKey.
		matched := false
		for j < len(pts) {
			if pts[j] == kp {
				out = append(out, keys[j])
				j++
				matched = true
				break
			}
			j++
		}
		if !matched {
			// Defensive: a compressor that synthesizes points (none of
			// the built-ins do) still round-trips through the plane.
			out = append(out, trajstore.PlaneKey(kp))
		}
	}
	if len(out) < 2 {
		return nil, nil
	}
	return out, nil
}

// compactWriter packs a stream of records into fresh segment files
// (respecting the rotation threshold), fsyncs each on seal, and writes
// a block index next to it, so every output segment has a live index.
// An index write failure aborts the pass: the old generation is whole, and
// nothing is gained by publishing segments the next open must scan. The
// files are unreferenced until the caller publishes a manifest naming
// them, so discard (or a crash) just leaves garbage the next Open
// sweeps.
type compactWriter struct {
	l    *shardLog
	segs []segmentFile // the last one is open (f != nil) or sealed
	f    vfs.File
	off  int64
	buf  []byte
}

// closeCurrent seals the open output segment: fsync, close, block
// index, summary.
func (w *compactWriter) closeCurrent() error {
	if w.f == nil {
		return nil
	}
	s := &w.segs[len(w.segs)-1]
	s.size = w.off
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close() // seal failed; the fsync error is the story
		w.f = nil
		return fmt.Errorf("segmentlog: compact: %w", err)
	}
	if err := w.f.Close(); err != nil {
		w.f = nil
		return err
	}
	w.f = nil
	if err := writeBlockIndex(w.l.fs, s.path, s.size, s.recs); err != nil {
		return err
	}
	s.idx = true
	s.sum = sumOf(s.recs)
	return nil
}

// add frames and writes one record, rotating to a fresh segment file
// at the size threshold.
func (w *compactWriter) add(r compactRecord) (err error) {
	b := r.trail.Bounds()
	b.T0, b.T1 = r.t0, r.t1
	if w.buf, err = frameRecord(w.buf[:0], r.device, b, &r.trail); err != nil {
		return err
	}
	if w.f != nil && w.off > headerSize && w.off+int64(len(w.buf)) > w.l.opts.MaxSegmentBytes {
		if err := w.closeCurrent(); err != nil {
			return err
		}
	}
	if w.f == nil {
		w.l.mu.Lock()
		seq := w.l.nextSeq
		w.l.nextSeq++
		w.l.mu.Unlock()
		f, seg, err := w.l.createSegmentFile(seq)
		if err != nil {
			return err
		}
		w.f, w.off = f, headerSize
		w.segs = append(w.segs, seg)
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.closeCurrent()
		return fmt.Errorf("segmentlog: compact: %w", err)
	}
	s := &w.segs[len(w.segs)-1]
	s.recs = append(s.recs, recordMeta{
		device: r.device, off: w.off + recordHeaderSize, bodyLen: len(w.buf) - recordHeaderSize, Bounds: b,
	})
	w.off += int64(len(w.buf))
	return nil
}

// finish seals the last segment and makes the output set durable.
func (w *compactWriter) finish() ([]segmentFile, error) {
	if err := w.closeCurrent(); err != nil {
		return nil, err
	}
	if len(w.segs) > 0 {
		if err := syncDir(w.l.fs, w.l.dir); err != nil {
			return nil, err
		}
	}
	return w.segs, nil
}

// discard abandons the output: the files were never referenced by a
// manifest, so removal is best-effort — whatever survives is swept by
// the next Open.
func (w *compactWriter) discard() {
	if w.f != nil {
		_ = w.f.Close() // output was never referenced by a manifest
		w.f = nil
	}
	for _, s := range w.segs {
		w.l.fs.Remove(s.path)
		if ip, ok := idxPathFor(s.path); ok {
			w.l.fs.Remove(ip)
		}
	}
	w.segs = nil
}
