// Compaction: the paper's Section V-F maintenance procedures applied to
// the durable log. Sealed segment files are immutable, so a pass can re-read
// a contiguous run of them — each device's records gathered from the run
// itself, in segment then file order — rewrite it smaller, and atomically
// put the result in the run's place via the MANIFEST — while appends keep
// flowing into the active segment and queries keep reading either
// generation.
//
// Which run: a periodic pass takes what was sealed since the last pass and,
// behind it, earlier passes' outputs (tiers) while tierRatio allows — it
// costs what changed; an explicit pass takes every tier (compact).
//
// Three error-bounded rewrites run per device, in order, on stored blocks:
//
//   - Chunk merging: the engine's MaxTrailKeys chunking and its flushes cut
//     one long session into consecutive records that overlap by exactly one
//     key point. Merging re-joins them, dropping the duplicated boundary
//     keys — a pure dedup, the polyline is unchanged.
//   - Overlap dedup: a record whose key points appear as a contiguous
//     run inside another record of the same device (a re-ingested
//     trajectory, an exact duplicate) is dropped — the paper's merge
//     procedure specialized to the exact overlap the wire format can prove.
//   - Ageing: key points older than CompactionPolicy.MinAge that a record's
//     watermark (trajstore.Trail.Aged) has not passed are re-run through
//     the FBQS compressor at CoarseTolerance from the last aged key on
//     (Liu et al.'s amnesic compression: fidelity decays with age, but
//     stays error-bounded), and the watermark moves past them: a key is
//     aged once. The compressor emits a subset of its input and
//     trajstore.PlaneKey maps a plane point back to its key's lattice
//     integers, so kept keys keep their bytes and every dropped key lies
//     within CoarseTolerance of the aged polyline.
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
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// CompactionPolicy parameterizes Compact.
type CompactionPolicy struct {
	// Every, when > 0 in a writable log's Options.Compaction, runs a
	// periodic pass this often until Close; OpenSharded refuses it < 0.
	Every time.Duration
	// MinAge: only a record's leading key points at least this old —
	// relative to Now — are aged. Zero ages every sealed record (when
	// CoarseTolerance enables ageing at all).
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
// key points as the stored block, opened, with their bounds — keys exist
// only while ageing re-compresses them.
type compactRecord struct {
	dev   uint32 // device number: shardLog.names[dev] is its ID
	trail trajstore.Trail
}

// ageCompressor names the bound ageing keeps, stream.Deviation's: that of
// "bqs", whose key points ageing's FBQS keeps (newAgeCompressor), the line
// distance to the time-matched segment. It runs without "fbqs"'s joints, so
// that every aged key is a stored key, on whatever grid its record's are.
const ageCompressor = "bqs"

// newAgeCompressor is the FBQS ageing re-runs old records through.
func newAgeCompressor(tol float64) (*core.Compressor, error) {
	return core.NewCompressor(core.Config{Tolerance: tol, Mode: core.ModeFast, RotationWarmup: -1})
}

// tierRatio is the selection rule's constant: a pass reaches back over an
// earlier pass's output only while that tier is no larger than tierRatio
// times the bytes it already holds. At 2 every tier left standing is more
// than twice the next — log2(log size) tiers at most — and a rewrite leaves
// a byte in a tier at least 1.5 times the one it was in.
const tierRatio = 2

// compact runs one pass: it selects a contiguous run of sealed segments,
// rewrites it through the merge/dedup/ageing pipeline and atomically
// publishes the result in the run's place as a new manifest generation.
// A periodic pass (all false) selects what was sealed since the last pass
// and, behind it, older tiers by tierRatio — so a tick costs what changed
// and leaves every other segment, its cache entries included, as it is. An
// explicit pass (all) selects every tier: after seal, it leaves a log at
// rest fully merged. Appends and queries proceed concurrently; compactions
// serialize with each other. On any failure — including a sealed record
// that no longer validates (bit rot since open) — the published generation
// is untouched; partially written output files are swept by the next Open.
// The pass is one loop over the selection's devices in name order: each is
// read, rewritten and written before the next is read, so one device's
// records are all it holds in memory.
func (l *shardLog) compact(p CompactionPolicy, all bool) (CompactionResult, error) {
	var res CompactionResult
	if p.CoarseTolerance != 0 { // a bad tolerance — negative, NaN — fails before any IO
		if _, err := newAgeCompressor(p.CoarseTolerance); err != nil {
			return res, fmt.Errorf("segmentlog: age compressor: %w", err)
		}
	}
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.Lock()
	if err := l.writableLocked(); err != nil {
		l.mu.Unlock()
		return res, err
	}
	// The selection: [lo, hi) of segs, tiers[t:] and the run after them.
	hi := len(l.segs) - 1
	lo, t := 0, len(l.tiers)
	for _, n := range l.tiers {
		lo += n
	}
	for held := segBytes(l.segs[lo:hi]); t > 0; t-- {
		older := segBytes(l.segs[lo-l.tiers[t-1] : lo])
		if !all && older > tierRatio*held {
			break
		}
		lo, held = lo-l.tiers[t-1], held+older
	}
	// The selected segments are immutable from here on — appends, rotation
	// and heal only touch the active entry and what follows it, compactMu
	// excludes other passes — so this one reads them, records included,
	// without the lock; and names through a snapshot: no entry is rewritten.
	sealed := l.segs[lo:hi:hi]
	names := l.names
	l.mu.Unlock()

	if len(sealed) == 0 {
		return res, nil
	}
	cutoff := ageCutoff(p)
	// Each device's selected records in append order — segment order, then
	// file order — as addresses into sealed, placed by a count and a fill:
	// device dev's are addrs[start[dev]:start[dev+1]].
	start := make([]int32, len(names)+1)
	for i := range sealed {
		for _, m := range sealed[i].recs {
			start[m.dev+1]++
		}
		res.RecordsIn += len(sealed[i].recs)
	}
	var devices []uint32
	for dev := range names {
		if start[dev+1] > 0 {
			devices = append(devices, uint32(dev))
		}
		start[dev+1] += start[dev]
	}
	addrs, next := make([]recordAddr, res.RecordsIn), slices.Clone(start)
	for i := range sealed {
		for pi, m := range sealed[i].recs {
			addrs[next[m.dev]] = recordAddr{seg: int32(i), pos: int32(pi)}
			next[m.dev]++
		}
	}
	res.SegmentsIn, res.BytesIn = len(sealed), segBytes(sealed)
	slices.SortFunc(devices, func(a, b uint32) int { return strings.Compare(names[a], names[b]) })
	// Open every selected file once; the loop reads through the handles by pread.
	files := &segReader{fs: l.fs}
	defer files.close()
	for i := range sealed {
		if err := files.open(i, &sealed[i], len(sealed)); err != nil {
			return res, fmt.Errorf("compact: %w", err)
		}
	}

	// Devices go out in name order (deterministic output); each keeps its
	// records' append order, the Query contract.
	cw := &compactWriter{l: l, names: names}
	marked := 0
	for _, dev := range devices {
		a := addrs[start[dev]:start[dev+1]]
		l.compactLive += len(a)
		l.compactLiveHWM = max(l.compactLiveHWM, l.compactLive)
		recs, m, err := compactDevice(&res, a, len(names[dev]), sealed, files, p, cutoff)
		for i := 0; err == nil && i < len(recs); i++ {
			err = cw.add(recs[i])
		}
		l.compactLive -= len(a)
		if err != nil {
			cw.discard()
			return res, err
		}
		marked += m
		res.RecordsOut += len(recs)
	}

	// Nothing changed at the record level: discard the (byte-identical)
	// output and skip the publish — no generation bump, no fsync storm — and
	// the selection is a tier from here on, which no tick reads again before
	// tierRatio says so. (RecordsIn == 0 still publishes, to drop the empty
	// files.)
	if res.Merged == 0 && res.Deduped == 0 && res.Aged == 0 && marked == 0 && res.RecordsIn > 0 {
		cw.discard()
		res.RecordsOut, res.SegmentsOut, res.BytesOut = res.RecordsIn, res.SegmentsIn, res.BytesIn
		l.tiers = append(l.tiers[:t], len(sealed))
		return res, nil
	}

	// Seal the output segments (unreferenced until the manifest rename
	// below).
	newSegs, err := cw.finish()
	if err != nil {
		return res, err
	}
	res.SegmentsOut, res.BytesOut = len(newSegs), segBytes(newSegs)
	// Publish: in one manifest generation the new segments take the
	// selection's place — what lies before and after it (more, if a rotation
	// sealed during the pass) stays as it is — and the index follows from lo.
	l.mu.Lock()
	prev := l.segs
	l.segs = slices.Concat(prev[:lo], newSegs, prev[hi:])
	if err := l.writeManifestLocked(); err != nil {
		l.segs = prev
		l.mu.Unlock()
		return res, err
	}
	res.Gen = l.gen
	// The superseded segments' cache entries are orphans from here on (no
	// record points at those paths); account what the pass wrote and freed.
	l.rewritten += res.BytesOut
	l.reclaimed += res.BytesIn - res.BytesOut
	l.reindexLocked(lo)
	l.mu.Unlock()
	l.tiers = append(l.tiers[:t], len(newSegs)) // the selection is one tier now

	// Delete the superseded segment files.
	// Failures (and crashes) here are benign: the files are unreferenced
	// and the next Open sweeps them.
	for _, sf := range sealed {
		if err := l.fs.Remove(sf.path); err != nil && !os.IsNotExist(err) {
			return res, fmt.Errorf("segmentlog: removing superseded %s: %w", sf.path, err)
		}
	}
	return res, syncDir(l.fs, l.dir)
}

// segBytes sums the on-disk sizes of segs.
func segBytes(segs []segmentFile) (n int64) {
	for i := range segs {
		n += segs[i].size
	}
	return n
}

// compactDevice reads one device's selected records — addrs, into sealed;
// its ID is devLen bytes — (pread through the indexed offsets, CRC
// re-verified; the walk that unpacks a record opens it), runs the pipeline
// on them and adds its merge, dedup and ageing counts to res. It returns the
// records to write and how many records' watermark alone moved. Every record
// was valid when Open indexed it, so anything that fails to validate now is
// bit rot — the pass must abort (leaving the old generation untouched)
// rather than drop the record and then delete its only copy.
func compactDevice(res *CompactionResult, addrs []recordAddr, devLen int, sealed []segmentFile, files *segReader, p CompactionPolicy, cutoff uint32) (recs []compactRecord, marked int, err error) {
	recs = make([]compactRecord, 0, len(addrs))
	for _, a := range addrs {
		m := &sealed[a.seg].recs[a.pos]
		_, tr, err := files.readTrail(refSnap{seg: int(a.seg), off: m.off, bodyLen: m.bodyLen})
		if err != nil {
			return nil, 0, fmt.Errorf("compact: %s: record at offset %d: %w (bit rot since open?)",
				filepath.Base(sealed[a.seg].path), m.off, err)
		}
		recs = append(recs, compactRecord{dev: m.dev, trail: tr})
	}
	var n int
	if p.MergeChunks {
		recs, n = mergeChunks(recs, devLen)
		res.Merged += n
	}
	recs, n = dedupContained(recs)
	res.Deduped += n
	if p.CoarseTolerance > 0 {
		aged := 0
		for i := range recs {
			tr := &recs[i].trail
			if tr.Bounds().T0 > cutoff || tr.Aged() >= tr.Bounds().T1 {
				continue // all too young or all aged
			}
			w := tr.Aged()
			dropped, err := ageTrail(tr, p.CoarseTolerance, cutoff)
			if err != nil {
				return nil, 0, err
			}
			if dropped {
				aged++
			} else if tr.Aged() != w {
				marked++
			}
		}
		res.Aged += aged
		if p.MergeChunks && aged+marked > 0 { // a record aged through its last key now takes the next chunk's aged keys
			recs, n = mergeChunks(recs, devLen)
			res.Merged += n
		}
	}
	return recs, marked, nil
}

// mergeChunks re-joins consecutive records that overlap by exactly one
// key point (the engine's chunking invariant: each chunk restarts from
// the previous chunk's last key) by joining their blocks — see Trail.Join.
// Merging stops at a body bound — the ID, its longest uvarint length, a
// trajstore.PackedBound — over the cap (≈ 466 000 keys).
func mergeChunks(recs []compactRecord, devLen int) (out []compactRecord, merged int) {
	out = recs[:0]
	for _, r := range recs {
		if len(out) > 0 {
			prev := &out[len(out)-1]
			if binary.MaxVarintLen16+devLen+trajstore.PackedBound(prev.trail.Len()+r.trail.Len()) <= MaxRecordBytes &&
				prev.trail.Join(&r.trail) {
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
		contained, filtered, rb := false, kept[:0], r.trail.Bounds()
		for _, k := range kept {
			switch kb := k.trail.Bounds(); {
			case !contained && kb.T0 <= rb.T0 && rb.T1 <= kb.T1 && k.trail.Contains(&r.trail):
				contained = true
				filtered = append(filtered, k)
			case rb.T0 <= kb.T0 && kb.T1 <= rb.T1 && r.trail.Contains(&k.trail):
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

// ageCutoff converts the policy's clock and MinAge to a uint32 seconds
// threshold: a record's leading keys at or before it qualify for ageing.
func ageCutoff(p CompactionPolicy) uint32 {
	now := time.Now
	if p.Now != nil {
		now = p.Now
	}
	return uint32(min(max(now().Unix()-int64(p.MinAge/time.Second), 0), math.MaxUint32))
}

// ageTrail ages, once, the keys of a record that its watermark has not
// aged and the cutoff has: FBQS at tol runs from the last aged key — the
// record's first if none is — as its anchor, over the keys up to the last
// at or before cutoff; the keys after them stay as they are, the record's
// last key among them, so chunks still chain. The watermark moves to the
// run's end even when the compressor drops nothing, so that a record the
// cutoff has passed is aged through its last key and the next chunk's aged
// keys can join it (Trail.Join). It reports whether the compressor dropped
// keys. PlaneKey puts PlanePoint(k) back on k's lattice integers, so every
// kept key keeps its wire bytes; every dropped key lies within tol of the
// aged polyline, the bound the compressor guarantees, and no pass ages it
// again.
func ageTrail(tr *trajstore.Trail, tol float64, cutoff uint32) (bool, error) {
	keys := tr.Keys()
	a, e, aged := 0, 0, uint32(0) // the run: the anchor and its last key; the watermark it leaves
	for w := tr.Aged(); w > 0 && a+1 < len(keys) && keys[a+1].T <= w; a++ {
	}
	for e = a; e+1 < len(keys) && keys[e+1].T <= cutoff; e++ {
	}
	if e == a {
		return false, nil // no key past the anchor is old enough
	}
	for _, k := range keys[:e+1] {
		aged = max(aged, k.T)
	}
	var kps []core.Point
	if e-a >= 2 {
		comp, err := newAgeCompressor(tol)
		if err != nil {
			return false, fmt.Errorf("segmentlog: age compressor: %w", err)
		}
		pts := make([]core.Point, e-a+1)
		for i, k := range keys[a : e+1] {
			pts[i] = trajstore.PlanePoint(k)
		}
		kps = stream.Compress(comp, pts)
	}
	dropped := len(kps) <= e-a && len(kps) >= 2 // some, and a polyline left
	if dropped {
		var out trajstore.Trail
		err := out.Add(keys[:a]...)
		for _, kp := range kps {
			err = cmp.Or(err, out.Add(trajstore.PlaneKey(kp)))
		}
		if err = cmp.Or(err, out.Add(keys[e+1:]...)); err != nil {
			return false, err
		}
		*tr = out
	}
	tr.SetAged(aged)
	return dropped, nil
}

// compactWriter packs a stream of records into fresh segment files
// (respecting the rotation threshold) and fsyncs each on seal. The
// files are unreferenced until the caller publishes a manifest naming
// them, so discard (or a crash) just leaves garbage the next Open
// sweeps.
type compactWriter struct {
	l     *shardLog
	names []string      // the pass's snapshot of shardLog.names
	segs  []segmentFile // the last one is open (f != nil) or sealed
	f     vfs.File
	off   int64
	buf   []byte
}

// closeCurrent seals the open output segment: fsync, close, summary.
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
	s.recs = slices.Clone(s.recs) // as a rotation seals, without append's spare room
	s.sum = sumOf(s.recs)
	return nil
}

// add frames and writes one record, rotating to a fresh segment file
// at the size threshold.
func (w *compactWriter) add(r compactRecord) (err error) {
	if w.buf, err = frameRecord(w.buf[:0], w.names[r.dev], &r.trail); err != nil {
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
		dev: r.dev, off: uint32(w.off + recordHeaderSize), bodyLen: uint32(len(w.buf) - recordHeaderSize), Bounds: r.trail.Bounds(),
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
	}
	w.segs = nil
}
