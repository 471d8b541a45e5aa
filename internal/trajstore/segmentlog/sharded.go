package segmentlog

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// A ShardedLog is an open segment log — the one log type of this
// package and the trajstore.Backend the ingestion engine persists into.
// It fans one logical log out over N independent shard logs (N = 1 for
// the single case), each in its own subdirectory with its own MANIFEST,
// and segment files. Devices are routed by
// trajstore.ShardIndex — the same function the ingestion engine uses —
// so when engine and log shard counts agree, each engine shard appends
// into a log shard no other worker touches: appends, flushes, Syncs and
// compactions of different shards share no lock and no file.
//
// On-disk layout:
//
//	dir/SHARDS      CRC-sealed shard count; publishing it is the commit
//	                point of the root's creation
//	dir/LOCK        the writer flock — the only lock in the tree
//	dir/shard-000/  a complete, self-contained segment log
//	dir/shard-001/  ...
//
// Each shard directory carries its own MANIFEST generations and
// crash-at-every-step compaction recovery. The shard count is fixed at
// creation (it determines where every already-persisted device lives)
// and persisted in SHARDS; later opens use the persisted count
// regardless of what the caller asks for. Shard directories without a
// SHARDS file are debris of a creation that crashed before its commit
// point and are rebuilt from scratch.
//
// A root that holds single-log files (MANIFEST, seg-*.log) and no
// SHARDS — the layout that predates sharding — is refused with
// ErrCorrupt: never migrated, never swept, never treated as empty.
type ShardedLog struct {
	dir          string
	lock         vfs.File
	shards       []*shardLog
	compaction   *CompactionPolicy     // Options.Compaction: CompactNow's and the ticker's policy
	stopTick     chan struct{}         // how Close stops the ticker; nil without one
	compactFails atomic.Uint64         // failed passes: Stats.CompactFailures
	compactErr   atomic.Pointer[error] // the last pass's error, which Close returns
	// cache is the read-side record cache shared by every shard log
	// (nil when Options.CacheBytes is zero): one byte budget for the
	// whole tree, instead of N independent budgets that would let a
	// hot shard starve while cold shards hold empty reserves.
	cache *recordCache

	// closed is set when Close begins; live consults it so every
	// operation after Close reports ErrClosed.
	closed    atomic.Bool
	closeOnce sync.Once
}

// Compile-time proof: were a method to drift, the engine would silently
// fall back to using the log append-only.
var _ trajstore.Backend = (*ShardedLog)(nil)

const (
	shardsName  = "SHARDS"
	shardsMagic = "BQSSHARDS 1"

	// MaxShards bounds the SHARDS count accepted on open; a corrupt or
	// hostile count must not make Open allocate unbounded directories.
	MaxShards = 1024
)

// shardDirName returns the subdirectory name of shard i.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// formatShards renders the SHARDS file: magic, count, and a CRC-32C
// sealing both — the same self-validation idiom as the MANIFEST.
func formatShards(n int) []byte {
	return sealText(fmt.Appendf(nil, "%s\nshards %d\n", shardsMagic, n))
}

// parseShards decodes and validates a SHARDS file.
func parseShards(data []byte) (int, error) {
	covered, err := unsealText("SHARDS", data)
	if err != nil {
		return 0, err
	}
	lines := strings.Split(string(covered), "\n")
	if len(lines) != 3 || lines[0] != shardsMagic || lines[2] != "" {
		return 0, fmt.Errorf("%w: SHARDS: bad layout", ErrCorrupt)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(lines[1], "shards "))
	if err != nil || !strings.HasPrefix(lines[1], "shards ") {
		return 0, fmt.Errorf("%w: SHARDS: bad shards line %q", ErrCorrupt, lines[1])
	}
	if n < 1 || n > MaxShards {
		return 0, fmt.Errorf("%w: SHARDS: count %d out of range [1, %d]", ErrCorrupt, n, MaxShards)
	}
	return n, nil
}

// readShards reads dir's SHARDS file; found is false when none exists.
func readShards(fsys vfs.FS, dir string) (n int, found bool, err error) {
	data, err := fsys.ReadFile(filepath.Join(dir, shardsName))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("segmentlog: %w", err)
	}
	n, err = parseShards(data)
	return n, true, err
}

// writeShards atomically publishes dir's SHARDS file (publishFile): the
// commit point of a root's creation.
func writeShards(fsys vfs.FS, dir string, n int) error {
	return publishFile(fsys, "SHARDS", dir, shardsName, formatShards(n))
}

// OpenSharded opens (creating if necessary) the segment log rooted at
// dir. shards is the shard count for a directory that does not hold one
// yet (≤ 0 means GOMAXPROCS); a directory that does — SHARDS exists —
// keeps its persisted count, since it determines where every
// already-stored device lives. Writable opens take the root's exclusive
// LOCK (ErrLocked when another process holds it) and start the periodic
// passes; read-only ones create, lock and tick nothing, and need a log.
func OpenSharded(dir string, shards int, opts Options) (*ShardedLog, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > MaxShards {
		return nil, fmt.Errorf("segmentlog: shard count %d exceeds MaxShards %d", shards, MaxShards)
	}
	if p := opts.Compaction; p != nil && p.Every < 0 {
		return nil, fmt.Errorf("segmentlog: CompactionPolicy.Every %v is negative", p.Every)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	opts.cache = newRecordCache(opts.CacheBytes)
	s := &ShardedLog{dir: dir, compaction: opts.Compaction, cache: opts.cache}
	// Refuse before anything is created or locked, so a refused
	// directory is left byte-for-byte untouched.
	if err := refuseSingleLog(fsys, dir); err != nil {
		return nil, err
	}
	if opts.ReadOnly {
		n, found, err := readShards(fsys, dir)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("segmentlog: %s holds no segment log (no SHARDS file)", dir)
		}
		return s, s.openShards(n, opts)
	}

	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segmentlog: %w", err)
	}
	lock, err := acquireLock(fsys, dir)
	if err != nil {
		return nil, err
	}
	s.lock = lock
	ok := false
	defer func() {
		if !ok {
			s.releaseLock()
		}
	}()

	n, found, err := readShards(fsys, dir)
	if err != nil {
		return nil, err
	}
	if !found {
		n = shards
		// Shard directories without a SHARDS file are debris of a
		// creation that crashed before its commit point: rebuild from
		// scratch.
		if err := removeShardDirs(fsys, dir); err != nil {
			return nil, err
		}
	}
	if err := s.openShards(n, opts); err != nil {
		return nil, err
	}
	if !found {
		if err := writeShards(fsys, dir, n); err != nil {
			s.closeShards()
			return nil, err
		}
	}
	ok = true
	if p := s.compaction; p != nil && p.Every > 0 {
		s.stopTick = make(chan struct{})
		go func() { // Close's stop is heard between passes
			for t := time.NewTicker(p.Every); ; {
				select {
				case <-t.C:
					_ = s.pass(false) // counted, and returned by Close while it stands
				case <-s.stopTick:
					t.Stop()
					return
				}
			}
		}()
	}
	return s, nil
}

// openShards opens the n shard logs.
func (s *ShardedLog) openShards(n int, opts Options) error {
	s.shards = make([]*shardLog, 0, n)
	for i := 0; i < n; i++ {
		lg, err := openShardLog(filepath.Join(s.dir, shardDirName(i)), opts)
		if err != nil {
			s.closeShards()
			return fmt.Errorf("segmentlog: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, lg)
	}
	return nil
}

// closeShards closes whatever shards are open, ignoring errors; used on
// failed-open unwind paths.
func (s *ShardedLog) closeShards() {
	for _, lg := range s.shards {
		_ = lg.Close() // unwind of a failed open; the open error is the story
	}
	s.shards = nil
}

// refuseSingleLog rejects a root in the single-log layout: a MANIFEST
// or segment files directly in dir and no SHARDS beside them. Such a
// root was written before logs were sharded; this package neither reads
// nor migrates it, and must not mistake it for an empty directory.
func refuseSingleLog(fsys vfs.FS, dir string) error {
	exists := func(name string) (bool, error) {
		if _, err := fsys.Stat(filepath.Join(dir, name)); err == nil {
			return true, nil
		} else if !errors.Is(err, fs.ErrNotExist) {
			return false, fmt.Errorf("segmentlog: %w", err)
		}
		return false, nil
	}
	if sharded, err := exists(shardsName); err != nil || sharded {
		return err
	}
	single, err := exists(manifestName)
	if err != nil {
		return err
	}
	if !single {
		segs, err := fsys.Glob(filepath.Join(dir, "seg-*.log"))
		if err != nil {
			return fmt.Errorf("segmentlog: %w", err)
		}
		single = len(segs) > 0
	}
	if single {
		return fmt.Errorf("%w: %s is in the single-log layout (MANIFEST/seg-*.log at the root, no SHARDS), which is no longer read; migrate it with the last release that did (see DESIGN.md)", ErrCorrupt, dir)
	}
	return nil
}

// removeShardDirs deletes every shard-* subdirectory of dir.
func removeShardDirs(fsys vfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("segmentlog: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			if err := fsys.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("segmentlog: removing stale %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// releaseLock drops the top-level directory lock; a no-op in read-only
// mode or after release.
func (s *ShardedLog) releaseLock() {
	if s.lock == nil {
		return
	}
	syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
	_ = s.lock.Close() // the unlock above is what matters; nothing was written
	s.lock = nil
}

// each runs f on every shard concurrently and joins the errors.
func (s *ShardedLog) each(f func(i int, lg *shardLog) error) error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, lg := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i, lg)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// live reports ErrClosed once Close has begun — the one place every
// operation learns the log is closed. An operation that passes it and
// then races Close is caught by the shard log's own check.
func (s *ShardedLog) live() error {
	if s.closed.Load() {
		return ErrClosed
	}
	return nil
}

// NumShards returns the shard count.
func (s *ShardedLog) NumShards() int { return len(s.shards) }

// shardFor routes a device to its shard.
func (s *ShardedLog) shardFor(device string) *shardLog {
	return s.shards[trajstore.ShardIndex(device, len(s.shards))]
}

// Append persists one finalized trajectory: it builds the keys' block and
// hands it to AppendTrail.
func (s *ShardedLog) Append(device string, keys []trajstore.GeoKey) error {
	var tr trajstore.Trail
	if err := tr.Add(keys...); err != nil {
		return fmt.Errorf("segmentlog: %w", err)
	}
	return s.AppendTrail(device, &tr)
}

// AppendTrail persists one finalized trajectory, already built as its
// block (trajstore.Backend), into the device's shard: the log only frames
// it. The record is buffered in the process and durable after the next
// Sync; empty trajectories are ignored. An error means the record was NOT
// accepted, so callers may retry or re-route it without creating
// duplicates (see shardLog.AppendTrail for the failure contract).
func (s *ShardedLog) AppendTrail(device string, tr *trajstore.Trail) error {
	if err := s.live(); err != nil {
		return err
	}
	return s.shardFor(device).AppendTrail(device, tr)
}

// Sync is the durability barrier across all shards — every Append that
// returned before Sync was called is durable once Sync returns; the
// per-shard fsyncs run concurrently.
func (s *ShardedLog) Sync() error {
	if err := s.live(); err != nil {
		return err
	}
	return s.each(func(_ int, lg *shardLog) error { return lg.Sync() })
}

// Close stops the periodic passes, syncs and closes every shard, then
// releases the top-level lock — strictly last, so no other writer can enter
// the tree while any shard still has buffered or in-flight state. Each
// shard's Close serializes behind that shard's running compaction, so a
// concurrent CompactNow finishes or aborts cleanly first; a failed pass no
// later one cleared is returned. Further operations return ErrClosed;
// Close itself is idempotent — a repeated call waits for the first to
// finish and returns nil.
func (s *ShardedLog) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.stopTick != nil {
			s.stopTick <- struct{}{}
		}
		s.closed.Store(true)
		err = s.each(func(_ int, lg *shardLog) error { return lg.Close() })
		s.releaseLock()
		if p := s.compactErr.Load(); p != nil && *p != nil {
			err = errors.Join(err, fmt.Errorf("segmentlog: last compaction pass: %w", *p))
		}
	})
	return err
}

// DeviceBlocks visits, in append order, the records of device whose time
// bounds overlap [t0, t1], as the Blocks the log stores (trajstore.Backend):
// read back from disk (or the read cache), CRC-verified and walked, not
// decoded. A read racing a concurrent compaction serves the generation it
// started in; an error from visit ends the read and is returned.
func (s *ShardedLog) DeviceBlocks(device string, t0, t1 uint32, visit func(Block) error) error {
	if err := s.live(); err != nil {
		return err
	}
	return s.shardFor(device).deviceBlocks(device, t0, t1, visit)
}

// Query is DeviceBlocks decoded: each record with Keys of its own.
func (s *ShardedLog) Query(device string, t0, t1 uint32) (recs []Record, err error) {
	if err = s.DeviceBlocks(device, t0, t1, decodeInto(&recs)); err != nil {
		return nil, err
	}
	return recs, nil
}

// DeviceSpan returns the record count and overall time bounds indexed
// for a device; ok is false for an unknown device.
func (s *ShardedLog) DeviceSpan(device string) (records int, t0, t1 uint32, ok bool) {
	return s.shardFor(device).DeviceSpan(device)
}

// Devices returns the device IDs across all shards, sorted. Routing
// assigns each device to exactly one shard, so the union is disjoint.
func (s *ShardedLog) Devices() []string {
	var out []string
	for _, lg := range s.shards {
		out = append(out, lg.Devices()...)
	}
	sort.Strings(out)
	return out
}

// Stats sums the per-shard bookkeeping. Devices is exact (each device
// lives in exactly one shard); Gen is the sum of the shard generations,
// so it is monotonic and moves iff some shard published; Cache and
// CompactFailures are the log's. It does no I/O and stays callable after Close.
func (s *ShardedLog) Stats() Stats {
	out := Stats{Cache: s.cache.Stats(), CompactFailures: s.compactFails.Load()}
	for _, lg := range s.shards {
		st := lg.Stats()
		out.Segments += st.Segments
		out.Records += st.Records
		out.Devices += st.Devices
		out.Bytes += st.Bytes
		out.Truncated += st.Truncated
		out.Unsynced += st.Unsynced
		out.Gen += st.Gen
		out.Rewritten += st.Rewritten
		out.Reclaimed += st.Reclaimed
	}
	return out
}

// WindowBlocks visits, as stored Blocks, every record with at least one
// consecutive key-point pair whose bounding box intersects [minX, maxX] ×
// [minY, maxY] (degrees: X longitude, Y latitude) and whose time span
// overlaps [t0, t1] (trajstore.Backend). Shards are read one after the
// other, each in log order (there is no global order), and nothing is held
// back: a visitor that copies blocks out keeps the read's memory at one
// record, one that returns an error ends it there. The window goes on the
// wire's integer lattice, where record headers, segment summaries and stored
// keys live: pruning (Meets) and the exact test (trajstore.Enters) compare
// integers.
func (s *ShardedLog) WindowBlocks(minX, minY, maxX, maxY float64, t0, t1 uint32, visit func(Block) error) error {
	return s.windowBlocks(minX, minY, maxX, maxY, t0, t1, new(WindowStats), visit)
}

// windowBlocks is WindowBlocks adding the read's pruning statistics to ws.
func (s *ShardedLog) windowBlocks(minX, minY, maxX, maxY float64, t0, t1 uint32, ws *WindowStats, visit func(Block) error) error {
	w, err := trajstore.LatticeWindow(minX, minY, maxX, maxY, t0, t1)
	if err == nil {
		err = s.live()
	}
	for i := 0; err == nil && i < len(s.shards); i++ {
		err = s.shards[i].windowBlocks(&w, ws, visit)
	}
	return err
}

// QueryWindow is WindowBlocks decoded: each record with Keys of its own,
// concatenated in shard order.
func (s *ShardedLog) QueryWindow(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]Record, error) {
	recs, _, err := s.QueryWindowStats(minX, minY, maxX, maxY, t0, t1)
	return recs, err
}

// QueryWindowStats is QueryWindow plus the read's statistics.
func (s *ShardedLog) QueryWindowStats(minX, minY, maxX, maxY float64, t0, t1 uint32) (recs []Record, ws WindowStats, err error) {
	if err = s.windowBlocks(minX, minY, maxX, maxY, t0, t1, &ws, decodeInto(&recs)); err != nil {
		return nil, ws, err
	}
	return recs, ws, nil
}

// Compact runs an explicit pass on every shard: everything sealed — all but
// the active segments; Seal first to reach those — goes through the
// merge/dedup/ageing pipeline and each result is atomically published as a
// new manifest generation; appends and queries proceed concurrently (see
// compact.go). The results are summed: Gen is the sum of the generations
// the shards published (0 iff no shard rewrote anything).
func (s *ShardedLog) Compact(p CompactionPolicy) (CompactionResult, error) {
	return s.compact(p, true)
}

// Seal rotates every shard's non-empty active segment out (shardLog.seal):
// what a drain does before its last pass, so that the log it leaves at rest
// holds no chunk the pass could not reach.
func (s *ShardedLog) Seal() error {
	return s.each(func(_ int, lg *shardLog) error { return lg.seal() })
}

// compact is Compact, or with all false a periodic pass over what changed
// (shardLog.compact). The shards run concurrently and split GOMAXPROCS
// workers between them, but none gets fewer than two: with one a pass cannot
// read the next device while its writer frames the last, which measured
// slower and, on fleet-cutheavy, 5 MiB more resident.
func (s *ShardedLog) compact(p CompactionPolicy, all bool) (CompactionResult, error) {
	if err := s.live(); err != nil {
		return CompactionResult{}, err
	}
	workers := max(2, runtime.GOMAXPROCS(0)/len(s.shards))
	results := make([]CompactionResult, len(s.shards))
	err := s.each(func(i int, lg *shardLog) (err error) {
		results[i], err = lg.compact(p, all, workers)
		return err
	})
	var out CompactionResult
	for _, r := range results {
		out.SegmentsIn += r.SegmentsIn
		out.SegmentsOut += r.SegmentsOut
		out.RecordsIn += r.RecordsIn
		out.RecordsOut += r.RecordsOut
		out.BytesIn += r.BytesIn
		out.BytesOut += r.BytesOut
		out.Merged += r.Merged
		out.Deduped += r.Deduped
		out.Aged += r.Aged
		out.Gen += r.Gen
	}
	return out, err
}

// CompactNow runs the drain's pass with the policy in Options.Compaction —
// Seal, then Compact; a no-op without one (trajstore.Backend).
func (s *ShardedLog) CompactNow() error { return s.pass(true) }

// pass runs a pass with the configured policy, periodic or (all) the
// drain's. A failure, which leaves every durable record as it was, is
// counted and stands — Close returns it — until a later pass succeeds.
func (s *ShardedLog) pass(all bool) error {
	err := s.live()
	if s.compaction == nil || err != nil {
		return err
	}
	if all {
		err = s.Seal()
	}
	if err == nil {
		_, err = s.compact(*s.compaction, all)
	}
	if err != nil {
		s.compactFails.Add(1)
	}
	s.compactErr.Store(&err)
	return err
}
