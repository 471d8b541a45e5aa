package bqs

import (
	"fmt"

	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// Durable persistence: the append-only, CRC-checksummed segment log
// (internal/trajstore/segmentlog) makes the ingestion engine restartable.
// Finalized session trajectories are appended Rice-coded, Engine.Sync is
// the durability barrier, and on reopen the log truncates any torn tail
// left by a crash and rebuilds its device/time index by scanning every
// segment's record headers. There is one log type — ShardedSegmentLog, a
// single shard being the n = 1 case — and one on-disk format it writes.

// Persister is the durability hook consumed by the engine: Append
// receives every finalized trajectory, Sync is the durability barrier.
type Persister = trajstore.Persister

// SegmentLogOptions parameterizes OpenShardedSegmentLog.
type SegmentLogOptions = segmentlog.Options

// SegmentLogRecord is one persisted trajectory, decoded.
type SegmentLogRecord = segmentlog.Record

// SegmentLogStats is a snapshot of a log's contents and of the counters
// only the log keeps: its read cache's (Cache), what its compactions wrote
// (Rewritten) and the disk they freed (Reclaimed). EngineStats relays none.
type SegmentLogStats = segmentlog.Stats

// LogWindowStats reports how a durable window query was answered: how
// much the segment summaries and per-record bounding boxes pruned, and
// how many records had to be decoded.
type LogWindowStats = segmentlog.WindowStats

// CompactionPolicy parameterizes segment-log compaction: MinAge and
// CoarseTolerance drive error-bounded ageing, MergeChunks re-joins the
// engine's chunked session records. See segmentlog.CompactionPolicy.
type CompactionPolicy = segmentlog.CompactionPolicy

// CompactionResult reports what one compaction pass did.
type CompactionResult = segmentlog.CompactionResult

// ErrLogLocked reports that another process holds a log directory's
// write lock.
var ErrLogLocked = segmentlog.ErrLocked

// ErrLogReadOnly reports a mutating operation on a read-only log.
var ErrLogReadOnly = segmentlog.ErrReadOnly

// ErrDegraded reports that an engine is in degraded read-only mode: a
// terminal persister failure (full disk, corrupt log) — or a transient
// one (I/O hiccup, timeout) that outlived the engine's short retry
// loop — means new fixes cannot be made durable, so Engine.Ingest (and
// the server's TryIngestTrail) reject them while queries keep answering;
// Ingest(nil) asks without sending a fix. Match with errors.Is; the
// error wraps the root cause. Engine.Heal — SIGHUP on a bqsd daemon —
// re-arms ingestion once the fault is cleared, re-appending the
// trajectories parked in memory meanwhile; Engine.State reports the
// phase, the cause and when it latched.
var ErrDegraded = engine.ErrDegraded

// ShardedSegmentLog is an open append-only trajectory log, fanned out
// over per-shard subdirectories that each hold a complete segment log
// under its own MANIFEST. It implements Persister, routes devices with
// the same hash the engine shards by — so engine workers append without
// cross-shard contention — answers device/time-range and window queries
// straight from disk, and compacts itself: Compact runs one
// merge/dedup/ageing pass over the sealed segments and atomically
// publishes the smaller generation while queries and appends proceed.
type ShardedSegmentLog = segmentlog.ShardedLog

// OpenShardedSegmentLog opens (creating if necessary) a segment log,
// recovering from any crash-torn tail. shards only matters for a
// directory that does not hold a log yet (≤ 0 means GOMAXPROCS; 1 is
// the unsharded case): an existing directory keeps the shard count
// persisted in its SHARDS file. Writable opens take the directory's
// exclusive lock; set SegmentLogOptions.ReadOnly to inspect a directory
// another process owns. A directory in the single-log layout older
// releases wrote (MANIFEST and segment files at the root, no SHARDS) is
// refused, not migrated. OpenDurableEngine opens its log through this.
func OpenShardedSegmentLog(dir string, shards int, opts SegmentLogOptions) (*ShardedSegmentLog, error) {
	return segmentlog.OpenSharded(dir, shards, opts)
}

// QueryLogWindow answers a spatio-temporal window query over a segment
// log: every record — across all devices, in log order within a shard
// and shard order across them — with at least
// one trajectory segment entering [minX, maxX] × [minY, maxY] (degrees:
// X longitude, Y latitude) during [t0, t1]. Per-segment summaries and
// per-record bounds, both held in memory since the open, prune the
// candidate set; candidates are decoded
// and tested exactly. Engine.QueryWindow is the metric-plane
// counterpart that additionally merges the open sessions' un-flushed
// trails.
func QueryLogWindow(lg *ShardedSegmentLog, minX, minY, maxX, maxY float64, t0, t1 uint32) ([]SegmentLogRecord, error) {
	return lg.QueryWindow(minX, minY, maxX, maxY, t0, t1)
}

// OpenDurableEngine opens a sharded segment log in dir and starts an
// ingestion engine persisting into it: every session ended by idle
// eviction or Close, or cut by FlushSessions, durably lands on disk, Sync
// is the durability barrier, and Close closes the log. The log is history's one home:
// Engine.QueryWindow answers from it plus the open sessions' trails, and
// resident memory is those trails plus the queues whatever the history's
// size. Any Persister already set in cfg is
// replaced. The log's shard count follows cfg.Shards for a fresh
// directory; reopening an existing one the persisted count is
// authoritative and cfg.Shards is overridden to match, so each engine
// worker always owns exactly one log shard.
func OpenDurableEngine(dir string, cfg EngineConfig) (*Engine, error) {
	return OpenDurableEngineWithLog(dir, SegmentLogOptions{}, cfg)
}

// OpenDurableEngineWithLog is OpenDurableEngine with explicit log
// options. With logOpts.Compaction set, Engine.CompactNow seals and compacts
// the whole log, and with its Every > 0 the log also compacts what changed
// periodically in the background, reclaiming disk while preserving the
// error bound.
func OpenDurableEngineWithLog(dir string, logOpts SegmentLogOptions, cfg EngineConfig) (*Engine, error) {
	lg, err := segmentlog.OpenSharded(dir, cfg.Shards, logOpts)
	if err != nil {
		return nil, fmt.Errorf("bqs: %w", err)
	}
	// The persisted shard count decides where every stored device lives,
	// so the engine must shard identically — the count wins over
	// cfg.Shards, and each engine worker binds to its own log shard.
	cfg.Shards = lg.NumShards()
	cfg.Persister = lg
	e, err := engine.New(cfg)
	if err != nil {
		_ = lg.Close() // engine construction failed; nothing was appended
		return nil, err
	}
	return e, nil
}
