package main

// metricDef is one row of BENCHMARK.json. The tables below are the
// single source of the metric names: the run emits exactly these, and a
// test holds BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median the metric may worsen by
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the gated metrics; every workload reports every one.
// A metric gates when its spread over ten seeds stayed inside its bound
// on every workload in every set of runs taken for this benchmark, the
// acceptance check's own two sets included; the sets, and the eleven of
// the issue's sixteen that did not, are in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"compression_rate", "ratio", lower, 0.05},
	{"max_dev_over_eps", "ratio", lower, 0.05},
	{"disk_bytes_per_fix", "B/fix", lower, 0.05},
	{"rss_peak_mib", "MiB", lower, 0.25},
}

// perLayer are the ungated layer metrics, grouped by package.
var perLayer = []metricDef{
	{"proto.parse_ns_per_fix", "ns/fix", lower, 0},
	{"proto.parse_ns_per_frame", "ns/frame", lower, 0},
	{"proto.encode_ns_per_fix", "ns/fix", lower, 0},
	{"proto.wire_bytes_per_fix", "B/fix", lower, 0},
	{"proto.parse_allocs_per_frame", "count", lower, 0},
	{"proto.resp_encode_ns_per_record", "ns/record", lower, 0},
	{"proto.resp_parse_ns_per_record", "ns/record", lower, 0},

	{"server.rejected_share", "ratio", lower, 0},
	{"server.retry_wait_share", "ratio", lower, 0},
	{"server.cpu_util", "ratio", lower, 0},
	{"server.queue_fullness_max", "ratio", lower, 0},
	{"server.io_write_bytes", "B", lower, 0},
	{"server.io_syscw", "count", lower, 0},
	{"server.cpu_ns_per_fix", "ns/fix", lower, 0},
	{"server.overhead_ns_per_fix", "ns/fix", lower, 0},
	{"server.gen_late_us_p99", "us", lower, 0},
	{"server.ack_miscounted_frames", "count", lower, 0},
	// Measured end to end on the daemon run, but demoted from the gate:
	// on the reference box their spread over seeds has exceeded the
	// contract's widest bound (README.md has the figures). Names kept so
	// issues can cite them.
	{"server.ingest_kfix_per_s", "kfix/s", higher, 0},
	{"server.server_cpu_s", "s", lower, 0},
	{"server.ack_ms_p50", "ms", lower, 0},
	{"server.ack_ms_p99", "ms", lower, 0},
	{"server.sync_ms_p50", "ms", lower, 0},
	{"server.query_sel_ms_p50", "ms", lower, 0},
	{"server.query_sel_ms_p99", "ms", lower, 0},
	{"server.query_dev_ms_p50", "ms", lower, 0},
	{"server.query_full_ms_p50", "ms", lower, 0},
	{"server.query_per_s", "1/s", higher, 0},
	{"server.restart_ms", "ms", lower, 0},

	{"engine.ingest_ns_per_fix", "ns/fix", lower, 0},
	{"engine.ingest_persist_ns_per_fix", "ns/fix", lower, 0},
	{"engine.overhead_ns_per_fix", "ns/fix", lower, 0},
	{"engine.sync_ms_p50", "ms", lower, 0},
	{"engine.flush_ms", "ms", lower, 0},
	{"engine.allocs_per_fix", "count", lower, 0},
	{"engine.bytes_per_session", "B", lower, 0},
	{"engine.query_window_us", "us", lower, 0},

	{"core.push_ns_per_fix", "ns/fix", lower, 0},
	{"core.push_exact_ns_per_fix", "ns/fix", lower, 0},
	{"core.keypoints_per_kfix", "count", lower, 0},
	{"core.max_dev_over_eps", "ratio", lower, 0},
	{"core.allocs_per_fix", "count", lower, 0},

	{"trajstore.insert_ns_per_key", "ns/key", lower, 0},
	{"trajstore.store_bytes_per_key", "B/key", lower, 0},
	{"trajstore.encode_ns_per_key", "ns/key", lower, 0},
	{"trajstore.decode_ns_per_key", "ns/key", lower, 0},
	{"trajstore.wire_bytes_per_key", "B/key", lower, 0},
	{"trajstore.merged_share", "ratio", higher, 0},

	{"segmentlog.append_ns_per_record", "ns/record", lower, 0},
	{"segmentlog.append_ns_per_key", "ns/key", lower, 0},
	{"segmentlog.sync_ms_p50", "ms", lower, 0},
	{"segmentlog.sync_ms_p99", "ms", lower, 0},
	{"segmentlog.rotations", "count", lower, 0},
	{"segmentlog.compact_s", "s", lower, 0},
	{"segmentlog.compact_mb_per_s", "MB/s", higher, 0},
	{"segmentlog.compact_bytes_ratio", "ratio", lower, 0},
	{"segmentlog.compact_merged", "count", higher, 0},
	{"segmentlog.open_ms", "ms", lower, 0},
	{"segmentlog.window_sel_cold_us", "us", lower, 0},
	{"segmentlog.window_sel_warm_us", "us", lower, 0},
	{"segmentlog.window_full_cold_us", "us", lower, 0},
	{"segmentlog.window_full_warm_us", "us", lower, 0},
	{"segmentlog.query_dev_us", "us", lower, 0},
	{"segmentlog.decode_fraction", "ratio", lower, 0},
	{"segmentlog.records_pruned_share", "ratio", higher, 0},
	{"segmentlog.segments_pruned_share", "ratio", higher, 0},
	{"segmentlog.disk_bytes_per_key", "B/key", lower, 0},
	{"segmentlog.write_amp", "ratio", lower, 0},

	{"vfs.writes", "count", lower, 0},
	{"vfs.write_bytes", "B", lower, 0},
	{"vfs.fsyncs", "count", lower, 0},
	{"vfs.fsyncs_per_sync", "count", lower, 0},
	{"vfs.fsync_ms_p50", "ms", lower, 0},
	{"vfs.fsync_time_share", "ratio", lower, 0},
	{"vfs.readats", "count", lower, 0},
	{"vfs.read_bytes", "B", lower, 0},
	{"vfs.renames", "count", lower, 0},
	{"vfs.opens", "count", lower, 0},

	{"cache.hit_ratio", "ratio", higher, 0},
	{"cache.evictions", "count", lower, 0},
	{"cache.resident_bytes", "B", lower, 0},
	{"cache.generations", "count", lower, 0},
	{"cache.get_ns", "ns", lower, 0},
	{"cache.put_ns", "ns", lower, 0},

	{"ledger.ingest.proto.parse", "ns/fix", lower, 0},
	{"ledger.ingest.engine.overhead", "ns/fix", lower, 0},
	{"ledger.ingest.core.push", "ns/fix", lower, 0},
	{"ledger.ingest.trajstore.insert", "ns/fix", lower, 0},
	{"ledger.ingest.trajstore.encode", "ns/fix", lower, 0},
	{"ledger.ingest.segmentlog.append", "ns/fix", lower, 0},
	{"ledger.ingest.segmentlog.sync", "ns/fix", lower, 0},
	{"ledger.ingest.segmentlog.compact", "ns/fix", lower, 0},
	{"ledger.ingest.vfs.write", "ns/fix", lower, 0},
	{"ledger.ingest.vfs.fsync", "ns/fix", lower, 0},
	{"ledger.ingest.vfs.rename", "ns/fix", lower, 0},
	{"ledger.ingest.vfs.readat", "ns/fix", lower, 0},
	{"ledger.ingest.vfs.open", "ns/fix", lower, 0},
	{"ledger.ingest.vfs.other", "ns/fix", lower, 0},
	{"ledger.query.segmentlog.window", "us/query", lower, 0},
	{"ledger.query.segmentlog.query_dev", "us/query", lower, 0},
	{"ledger.query.trajstore.decode", "us/query", lower, 0},
	{"ledger.query.proto.resp_encode", "us/query", lower, 0},
	{"ledger.query.vfs.readat", "us/query", lower, 0},
	{"ledger.query.vfs.open", "us/query", lower, 0},
	{"ledger.query.vfs.other", "us/query", lower, 0},
	{"ledger.assembled_ns_per_fix", "ns/fix", lower, 0},
	{"ledger.assembled_us_per_query", "us/query", lower, 0},
	{"ledger.share.proto", "ratio", lower, 0},
	{"ledger.share.engine", "ratio", lower, 0},
	{"ledger.share.core", "ratio", lower, 0},
	{"ledger.share.trajstore", "ratio", lower, 0},
	{"ledger.share.segmentlog", "ratio", lower, 0},
	{"ledger.share.vfs", "ratio", lower, 0},
	{"ledger.unattributed_share", "ratio", lower, 0},
	{"ledger.predictions_missed", "count", lower, 0},
	{"trace.overhead_share", "ratio", lower, 0},
}
