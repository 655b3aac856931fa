package main

// metricDef is one metric the harness emits. BENCHMARK.json carries the
// same lists; a test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system would see, measured by the
// untraced pass of every workload. maxBound is the widest bound the issue
// allows; a metric that cannot hold it belongs in perLayer.
const maxBound = 0.20

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.20},
	{"txn_per_s", "1/s", "higher", 0.20},
	{"txn_p50_ms", "ms", "lower", 0.20},
	{"txn_p99_ms", "ms", "lower", 0.20},
	{"cpu_ms_per_txn", "ms", "lower", 0.20},
	{"recovery_s", "s", "lower", 0.20},
	{"heap_mb", "MB", "lower", 0.10},
}

// perLayer are the metrics of single layers, measured by the traced run:
// counter deltas over the traced pass (C), direct drives of a layer's public
// functions (D), and spans around the harness's own calls (S).
var perLayer = []metricDef{
	{"failed_frac", "fraction", "lower", 0},

	{"hostdb.exec_us", "us", "lower", 0},
	{"hostdb.query_us", "us", "lower", 0},
	{"hostdb.commit_us", "us", "lower", 0},
	{"hostdb.insert_txn_us", "us", "lower", 0},
	{"hostdb.update_txn_us", "us", "lower", 0},
	{"hostdb.delete_txn_us", "us", "lower", 0},
	{"hostdb.read_txn_us", "us", "lower", 0},
	{"hostdb.txn_p999_ms", "ms", "lower", 0},
	{"hostdb.txn_max_ms", "ms", "lower", 0},
	{"hostdb.allocs_per_txn", "count", "lower", 0},
	{"hostdb.alloc_kb_per_txn", "KB", "lower", 0},
	{"hostdb.onephase_per_txn", "count", "higher", 0},
	{"hostdb.readonly_votes_per_txn", "count", "higher", 0},
	{"hostdb.paxos_commits_per_txn", "count", "lower", 0},
	{"hostdb.self_us_per_txn", "us", "lower", 0},

	{"rpc.roundtrip_us", "us", "lower", 0},
	{"rpc.allocs_per_call", "count", "lower", 0},
	{"rpc.msgs_per_txn", "count", "lower", 0},
	{"rpc.bytes_per_txn", "B", "lower", 0},
	{"rpc.self_us_per_txn", "us", "lower", 0},

	{"core.link_txn_us", "us", "lower", 0},
	{"core.unlink_txn_us", "us", "lower", 0},
	{"core.allocs_per_link_txn", "count", "lower", 0},
	{"core.links_per_txn", "count", "lower", 0},
	{"core.unlinks_per_txn", "count", "lower", 0},
	{"core.prepares_per_txn", "count", "lower", 0},
	{"core.phase2_retries_per_ktxn", "count", "lower", 0},
	{"core.backouts_per_ktxn", "count", "lower", 0},
	{"core.self_us_per_txn", "us", "lower", 0},

	{"engine.insert_us", "us", "lower", 0},
	{"engine.lookup_us", "us", "lower", 0},
	{"engine.update_us", "us", "lower", 0},
	{"engine.delete_us", "us", "lower", 0},
	{"engine.host_stmts_per_txn", "count", "lower", 0},
	{"engine.dlfm_stmts_per_txn", "count", "lower", 0},
	{"engine.rows_read_per_txn", "count", "lower", 0},
	{"engine.tablescans_per_ktxn", "count", "lower", 0},
	{"engine.local_commits_per_txn", "count", "lower", 0},

	{"sql.parse_us", "us", "lower", 0},
	{"value.row_codec_ns", "ns", "lower", 0},

	{"lock.acquire_release_ns", "ns", "lower", 0},
	{"lock.acquires_per_txn", "count", "lower", 0},
	{"lock.waits_per_ktxn", "count", "lower", 0},
	{"lock.deadlocks_per_ktxn", "count", "lower", 0},
	{"lock.timeouts_per_ktxn", "count", "lower", 0},

	{"wal.append_ns", "ns", "lower", 0},
	{"wal.sync_us", "us", "lower", 0},
	{"wal.appends_per_txn", "count", "lower", 0},
	{"wal.bytes_per_txn", "B", "lower", 0},
	{"wal.syncs_per_txn", "count", "lower", 0},

	{"storage.fetch_hit_ns", "ns", "lower", 0},
	{"storage.fetch_miss_us", "us", "lower", 0},
	{"storage.pool_hit_frac", "fraction", "higher", 0},
	{"storage.evictions_per_txn", "count", "lower", 0},
	{"storage.page_reads_per_txn", "count", "lower", 0},
	{"storage.page_writes_per_txn", "count", "lower", 0},
	{"storage.checkpoint_ms", "ms", "lower", 0},
	{"storage.disk_bytes_per_row", "B", "lower", 0},
	{"storage.replayed_records", "count", "lower", 0},

	{"paxoscommit.commit_us", "us", "lower", 0},
	{"paxoscommit.accepts_per_txn", "count", "lower", 0},
	{"cluster.route_ns", "ns", "lower", 0},
	{"cluster.members_per_txn", "count", "lower", 0},

	{"obs.emit_ns", "ns", "lower", 0},
	{"obs.span_ns", "ns", "lower", 0},
	{"obs.events_per_txn", "count", "lower", 0},
	{"obs.spans_per_txn", "count", "lower", 0},

	{"bench.trace_overhead_frac", "fraction", "lower", 0},
	{"bench.ledger_coverage_frac", "fraction", "higher", 0},
}

// measured is one metric's value in one run. n is the sample count behind
// it; na marks a metric that does not apply to the workload (its layer does
// no work there) — such a metric is emitted as 0.
type measured struct {
	value float64
	n     int
	na    bool
}

// measurements maps metric name to its value in one run.
type measurements map[string]measured

func (m measurements) set(name string, value float64, n int) { m[name] = measured{value: value, n: n} }

// per sets name to total ÷ txns.
func (m measurements) per(name string, total float64, txns int) {
	m.set(name, total/float64(max(txns, 1)), txns)
}
