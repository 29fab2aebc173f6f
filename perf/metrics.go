package main

// The benchmark's metric names. BENCHMARK.json at the repository root
// declares the same names, units and directions (perf_test.go holds the
// two equal); later issues cite these names verbatim, so they are final.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" | "higher"
}

// endToEnd is what a user of the node stack sees; an untraced run
// reports exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"spec_ms_p50", "ms", "lower"},
	{"commit_ms_p50", "ms", "lower"},
	{"cpu_ms_per_job", "ms", "lower"},
	{"retained_kb_per_job", "KiB", "lower"},
}

// perLayer is what a traced run reports: seam metrics from the
// decorators and counter deltas, then the workload-independent unit
// costs, then the budget that joins the two.
var perLayer = []metricDef{
	{"failed_share", "ratio", "lower"},
	// The tails: too few jobs stand beyond a p95 on the slow workloads
	// for it to hold a bound (perf/README.md, "Bounds").
	{"spec_ms_p95", "ms", "lower"},
	{"commit_ms_p95", "ms", "lower"},

	{"transport.msgs_per_job", "count", "lower"},
	{"transport.guess_per_job", "count", "lower"},
	{"transport.affirm_per_job", "count", "lower"},
	{"transport.deny_per_job", "count", "lower"},
	{"transport.replace_per_job", "count", "lower"},
	{"transport.rollback_per_job", "count", "lower"},
	{"transport.data_per_job", "count", "lower"},
	{"transport.dead_per_job", "count", "lower"},
	{"transport.send_us_p50", "us", "lower"},
	{"transport.send_us_p99", "us", "lower"},
	{"transport.handler_us_p50", "us", "lower"},
	{"transport.handler_us_p99", "us", "lower"},

	{"wire.frames_out_per_job", "count", "lower"},
	{"wire.bytes_out_per_job", "B", "lower"},
	{"wire.flushes_per_job", "count", "lower"},
	{"wire.frames_per_flush", "count", "higher"},
	{"wire.acks_per_job", "count", "lower"},
	{"wire.resends_per_job", "count", "lower"},
	{"wire.queue_full", "count", "lower"},
	{"wire.quiesce_ms_p50", "ms", "lower"},

	{"core.intervals_per_job", "count", "lower"},
	{"core.guess_to_finalize_ms_p50", "ms", "lower"},
	{"core.guess_to_finalize_ms_p95", "ms", "lower"},
	{"core.rollbacks_per_job", "count", "lower"},
	{"core.restarts_per_job", "count", "lower"},
	{"core.rollback_to_respec_ms_p50", "ms", "lower"},
	{"core.journal_len_p95", "count", "lower"},
	{"core.procs_per_job", "count", "lower"},
	{"core.violations", "count", "lower"},

	{"durable.persist_calls_per_job", "count", "lower"},
	{"durable.persist_us_per_job", "us", "lower"},
	{"durable.wirehook_calls_per_job", "count", "lower"},
	{"durable.wirehook_us_per_job", "us", "lower"},
	{"durable.barrier_calls_per_job", "count", "lower"},
	{"durable.barrier_ms_per_job", "ms", "lower"},

	{"wal.appends_per_job", "count", "lower"},
	{"wal.bytes_per_job", "B", "lower"},
	{"wal.syncs_per_job", "count", "lower"},
	{"wal.appends_per_sync", "count", "higher"},

	{"stability.advances_per_s", "1/s", "higher"},
	{"stability.release_lag_ms_p50", "ms", "lower"},
	{"stability.release_lag_ms_p95", "ms", "lower"},
	{"stability.tracker_calls_per_job", "count", "lower"},

	{"proc.allocs_per_job", "count", "lower"},
	{"proc.alloc_kb_per_job", "KiB", "lower"},
	{"proc.gc_pause_ms_per_s", "ms/s", "lower"},
	{"proc.goroutines_peak", "count", "lower"},
	{"proc.rss_peak_mb", "MiB", "lower"},

	// The host's speed against the quiet builder's (hostref.go): what the
	// end-to-end times were multiplied by, and what a per-layer time has
	// to be multiplied by to compare with them.
	{"host.speed", "ratio", "higher"},

	{"trace.overhead_pct", "%", "lower"},
	{"budget.accounted_share", "ratio", "higher"},
	{"budget.unaccounted_ms_per_job", "ms", "lower"},

	// Unit costs (micro.go).
	{"wire.encode_ctrl_ns", "ns", "lower"},
	{"wire.encode_data_ns", "ns", "lower"},
	{"wire.decode_ctrl_ns", "ns", "lower"},
	{"wire.decode_data_ns", "ns", "lower"},
	{"wire.encode_data_allocs", "count", "lower"},
	{"wire.decode_data_allocs", "count", "lower"},
	{"wire.loopback_rtt_us_p50", "us", "lower"},
	{"core.guess_us_lat0", "us", "lower"},
	{"core.guess_us_lat5ms", "us", "lower"},
	{"core.affirm_us_lat0", "us", "lower"},
	{"core.affirm_us_lat5ms", "us", "lower"},
	{"core.guess_us_p99_lat5ms", "us", "lower"},
	{"core.replay_us_per_entry_64", "us", "lower"},
	{"core.replay_us_per_entry_1024", "us", "lower"},
	{"aid.step_ns", "ns", "lower"},
	{"aid.export_encode_ns", "ns", "lower"},
	{"interval.apply_replace_ns", "ns", "lower"},
	{"journal.append_ns", "ns", "lower"},
	{"journal.truncate_ns", "ns", "lower"},
	{"mailbox.put_recv_ns", "ns", "lower"},
	{"mailbox.put_recv_contended_ns", "ns", "lower"},
	{"cluster.ring_owner_ns", "ns", "lower"},
	{"durable.journal_append_ns", "ns", "lower"},
	{"wal.append_none_ns", "ns", "lower"},
	{"wal.append_interval_ns", "ns", "lower"},
	{"wal.append_always_us_1", "us", "lower"},
	{"wal.append_always_us_8", "us", "lower"},
	{"stability.valid_cut_ns_3", "ns", "lower"},
	{"stability.valid_cut_ns_16", "ns", "lower"},
}

// metric is one reported value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders values for exactly the declared names; a name the run
// did not compute is a bug in the benchmark and is returned as missing.
func report(defs []metricDef, values map[string]float64) (out map[string]metric, missing []string) {
	out = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, missing
}
