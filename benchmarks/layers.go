package main

// layerMetric declares one per-layer metric: BENCHMARK.json lists the same
// names, units and directions (manifest_test.go keeps the two in step). A
// traced run prints every one of them; a metric whose layer the workload
// does not use, or whose probe belongs to another workload, reads 0.
type layerMetric struct {
	name, unit, better string
}

var layerMetrics = []layerMetric{
	// internal/core on reopt-storm: the paper's Figure 5/8 axes per repair.
	{"core.repair_us_p50", "us", "lower"},
	{"core.repair_us_p99", "us", "lower"},
	{"core.touched_entries_per_repair", "count", "lower"},
	{"core.cost_recomputations_per_repair", "count", "lower"},
	{"core.suppressions_per_repair", "count", "lower"},
	{"core.revivals_per_repair", "count", "lower"},
	{"core.volcano_over_repair.Q5", "ratio", "higher"},
	// internal/core from scratch (reopt-storm and serve-adhoc).
	{"core.fullopt_ms.Q5", "ms", "lower"},
	{"core.fullopt_ms.Q10", "ms", "lower"},
	{"core.fullopt_ms.Q8Join", "ms", "lower"},
	{"core.alive_groups.Q5", "count", "lower"},
	{"core.optimize_us", "us", "lower"},
	// The front half of a cache miss (serve-adhoc).
	{"sqlmini.parse_us", "us", "lower"},
	{"relalg.fingerprint_us", "us", "lower"},
	{"cost.model_build_us", "us", "lower"},
	{"fbstore.warm_seeds", "count", "higher"},
	// internal/server: counters are per round.
	{"server.prepare_hit_us", "us", "lower"},
	{"server.prepare_miss_us", "us", "lower"},
	{"server.exec_overhead_us", "us", "lower"},
	{"server.wire_overhead_us", "us", "lower"},
	{"server.queue_wait_p99_ms", "ms", "lower"},
	{"server.execs", "count", "higher"},
	{"server.plan_hits", "count", "higher"},
	{"server.plan_misses", "count", "lower"},
	{"server.evictions", "count", "lower"},
	{"server.fullopts", "count", "lower"},
	{"server.repairs", "count", "lower"},
	{"server.repair_ms_total", "ms", "lower"},
	// internal/exec alone (serve-hot's data).
	{"exec.compile_us.Q5", "us", "lower"},
	{"exec.run_ms.Q1", "ms", "lower"},
	{"exec.run_ms.Q3S", "ms", "lower"},
	{"exec.run_ms.Q5", "ms", "lower"},
	{"exec.run_ms.Q10", "ms", "lower"},
	{"exec.rows_per_s.Q1", "1/s", "higher"},
	{"exec.allocs_per_op.Q5", "count", "lower"},
	{"exec.peak_tracked_mb_p99", "MB", "lower"},
	// internal/aqp and the window tables (stream-adapt), per round.
	{"aqp.exec_ms_per_round", "ms", "lower"},
	{"aqp.reopt_ms_per_round", "ms", "lower"},
	{"aqp.repairs_per_round", "count", "lower"},
	{"aqp.touched_per_round", "count", "lower"},
	{"aqp.fullreopt_ms_per_round", "ms", "lower"},
	{"catalog.window_materialize_ms_per_round", "ms", "lower"},
	// internal/storage and catalog (serve-hot).
	{"storage.seed_flush_ms", "ms", "lower"},
	{"storage.open_ms", "ms", "lower"},
	{"catalog.analyze_ms", "ms", "lower"},
	{"storage.scan_rows_per_s", "1/s", "higher"},
	{"storage.segscan_pruned_ratio", "ratio", "higher"},
	{"storage.append_us_per_row", "us", "lower"},
	{"storage.disk_bytes_per_data_byte", "ratio", "lower"},
	// internal/rescache (serve-adhoc; must stay zero on serve-hot).
	{"rescache.hit_ratio", "ratio", "higher"},
	{"rescache.evictions", "count", "lower"},
	{"rescache.bytes", "count", "lower"},
	// Each layer's share of the self time recorded inside traced ops.
	{"layer.core_pct", "%", "lower"},
	{"layer.exec_pct", "%", "lower"},
	{"layer.aqp_pct", "%", "lower"},
	{"layer.catalog_pct", "%", "lower"},
	{"layer.linearroad_pct", "%", "lower"},
	{"layer.server_pct", "%", "lower"},
	{"layer.sqlmini_pct", "%", "lower"},
	{"layer.relalg_pct", "%", "lower"},
	{"layer.cost_pct", "%", "lower"},
	{"layer.fbstore_pct", "%", "lower"},
	// The driver's own health.
	{"driver.raw_p99_ms", "ms", "lower"},
	{"driver.round_ms_iqr_pct", "%", "lower"},
	{"driver.trace_overhead_pct", "%", "lower"},
	{"driver.gc_cycles_per_round", "count", "lower"},
	{"driver.alloc_mb_per_round", "MB", "lower"},
	{"driver.peak_rss_mb", "MB", "lower"},
	{"driver.calib_mops", "1/s", "higher"},
}

// exactCounts are the per-layer metrics that are counts of work, not times:
// at a fixed seed they repeat exactly from run to run, and the A/A mode
// asserts that they do. A change may be judged on one of these only as a
// count, never as a speed-up.
var exactCounts = []string{
	"core.touched_entries_per_repair",
	"core.cost_recomputations_per_repair",
	"core.suppressions_per_repair",
	"core.revivals_per_repair",
	"core.alive_groups.Q5",
	"fbstore.warm_seeds",
	"server.execs",
	"server.plan_misses",
	"server.evictions",
	"server.fullopts",
	"aqp.repairs_per_round",
	"aqp.touched_per_round",
	"storage.segscan_pruned_ratio",
	"storage.disk_bytes_per_data_byte",
	"rescache.hit_ratio",
	"rescache.evictions",
}
