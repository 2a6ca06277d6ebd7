package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/obs"
)

// DebugHandler returns the server's observability endpoints, intended for a
// private listener (reproserve -http):
//
//	GET /metrics       Prometheus text exposition: every Metrics counter,
//	                   the latency/queue-wait/repair histograms with
//	                   p50/p95/p99 gauges, and per-entry gauges labeled by
//	                   entry digest.
//	GET /metrics.json  the Metrics snapshot as JSON.
//	GET /traces        recent lifecycle events and slow-query dumps, text.
//	/debug/pprof/*     the standard Go profiling endpoints.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Metrics())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		events, slow, err := s.traces(func(l string) { fmt.Fprintln(w, l) })
		if err != nil {
			fmt.Fprintln(w, err)
			return
		}
		fmt.Fprintf(w, "events=%d slow=%d\n", events, slow)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// traces renders the lifecycle event ring, then each retained slow-query
// dump under a "--- slow trace N ---" header, one line per call of line —
// the content of both /traces and the protocol's "trace" command. It
// returns how many events and dumps it rendered, and an error when neither
// the event ring nor slow-query dumps are enabled.
func (s *Server) traces(line func(string)) (events, slow int, err error) {
	if !s.trace.Enabled() && s.slow == nil {
		return 0, 0, errors.New("tracing disabled (set Options.TraceEvents or TraceSlowQuery / reproserve -trace-events or -slow-query)")
	}
	evs := s.trace.Events()
	for _, ev := range evs {
		line(ev.String())
	}
	dumps := s.SlowTraces()
	for i, dump := range dumps {
		line(fmt.Sprintf("--- slow trace %d ---", i+1))
		for _, l := range strings.Split(strings.TrimRight(dump, "\n"), "\n") {
			line(l)
		}
	}
	return len(evs), len(dumps), nil
}

// WriteProm writes the server's metrics to w in Prometheus text exposition
// format. Counters come from one Metrics snapshot; the histogram families
// (repro_exec_latency_seconds, repro_queue_wait_seconds,
// repro_repair_seconds) render straight from the live histograms.
func (s *Server) WriteProm(w io.Writer) {
	m := s.Metrics()
	obs.WritePromGauge(w, "repro_sessions", "Sessions opened.", float64(m.Sessions))
	obs.WritePromGauge(w, "repro_plan_cache_entries", "Live plan cache entries.", float64(m.Entries))
	obs.WritePromCounter(w, "repro_prepare_hits_total", "Prepares served from the plan cache.", m.Hits)
	obs.WritePromCounter(w, "repro_prepare_misses_total", "Prepares that created a plan-cache entry.", m.Misses)
	obs.WritePromCounter(w, "repro_plan_cache_evictions_total", "Plan cache entries evicted by the LRU bound.", m.Evictions)
	obs.WritePromCounter(w, "repro_execs_total", "Statement executions.", m.Execs)
	obs.WritePromCounter(w, "repro_compiles_total", "Operator trees compiled; the other executions reused a held one.", m.Compiles)
	obs.WritePromCounter(w, "repro_failed_execs_total", "Executions that ended in an error.", m.FailedExecs)
	obs.WritePromCounter(w, "repro_builds_reused_total", "Hash-join tables a held run kept, inserting the rows their build side gained.", m.BuildsReused)
	obs.WritePromCounter(w, "repro_results_maintained_total", "Executions whose held run kept its result and absorbed only what the output gained.", m.ResultsMaintained)
	obs.WritePromCounter(w, "repro_conn_errors_total", "Protocol connections that ended in an error.", m.ConnErrors)
	obs.WritePromCounter(w, "repro_full_opts_total", "Initial optimizations, from scratch or by clone.", m.FullOpts)
	obs.WritePromCounter(w, "repro_clones_total", "Initial optimizations that cloned and repaired a template of the same join graph.", m.Clones)
	obs.WritePromCounter(w, "repro_repairs_total", "Incremental plan repairs triggered by feedback.", m.Repairs)
	obs.WritePromCounter(w, "repro_converged_execs_total", "Executions whose feedback stayed sub-threshold.", m.Converged)
	obs.WritePromCounter(w, "repro_full_opt_seconds_total", "Cumulative initial optimization time.", m.FullOptTime.Seconds())
	obs.WritePromGauge(w, "repro_stats_keys", "Fingerprints the shared statistics plane has learned.", float64(m.StatsKeys))
	obs.WritePromCounter(w, "repro_warm_seeds_total", "Factors warm-started from the statistics plane.", m.WarmSeeds)
	obs.WritePromCounter(w, "repro_stats_decays_total", "Statistics folds that decayed stored history.", m.StatsDecays)
	obs.WritePromGauge(w, "repro_stats_stale_keys", "Fingerprints beyond the staleness horizon.", float64(m.StatsStale))
	obs.WritePromCounter(w, "repro_queue_waited_total", "Executions that found every admission slot taken.", m.QueueWaits)
	obs.WritePromCounter(w, "repro_spilled_queries_total", "Executions that spilled to disk under the memory budget.", m.SpilledQueries)
	obs.WritePromCounter(w, "repro_spill_partitions_total", "Grace-hash spill partition files written.", m.SpillPartitions)
	obs.WritePromCounter(w, "repro_spill_bytes_total", "Bytes spilled to disk.", m.SpillBytes)
	obs.WritePromCounter(w, "repro_spill_recursions_total", "Recursive spill repartitioning steps.", m.SpillRecursions)
	if m.ResultCacheEnabled {
		rc := m.ResultCache
		obs.WritePromGauge(w, "repro_result_cache_bytes", "Bytes held by the semantic result cache.", float64(rc.Bytes))
		obs.WritePromGauge(w, "repro_result_cache_entries", "Materializations held by the semantic result cache.", float64(rc.Entries))
		obs.WritePromCounter(w, "repro_result_cache_hits_total", "Result-cache probe hits.", rc.Hits)
		obs.WritePromCounter(w, "repro_result_cache_misses_total", "Result-cache probe misses.", rc.Misses)
		obs.WritePromCounter(w, "repro_result_cache_stores_total", "Subplan outputs spooled into the result cache.", rc.Stores)
		obs.WritePromCounter(w, "repro_result_cache_evictions_total", "Result-cache entries evicted by the byte budget.", rc.Evictions)
		obs.WritePromCounter(w, "repro_result_cache_invalidations_total", "Result-cache invalidations.", rc.Invalidations)
	}
	s.latencyH.WritePromHistogram(w, "repro_exec_latency_seconds", "Statement execution wall time.")
	s.queueH.WritePromHistogram(w, "repro_queue_wait_seconds", "Admission-queue wait before execution.")
	s.repairH.WritePromHistogram(w, "repro_repair_seconds", "Incremental plan repair wall time.")
	s.peakMemH.WritePromIntHistogram(w, "repro_peak_memory_bytes", "Per-query peak tracked execution memory.")
	// Per-entry gauges, labeled by the entry digest so series survive
	// human-readable name changes.
	fmt.Fprintf(w, "# HELP repro_entry_est_error Latest per-entry cardinality estimation error (mean |ln(act/est)|).\n# TYPE repro_entry_est_error gauge\n")
	for _, e := range m.PerEntry {
		fmt.Fprintf(w, "repro_entry_est_error{entry=%q,query=%q} %g\n", e.Hash, promLabel(e.Query), e.EstErr)
	}
	fmt.Fprintf(w, "# HELP repro_entry_plan_version Current plan generation per entry.\n# TYPE repro_entry_plan_version gauge\n")
	for _, e := range m.PerEntry {
		fmt.Fprintf(w, "repro_entry_plan_version{entry=%q,query=%q} %d\n", e.Hash, promLabel(e.Query), e.PlanVersion)
	}
	fmt.Fprintf(w, "# HELP repro_entry_repairs_total Incremental repairs per entry.\n# TYPE repro_entry_repairs_total counter\n")
	for _, e := range m.PerEntry {
		fmt.Fprintf(w, "repro_entry_repairs_total{entry=%q,query=%q} %d\n", e.Hash, promLabel(e.Query), e.Repairs)
	}
}

// promLabel sanitizes a query display name for use as a label value (%q
// handles quote and backslash escaping; newlines just get squashed).
func promLabel(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' {
			return ' '
		}
		return r
	}, s)
}
