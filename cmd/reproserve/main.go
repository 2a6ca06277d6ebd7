// Command reproserve runs the concurrent query service (internal/server)
// behind a line-oriented protocol, either over stdin/stdout or as a TCP
// server with one session per connection. The workload catalog is TPC-H;
// the named TPC-H queries are preregistered and ad-hoc SQL is accepted.
//
// Usage:
//
//	reproserve                         # interactive, stdin/stdout
//	reproserve -listen :7878           # TCP; try: nc localhost 7878
//	echo 'run SELECT ... FROM ...' | reproserve
//
// The plan cache is bounded with -max-entries (LRU), its only bound: an idle
// entry is a live optimizer worth keeping. Eviction is safe because learned
// statistics live in the server-wide statistics plane and warm-start
// re-admitted entries. On SIGINT/SIGTERM the
// server shuts down gracefully: it stops accepting connections, drains
// in-flight executions through the admission semaphore, and writes the final
// metrics report to stderr.
//
// The statistics plane itself survives restarts and forgets gracefully:
//
//   - -stats-file PATH loads a statistics snapshot on boot (a missing file
//     is a cold start) and saves one on graceful shutdown, rotating it into
//     place atomically (write-to-temp + rename) so a crash mid-save never
//     corrupts the previous snapshot. Restarting with the same -stats-file
//     re-prepares the workload warm: one full optimization per entry, zero
//     relearning.
//   - -stats-half-life N exponentially decays the observation history with
//     a half-life of N logical observations, so after data drift the
//     calibrated factors track the new regime in O(N) observations instead
//     of O(history).
//   - -stats-stale-after N stops warm-starting from fingerprints unseen for
//     N observations and reclaims them entirely at age 2N.
//   - -stats-snapshot-interval D additionally saves the snapshot every D
//     while serving (same atomic rotation), so a crash loses at most D of
//     learning instead of everything since boot. Requires -stats-file.
//
// The final metrics flush includes the stats-plane ageing counters (clock,
// decays, stale, reclaimed), so drift behavior is observable in production.
//
// Memory bounds:
//
//   - -mem-budget-mb N bounds each query's tracked execution memory to
//     N MiB: hash joins and aggregations beyond the budget spill to disk
//     under grace hashing (results and cardinality feedback are identical
//     either way). 0 executes unbounded; peak memory is tracked regardless
//     and digested in /metrics as repro_peak_memory_bytes p50/p95/p99.
//   - -mem-ceiling-mb N admission-gates executions so the sum of admitted
//     queries' budgets never exceeds N MiB; waits surface in the queue-wait
//     histogram and trace as reason=mem. Requires -mem-budget-mb.
//
// Persistent storage:
//
//   - -data-dir DIR binds every table to a log-structured persistent
//     backend under DIR: on first boot the generated TPC-H tables are
//     seeded into it and flushed as immutable sorted column segments on
//     graceful shutdown; later boots load the segments and replay the
//     append log instead of regenerating, so a restart serves identical
//     data. Per-segment zone maps add the segment-pruned scan access path
//     to the optimizer's plan space. Pairs naturally with -stats-file:
//     data and learned statistics then both survive restarts.
//   - -spill-dir DIR places the (immediately unlinked) spill partition
//     files of out-of-core hash joins and aggregations under DIR instead
//     of the system temp directory; write failures there surface as query
//     errors.
//
// -result-cache-mb N gives the semantic result cache an N MiB byte budget
// (0 disables it, the default). With the cache on, sessions share the
// materialized outputs of hot cacheable subexpressions across statements:
// a probe that matches a fingerprint-identical cached subtree serves it as
// zero-copy column windows instead of re-executing it, and a miss spools
// the subtree's output into the cache as a side effect of execution.
// Entries are invalidated by base-table data versions, so mutations are
// never served stale; the byte budget is the cache's only bound. The
// shutdown metrics flush reports the cache's hit/miss/store/eviction/
// invalidation counters when enabled.
//
// Observability:
//
//   - -http ADDR serves the debug plane on a second listener: GET /metrics
//     (Prometheus text format — execution latency, queue wait and repair
//     histograms with p50/p95/p99, every server counter, per-entry
//     estimation-error gauges), /metrics.json, /traces (lifecycle events
//     and slow-query dumps), and /debug/pprof/*.
//   - -trace-events N keeps the last N query-lifecycle events (prepare
//     hit/miss, queue wait, exec, repair, result-cache activity) in a ring,
//     readable via the protocol's "trace" command and /traces.
//   - -slow-query D profiles every execution and dumps any one slower than
//     D — its lifecycle events plus a full per-operator EXPLAIN ANALYZE —
//     to stderr and the /traces ring.
//   - -metrics-json renders the final shutdown metrics flush as JSON
//     instead of the text report.
//
// Protocol (one command per line; see internal/server/proto.go):
//
//	query q5 Q5          bind the named TPC-H Q5 as statement "q5"
//	prepare s1 SELECT... parse and bind ad-hoc SQL
//	exec q5              execute (feeds cardinalities back to the cache)
//	rows s1              execute and stream result rows
//	run SELECT...        one-shot prepare + exec
//	explain q5           show the current cached plan
//	analyze q5           execute with per-operator profiling (EXPLAIN ANALYZE)
//	metrics              cache hit/miss, repair vs full-opt, stats plane
//	trace                dump the lifecycle event ring (needs -trace-events)
//	quit
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/tpch"
)

func main() {
	listen := flag.String("listen", "", "TCP listen address (e.g. :7878); empty serves stdin/stdout")
	sf := flag.Float64("sf", 0.005, "TPC-H scale factor")
	skew := flag.Float64("skew", 0, "TPC-H Zipf skew on foreign keys")
	parallelism := flag.Int("parallelism", 1, "workers that run copies of the probe spine of an aggregating query without a memory budget; other queries, and any at <= 1, execute serially")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission bound on concurrently executing queries; 0 sizes it against parallelism")
	maxEntries := flag.Int("max-entries", 0, "plan cache entry bound (LRU eviction); 0 is unbounded")
	statsFile := flag.String("stats-file", "", "statistics-plane snapshot path: loaded on boot when present, saved (atomic rotation) on graceful shutdown")
	snapshotInterval := flag.Duration("stats-snapshot-interval", 0, "additionally save the statistics snapshot every interval while serving (e.g. 5m); 0 saves only at shutdown; requires -stats-file")
	memBudgetMB := flag.Int64("mem-budget-mb", 0, "per-query execution memory budget in MiB (hash joins/aggregations spill to disk beyond it); 0 is unbounded")
	memCeilingMB := flag.Int64("mem-ceiling-mb", 0, "admission ceiling on the sum of concurrently executing queries' memory budgets, in MiB; requires -mem-budget-mb; 0 disables")
	halfLife := flag.Float64("stats-half-life", 0, "observation-decay half-life of the statistics plane, in logical observations; 0 keeps full history")
	staleAfter := flag.Uint64("stats-stale-after", 0, "observations after which an unseen fingerprint stops warm-starting (reclaimed at twice this age); 0 keeps everything")
	resultCacheMB := flag.Int64("result-cache-mb", 0, "semantic result cache byte budget in MiB, shared by all sessions (LRU eviction, data-version invalidation); 0 disables result caching")
	httpAddr := flag.String("http", "", "debug/metrics listen address (e.g. 127.0.0.1:9090): /metrics (Prometheus), /metrics.json, /traces, /debug/pprof/*; empty disables")
	traceEvents := flag.Int("trace-events", 0, "query-lifecycle event ring size (prepare/queue/exec/repair/result-cache events); 0 disables tracing")
	slowQuery := flag.Duration("slow-query", 0, "slow-query threshold (e.g. 50ms): slower executions dump lifecycle trace + EXPLAIN ANALYZE to stderr and /traces; 0 disables")
	metricsJSON := flag.Bool("metrics-json", false, "render the final shutdown metrics flush as JSON instead of the text report")
	dataDir := flag.String("data-dir", "", "persistent storage root (one subdirectory per table): tables load from it on boot instead of regenerating, appends flush to immutable column segments on graceful shutdown, and zone maps add the segment-pruned scan access path; empty keeps the catalog purely in memory")
	spillDir := flag.String("spill-dir", "", "directory for out-of-core spill partition files (unlinked at creation); empty uses the system temp directory")
	flag.Parse()

	stats := repro.NewStatsStoreWith(repro.StatsStoreOptions{
		DecayHalfLife: *halfLife,
		StaleAfter:    *staleAfter,
	})
	if *statsFile != "" {
		switch err := stats.LoadFile(*statsFile); {
		case errors.Is(err, os.ErrNotExist):
			fmt.Fprintf(os.Stderr, "reproserve: no snapshot at %s, statistics plane starts cold\n", *statsFile)
		case err != nil:
			log.Fatal(err)
		default:
			fmt.Fprintf(os.Stderr, "reproserve: loaded %d statistics fingerprints from %s (clock=%d)\n",
				stats.Len(), *statsFile, stats.Clock())
		}
	}

	if *snapshotInterval > 0 && *statsFile == "" {
		log.Fatal("reproserve: -stats-snapshot-interval requires -stats-file")
	}
	if *snapshotInterval > 0 {
		go func() {
			t := time.NewTicker(*snapshotInterval)
			defer t.Stop()
			for range t.C {
				// SaveFile rotates atomically, so a scrape or crash mid-save
				// always sees a complete snapshot.
				if err := stats.SaveFile(*statsFile); err != nil {
					fmt.Fprintf(os.Stderr, "reproserve: periodic stats snapshot: %v\n", err)
				}
			}
		}()
	}

	cat := tpch.Generate(tpch.Config{ScaleFactor: *sf, Seed: 42, Skew: *skew})
	srv, err := repro.NewServer(cat, repro.ServerOptions{
		Parallelism:     *parallelism,
		MaxConcurrent:   *maxConcurrent,
		MemBudgetBytes:  *memBudgetMB << 20,
		MemCeilingBytes: *memCeilingMB << 20,
		MaxEntries:      *maxEntries,
		Stats:           stats,
		Dict:            tpch.Dict(),
		Date:            tpch.Date,
		Named:           tpch.Queries(),

		ResultCacheBytes: *resultCacheMB << 20,

		DataDir:  *dataDir,
		SpillDir: *spillDir,

		TraceEvents:    *traceEvents,
		TraceSlowQuery: *slowQuery,
		TraceOnSlow: func(dump string) {
			fmt.Fprintf(os.Stderr, "reproserve: %s", dump)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		info := srv.StorageInfo()
		fmt.Fprintf(os.Stderr, "reproserve: storage: loaded %d tables (%d rows) from %s, seeded %d from generated data\n",
			info.Loaded, info.Rows, *dataDir, info.Seeded)
	}

	if *httpAddr != "" {
		dl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "reproserve: debug plane on http://%s (/metrics /metrics.json /traces /debug/pprof/)\n", dl.Addr())
		go func() {
			if err := http.Serve(dl, srv.DebugHandler()); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "reproserve: debug plane: %v\n", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *listen == "" {
		done := make(chan error, 1)
		go func() { done <- srv.ServeConn(stdio{}) }()
		select {
		case err := <-done:
			if err != nil {
				log.Fatal(err)
			}
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "reproserve: %v, draining in-flight executions\n", s)
		}
		shutdown(srv, *statsFile, *metricsJSON)
		return
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "reproserve: listening on %s (sf=%g, parallelism=%d, max-entries=%d)\n",
		l.Addr(), *sf, *parallelism, *maxEntries)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "reproserve: %v, stop accepting, draining in-flight executions\n", s)
		l.Close()
	}()
	if err := srv.ServeListener(l); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatal(err)
	}
	shutdown(srv, *statsFile, *metricsJSON)
}

// shutdown drains the admission semaphore, persists the statistics plane
// (atomic rotation: the previous snapshot survives any failure), and flushes
// the final metrics report: the cache and statistics-plane counters —
// including the ageing clock, decay, staleness and reclaim totals — a
// long-running serve accumulated, written where an operator (or test
// harness) can collect them.
func shutdown(srv *repro.Server, statsFile string, asJSON bool) {
	start := time.Now()
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "reproserve: storage flush: %v\n", err)
	} else if info := srv.StorageInfo(); info.Loaded+info.Seeded > 0 {
		fmt.Fprintf(os.Stderr, "reproserve: storage: flushed %d tables\n", info.Loaded+info.Seeded)
	}
	if statsFile != "" {
		if err := srv.Stats().SaveFile(statsFile); err != nil {
			fmt.Fprintf(os.Stderr, "reproserve: %v (previous snapshot left intact)\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "reproserve: saved %d statistics fingerprints to %s\n",
				srv.Stats().Len(), statsFile)
		}
	}
	if asJSON {
		blob, err := json.MarshalIndent(srv.Metrics(), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "reproserve: drained in %v, final metrics:\n%s\n",
			time.Since(start).Round(time.Millisecond), blob)
		return
	}
	fmt.Fprintf(os.Stderr, "reproserve: drained in %v, final metrics:\n%s",
		time.Since(start).Round(time.Millisecond), srv.Metrics())
}

// stdio glues stdin and stdout into one io.ReadWriter for ServeConn.
type stdio struct{}

func (stdio) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdio) Write(p []byte) (int, error) { return os.Stdout.Write(p) }

var _ io.ReadWriter = stdio{}
