// Package repro is a from-scratch Go reproduction of "Enabling Incremental
// Query Re-Optimization" (Mengmeng Liu, Zachary G. Ives, Boon Thau Loo;
// SIGMOD 2016): a cost-based query optimizer whose state is an incrementally
// maintainable materialized view, so that after a cardinality or cost update
// only the affected region of the plan search space is recomputed.
//
// This root package is the public facade over the implementation packages:
//
//   - internal/core — the incremental declarative optimizer (the paper's
//     contribution): SearchSpace/PlanCost/BestCost/Bound state in three
//     pointer-free slabs (groups, entries, parent edges) named by index,
//     aggregate selection with tuple source suppression, reference
//     counting and recursive bounding, all maintained under cost deltas.
//     Optimizer.Clone copies that state into the model of another statement
//     over the same join graph, rewriting relation ordinals and predicate
//     indexes, and stages every entry for re-pricing, so the next
//     Reoptimize repairs the copy to the new statement's optimum;
//   - internal/volcano, internal/systemr — the procedural baselines;
//   - internal/relalg, internal/catalog, internal/stats, internal/cost —
//     the shared query model, physical design, statistics and cost model;
//   - internal/exec — the executor, one serial vectorized columnar engine
//     (Compiler.CompileVec → Drain into a sink) with one join, the hash join
//     (every join compiles through its one path; sorts compile to nothing; its
//     table carries an exact bitmap of the first build-key column when the
//     column's range allows one, so a probe row no build row can match is
//     dropped before it is hashed), an aggregation that over a few groups adds
//     COUNT(*) and its SUMs beside the group lookup, grace-hash spilling under
//     a per-query budget, and exact cardinality feedback from every scan and
//     join. Invariant: an operator's schema is the set of columns read at or
//     above it (aggregation inputs, predicates not yet applied), so a column
//     dies after its last reader; a query without an aggregation returns every
//     column and is all-live. Where that leaves a join's build side dead — no
//     build column read above it, no residual on one — and the join feeds the
//     aggregation (directly, or through more such joins on its probe side),
//     the join counts instead of enumerating: each matching probe row is
//     passed on once with its match count beside it (Batch.Mult), which
//     COUNT(*) and SUM scale by and COUNT(DISTINCT) ignores; the cardinality
//     counters sum the multiplicities, so feedback is that of the enumerating
//     join. A compiled tree is re-openable: after Close, Open starts a new
//     execution — scans rebind to their tables' current column snapshots,
//     RunStats counters are zeroed, and every operator empties the buffers it
//     owns (build sides, join tables and their key bitmaps, the aggregation's
//     group arrays and its one flat COUNT(DISTINCT) set, output columns, batch
//     scratch) and keeps their capacity, for exactly as long as the operator
//     itself lives; nothing is charged to the tracker between executions.
//     A held tree maintains its state under appends: every unbounded hash
//     join keeps its table, the root its result (an aggregation's table,
//     else the emitted rows). Each scan remembers the snapshot it bound
//     (storage.Snapshot's epoch, new at every reset, store and directory
//     swap, carried by appends, and its N); at the same epoch it can emit
//     only the rows above that watermark. A kept join table inserts the
//     rows its build side gained, ΔB, the join emits ΔJ = B ⋈ ΔP ∪ ΔB ⋈
//     P_old (re-reading the old probe rows whose zone maps hold ΔB's keys),
//     and the root absorbs ΔJ; every node's counts start from what it
//     counted before, so feedback and EXPLAIN ANALYZE (its "maintained"
//     mark) read a fresh run's (ServerMetrics.BuildsReused,
//     ResultsMaintained). A result-cache hit replays its entry's counts,
//     kept while its catalog.Pin holds. A tree compiled against a result
//     cache, or one whose last execution failed, refuses a second Open;
//   - internal/aqp — the adaptive query processing loop. The controller
//     owns the standing query's execution: it compiles a plan once and
//     re-opens that tree at every split point until the re-optimizer
//     returns a plan with another signature (the serving layer keeps idle
//     trees per plan version, and each execution borrows one);
//   - internal/fbstore — the server-wide statistics plane: calibrated
//     cardinality observations keyed by canonical subexpression
//     fingerprint, shared by every plan-cache entry and surviving their
//     eviction;
//   - internal/rescache — the bounded server-wide semantic result cache:
//     materialized subexpression outputs keyed by the same canonical
//     fingerprints, invalidated by base-table snapshots; entries hold
//     only the columns their producer carried and serve a consumer only
//     when they cover every column it reads;
//   - internal/server — the concurrent query service: sessions over a
//     shared plan cache whose entries each hold a live incremental
//     optimizer, so every execution's feedback incrementally repairs the
//     cached plan for all sessions. Entries optimize in
//     relalg.ServedSpace(), the hash joins and scans the executor runs as
//     priced, not the paper's full Table 1 space that NewOptimizer, the
//     figures and the baselines use (surfaced here as NewServer /
//     Session / Prepare / Exec, and as a wire protocol by cmd/reproserve).
//     A miss whose join graph the cache already holds clones that entry's
//     optimizer and repairs it instead of enumerating from scratch. The
//     cache key, that join-graph shape and the statistics fingerprints are
//     renderings of one relalg.Fingerprinter per statement;
//   - internal/obs — the observability primitives: nil-safe per-operator
//     execution spans, the query-lifecycle event ring, and wait-free
//     latency histograms with Prometheus text exposition;
//   - internal/tpch, internal/linearroad — the paper's workloads;
//   - internal/deltalog — a generic counted delta-dataflow engine used as a
//     differential-testing oracle for the optimizer;
//   - internal/testkit — synthetic catalogs and random queries for the
//     property tests, and the executor's oracle: a naive, plan-independent
//     evaluator of the logical query (testkit.Reference) that results and
//     feedback cardinalities are checked against;
//   - internal/bench — runners regenerating every table and figure of §5.
//
// # Quickstart
//
//	cat := tpch.Generate(tpch.DefaultConfig())
//	opt, _ := repro.NewOptimizer(tpch.Q5(), cat)
//	plan, _ := opt.Optimize()
//	fmt.Println(plan.Explain(opt.Query()))
//
//	// A runtime statistics update arrives: re-optimize incrementally.
//	opt.UpdateCardFactor(someExpr, 4.0)
//	plan, _ = opt.Reoptimize()
//
// # Serving
//
// For concurrent workloads, run a Server instead of owning an Optimizer:
// prepared statements are cached by canonical query structure, each cache
// entry keeps its incremental optimizer alive across executions and
// sessions, and execution feedback repairs cached plans in place:
//
//	srv, _ := repro.NewServer(cat, repro.ServerOptions{
//		Dict: tpch.Dict(), Date: tpch.Date, Named: tpch.Queries(),
//	})
//	sess := srv.Session()
//	st, _ := sess.Prepare("SELECT ... FROM ... WHERE ...")
//	res, _ := st.Exec() // feeds observed cardinalities back to the cache
//
// Learned cardinalities live in a server-wide statistics plane keyed by
// canonical subexpression fingerprint, not in the cache entries: two
// structurally different statements over the same tables calibrate against
// one shared history, and a structurally new statement over hot tables
// warm-starts its first optimization from what the workload already
// learned. That makes the cache safely boundable — ServerOptions.MaxEntries
// caps it with LRU eviction, the plan cache's one bound: an idle entry is a
// live optimizer worth keeping and leaves only to make room. Eviction
// discards only the plan and its live optimizer, never the statistics, so
// re-admission starts near-converged. ServerOptions.Stats optionally shares
// one NewStatsStoreWith store between servers. Server.Shutdown drains
// in-flight executions for a graceful stop.
//
// # Statistics persistence and ageing
//
// The statistics plane is durable and drift-aware. StatsStore.Save and
// StatsStore.Load write and read a versioned snapshot of everything the
// workload has learned (SaveFile/LoadFile add atomic file rotation), so a
// restarted server re-prepares its workload with full-opt=1, warm-started
// factors, and no relearning — cmd/reproserve wires this to -stats-file,
// loading on boot and saving on shutdown. Under data drift, frozen
// statistics mislead; StatsStoreOptions turn on observation ageing for a
// store built with NewStatsStoreWith and handed to the server as
// ServerOptions.Stats (a server's private default store keeps everything) —
// the only ageing policy in the serving stack: DecayHalfLife exponentially
// decays the cumulative observation history on a logical observation
// clock, so post-drift feedback overturns a confidently-wrong factor in
// O(half-life) observations instead of O(history), and StaleAfter is the
// horizon beyond which an unobserved fingerprint stops warm-starting and is
// eventually reclaimed. internal/server's drift test replays a phase-shifted
// stream against a live Server to assert exactly that repair-then-reconverge
// trajectory.
//
// # Cross-query result reuse
//
// The fingerprint plane identifies more than statistics: two subexpressions
// with equal canonical fingerprints compute the same relation. Setting
// ServerOptions.ResultCacheBytes gives the server a bounded semantic result
// cache (internal/rescache) that exploits this. When a statement executes,
// the compiler probes the cache for each hot cacheable subtree of its plan;
// a hit replaces the subtree with a zero-copy scan over the materialized
// columns — shared across statements and sessions that never saw each other
// — while a miss tees the subtree's output into the cache as a side effect
// of normal execution. Entries pin the snapshots of their base tables (a
// snapshot's epoch and row count, moved by every non-empty catalog
// AppendRows and every ResetSnapshot) as a kept hash-join table does, so a
// mutation silently invalidates every dependent result, and the
// byte budget — the cache's one bound — evicts least-recently-probed
// entries. Cached serving is exactly transparent: a hit's plan nodes replay
// the entry's counts through their shims, so results and the per-operator
// cardinality feedback driving plan repair are byte-identical with the
// cache on or off. Hit/miss/store/eviction/invalidation counters
// surface in ServerMetrics; cmd/reproserve wires the budget to
// -result-cache-mb.
//
// # Observability
//
// The serving layer is observable at three depths, all built on
// internal/obs:
//
//   - Per-operator profiles. Every execution records batches and rows per
//     plan operator in the spans its cardinality feedback is read from; a
//     timed one adds wall time. Stmt.ExplainAnalyze runs a real, timed
//     execution on a held tree — its feedback repairs the cached plan like
//     any other — and renders the plan annotated with estimated-vs-actual
//     cardinality and q-error per node. A hash join that counted instead of enumerating is
//     marked "counted": its rows= is still its cardinality, its batches=
//     what it actually emitted; a node that emitted only its delta is
//     marked "maintained", and one under a result-cache hit "not
//     executed (cached)". cmd/optcli -analyze and the protocol's
//     "analyze" command expose the same tree.
//   - Lifecycle tracing. ServerOptions.TraceEvents keeps the last N
//     structured events (prepare hit/miss, admission queue wait, exec,
//     incremental repair, each execution's result-cache probe hits and
//     spools, read from its RunStats) in a bounded ring.
//     ServerOptions.TraceSlowQuery times every execution and, when one
//     exceeds the threshold, dumps its event trail plus the full EXPLAIN
//     ANALYZE tree to Server.SlowTraces and the optional TraceOnSlow
//     callback. The protocol's "trace" command and the debug handler's
//     /traces render the same account: the ring, then the slow dumps.
//   - A scrapeable metrics plane. Execution latency, admission queue wait
//     and repair latency feed wait-free histograms that are always on;
//     ServerMetrics carries their count/mean/p50/p95/p99 summaries (and is
//     json.Marshaler), and Server.DebugHandler serves /metrics (Prometheus
//     text format, including per-entry estimation-error gauges),
//     /metrics.json, /traces and /debug/pprof/*. cmd/reproserve wires this
//     to -http, -trace-events, -slow-query and -metrics-json.
//
// # Memory
//
// Execution is memory-bounded on request. ServerOptions.MemBudgetBytes
// bounds each query's tracked execution memory: the executor charges its
// materializing state (hash-join build sides — an index nested-loops join's
// hash index is one — and aggregation tables) to a per-query memory tracker
// (exec.Compiler.Mem, the one way to bound an execution), and a hash join or
// aggregation whose build input would exceed the budget switches to grace-hash
// execution — the input is partitioned to disk by the same hash the
// in-memory path uses, partitions are processed one at a time, and a
// partition that still doesn't fit is recursively repartitioned. Spilled
// execution is exactly transparent: result multisets and the per-operator
// cardinality feedback that repairs cached plans are byte-identical with
// spilling on or off (differential-tested), so
// bounding memory never perturbs the paper's adaptive loop. Admission is
// one semaphore of ServerOptions.MaxConcurrent slots, so the budgets in
// flight total at most MaxConcurrent × MemBudgetBytes. Per-query peak
// tracked memory is always observable — budget or not — as a histogram in
// ServerMetrics and on /metrics (repro_peak_memory_bytes), alongside spill
// counters (partitions, bytes, recursions). cmd/reproserve wires the bounds
// to -mem-budget-mb and -max-concurrent.
//
// # Storage
//
// A table's data is held once: as the immutable column snapshot of its
// store (internal/storage). The executor scans it as zero-copy
// column windows and the statistics are built from it. Rows are an ingest
// format only — what AppendRows takes and the write-ahead log records; a
// stream window (internal/linearroad) holds its content as columns and
// publishes those columns as its table's snapshot each slice
// (Table.ResetSnapshot), transposing nothing. Statistics are built on first
// read: catalog.Table.Analyze is O(1) — it records which rows the statistics
// describe — and a column's histogram is built when a planner first asks
// for it (Table.Stats), from that prefix of the current snapshot, so a
// column nobody plans over is never sorted. A store publishes its snapshot
// behind one atomic pointer, so appending rows never disturbs the column
// windows an in-flight execution is scanning — mutation-safe and still
// zero-copy — and no reader takes the lock its writers hold.
// Setting ServerOptions.DataDir opens every table's store on a directory
// under that one, log-structured: appends write through a
// synced write-ahead log, and a graceful Server.Shutdown flushes the
// unflushed tail into immutable column-segment files (rows sorted by the
// table's clustered column, per-column min/max zone maps); a table directory
// is a manifest, one log and segments, and the store keeps no index — an
// index nested-loops join hashes its inner relation like any join build. On
// the next boot the directory wins over generated seed data: segments decode
// column by column into one snapshot sized from the manifest, the log's
// rows after them, data versions carry over, and the server serves
// byte-identical results with zero regeneration. Segment zone maps also prune every scan
// of a persistent table: it skips whole segments a pushed-down predicate
// provably excludes (the zone maps travel in the snapshot, so a scan reads
// its rows' own), and the cost model prices its table scan by the
// fraction of rows left, so there is no separate access path to choose.
// ServerOptions.SpillDir independently places the (immediately
// unlinked) spill partition files of memory-bounded execution; a write
// failure there surfaces as a query error. cmd/reproserve wires these to
// -data-dir and -spill-dir; -data-dir pairs naturally with -stats-file so
// data and learned statistics both survive restarts.
package repro

import (
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fbstore"
	"repro/internal/relalg"
	"repro/internal/server"
)

// Optimizer is the user-facing handle on the incremental declarative
// optimizer with the full pruning configuration of the paper.
type Optimizer struct {
	inner *core.Optimizer
	query *relalg.Query
}

// Options configures NewOptimizer.
type Options struct {
	// Params overrides the cost-model constants (zero value: defaults).
	Params *cost.Params
	// Space restricts the plan space (zero value: the full space).
	Space *relalg.SpaceOptions
	// Pruning selects the pruning strategies (zero value: all of them).
	Pruning *core.Pruning
}

// NewOptimizer builds an incremental optimizer for the query over the
// catalog with default options.
func NewOptimizer(q *relalg.Query, cat *catalog.Catalog) (*Optimizer, error) {
	return NewOptimizerOptions(q, cat, Options{})
}

// NewOptimizerOptions builds an incremental optimizer with explicit options.
func NewOptimizerOptions(q *relalg.Query, cat *catalog.Catalog, o Options) (*Optimizer, error) {
	params := cost.DefaultParams()
	if o.Params != nil {
		params = *o.Params
	}
	space := relalg.DefaultSpace()
	if o.Space != nil {
		space = *o.Space
	}
	mode := core.PruneAll
	if o.Pruning != nil {
		mode = *o.Pruning
	}
	m, err := cost.NewModel(q, cat, params)
	if err != nil {
		return nil, err
	}
	inner, err := core.New(m, space, mode)
	if err != nil {
		return nil, err
	}
	return &Optimizer{inner: inner, query: q}, nil
}

// Query returns the optimizer's query.
func (o *Optimizer) Query() *relalg.Query { return o.query }

// Optimize performs the initial optimization.
func (o *Optimizer) Optimize() (*relalg.Plan, error) { return o.inner.Optimize() }

// UpdateCardFactor stages a cardinality update: the estimated cardinality
// of every expression containing s is scaled by factor (relative to the
// initial statistics). Call Reoptimize to propagate.
func (o *Optimizer) UpdateCardFactor(s relalg.RelSet, factor float64) {
	o.inner.UpdateCardFactor(s, factor)
}

// Reoptimize incrementally repairs the optimizer state under the staged
// updates and returns the (possibly new) best plan.
func (o *Optimizer) Reoptimize() (*relalg.Plan, error) { return o.inner.Reoptimize() }

// Metrics exposes the instrumentation counters.
func (o *Optimizer) Metrics() core.Metrics { return o.inner.Metrics() }

// SearchSpace renders the live SearchSpace relation as a text table in the
// format of the paper's Table 1.
func (o *Optimizer) SearchSpace() string { return o.inner.FormatSearchSpace() }

// AndOrGraph renders the annotated and-or-graph (the paper's Figure 2).
func (o *Optimizer) AndOrGraph() string { return o.inner.AndOrGraph() }

// ---- serving layer (internal/server) ----

// Server is the multi-session query service: a shared plan cache of live
// incremental optimizers with admission control and per-entry metrics. See
// internal/server for the full documentation.
type Server = server.Server

// ServerOptions configures NewServer.
type ServerOptions = server.Options

// ServerSession is one client's handle on a Server.
type ServerSession = server.Session

// Stmt is a prepared statement bound to the shared plan cache.
type Stmt = server.Stmt

// ExecResult is one statement execution's outcome.
type ExecResult = server.Result

// ServerMetrics is a snapshot of a Server's cache and repair counters.
type ServerMetrics = server.Metrics

// StatsStore is the server-wide statistics plane: calibrated cardinality
// observation state keyed by canonical subexpression fingerprint. Servers
// create a private one by default; pass one through ServerOptions.Stats to
// share learned statistics between servers or across server rebuilds. Save
// and Load (and SaveFile/LoadFile, with atomic rotation) persist the plane
// across process restarts as a versioned snapshot.
type StatsStore = fbstore.StatsStore

// StatsStoreOptions configures observation ageing for NewStatsStoreWith:
// DecayHalfLife exponentially decays the cumulative observation history (in
// logical observations), StaleAfter stops warm-starting — and eventually
// reclaims — fingerprints the workload stopped observing. The zero value
// keeps the full history forever.
type StatsStoreOptions = fbstore.Options

// NewStatsStoreWith builds an empty statistics plane with the given ageing
// configuration.
func NewStatsStoreWith(o StatsStoreOptions) *StatsStore { return fbstore.NewWithOptions(o) }

// NewServer builds a concurrent query service over the catalog. The catalog
// must not be mutated afterwards.
func NewServer(cat *catalog.Catalog, o ServerOptions) (*Server, error) {
	return server.New(cat, o)
}
