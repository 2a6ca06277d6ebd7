// Package server is the concurrent query service over the incremental
// optimizer: the paper's optimizer-state-as-materialized-view kept alive
// across executions AND across sessions. Its heart is a shared plan cache
// keyed by canonical query structure (see CanonicalKey); each entry owns one
// live core.Optimizer whose state survives between executions, so every run
// of a prepared statement — from any session — feeds exact observed
// cardinalities back as cost deltas and the cached plan is incrementally
// REPAIRED, never re-planned from scratch. One session's executions improve
// every other session's plan: the cache entry is the materialized view, the
// feedback stream is its delta log.
//
// Above the per-entry state sits the server-wide statistics plane
// (internal/fbstore): every entry's calibrator reads and writes observation
// state keyed by canonical subexpression fingerprint (relalg.Fingerprinter)
// rather than by the entry's positional RelSets, so two structurally
// different queries over the same tables share one learned history. That
// sharing is what makes the cache safely boundable: eviction (exact LRU
// under Options.MaxEntries, the cache's one bound — an idle optimizer is the
// state the paper says to keep) discards only the plan and its live
// optimizer — the learned statistics survive in the store and warm-start
// the entry on re-admission, and every cache miss over hot tables seeds its
// fresh cost model from the store before the first optimization, starting
// near-converged instead of repeating the workload's whole learning curve.
// Forgetting under data drift is the store's job alone (fbstore.Options).
//
// A statement's plan-cache key, the join-graph shape a miss clones a cached
// template of, and the subexpression fingerprints of the statistics plane
// and the result cache are all renderings of its one relalg.Fingerprinter,
// built when the statement is resolved and kept by its entry, so one rule
// decides when two statements, or two subexpressions, are the same.
//
// Concurrency model (audited against the contracts of the underlying
// packages):
//
//   - catalog.Catalog, relalg.Query and relalg.Plan are immutable after
//     construction (Query.Validate precomputes its neighbour masks), so
//     executions read them lock-free and in parallel;
//   - each cache entry's mutable trio — cost.Model, core.Optimizer,
//     aqp.Calibrator — is guarded by the entry mutex; the current
//     {plan, version} pair is published behind one atomic pointer, so
//     executions never block on a repair in progress (they run the
//     previous plan and their feedback arrives a moment later);
//   - the fbstore.StatsStore is concurrency-safe on its own (short per-key
//     critical sections; folds are commutative), so entries never serialize
//     against each other on the shared statistics plane;
//   - the cache map and its statement-text index (the one statement cache:
//     a re-prepared text resolves without a parse) are under the plan
//     cache's RWMutex, held only for lookup/insert/evict (never during
//     optimization or execution); an evicted entry keeps serving statements
//     that already hold it — it merely becomes invisible to new prepares,
//     and its feedback still lands in the shared store;
//   - each published plan version keeps its idle compiled trees in a
//     sync.Pool: every execution, profiled or not, borrows one (compiling
//     only when none is idle), drains it into its caller's sink (or only
//     counts), reads its RunStats — the
//     cardinalities and, for EXPLAIN ANALYZE or a slow-query dump, the
//     per-operator spans — and hands it back, so one execution at a time
//     holds a tree and a converged statement reopens its trees instead of
//     rebuilding them (see Server.run). A repair
//     publishes a new version and an eviction drops the entry, so the
//     trees of a stale plan are never run again;
//   - server-wide totals are atomics bumped at the event, so they cover
//     every execution whether or not its entry is still cached;
//   - the executor is serial, so each execution occupies one goroutine and
//     concurrency is across queries; admission control is one semaphore of
//     MaxConcurrent slots, one per core by default, and it also bounds
//     in-flight execution memory to MaxConcurrent × MemBudgetBytes.
package server

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/fbstore"
	"repro/internal/obs"
	"repro/internal/relalg"
	"repro/internal/rescache"
	"repro/internal/sqlmini"
)

// Options configures a Server. The zero value is serviceable: admission
// sized to the machine, unbounded plan cache, private statistics store.
// Every entry optimizes over the full plan space with default cost
// parameters and all pruning strategies, and calibrates from cumulatively
// averaged observations (the paper's AQP-Cumulative) with the calibrator's
// default feedback threshold, which is what drives repairs to zero once an
// entry's statistics converge.
type Options struct {
	// Parallelism is vestigial and never consulted: every query executes
	// serially. It stays only because the benchmark module (benchmarks/)
	// sets it to 1, and that module changes only together with the
	// benchmark; the next such change deletes the field with its setting.
	Parallelism int
	// MaxConcurrent bounds concurrently executing queries (admission
	// control). 0 sizes it to GOMAXPROCS: one serial execution per core.
	MaxConcurrent int

	// MemBudgetBytes bounds each query's tracked execution memory: the
	// spill-capable operators (hash join build, hash aggregation) go out
	// of core under grace hashing instead of exceeding it, the rest charge
	// through and record overage. At most MaxConcurrent queries execute at
	// once, so the budgets in flight total at most MaxConcurrent ×
	// MemBudgetBytes. 0 executes unbounded — memory is still tracked, so
	// the peak-memory metrics stay live either way.
	MemBudgetBytes int64

	// MaxEntries bounds the plan cache: inserting a cache miss beyond the
	// bound evicts the least-recently-used entry first. 0 is unbounded.
	// Eviction discards only the plan and its live optimizer — the learned
	// statistics survive in the shared store and warm-start re-admission.
	MaxEntries int

	// Stats supplies the server-wide statistics plane; nil creates a
	// private one that keeps its full history. Sharing one store between
	// servers (or across server restarts within a process) carries the
	// learned cardinalities over; for restarts across processes, persist
	// the store with its Save/Load snapshot codec (cmd/reproserve's
	// -stats-file does both ends). Observation ageing under data drift is
	// the store's own policy: build it with fbstore.NewWithOptions.
	Stats *fbstore.StatsStore

	// ResultCacheBytes enables the server-wide semantic result cache
	// (internal/rescache) with this byte budget: materialized outputs of
	// cacheable subplans, keyed by canonical subexpression fingerprint and
	// shared across statements and sessions. 0 (the default) disables
	// result caching entirely.
	ResultCacheBytes int64

	// DataDir opens every catalog table's store on a persistent
	// log-structured directory under this one (one subdirectory per
	// table): tables with data on disk are LOADED from it, replacing
	// whatever the process generated, and tables with empty directories
	// are seeded from their in-memory rows. Shutdown flushes unflushed
	// appends as immutable column segments, so a restart serves the same
	// data without regeneration. The stores also publish zone maps, by
	// which every table scan skips the segments a predicate excludes.
	// Empty keeps today's purely in-memory catalog.
	DataDir string
	// SpillDir is the directory out-of-core operators create their
	// (immediately unlinked) spill partition files in. Empty uses the
	// system temp directory. An unwritable directory surfaces as a query
	// error at spill time, never a wedged query.
	SpillDir string

	// Dict resolves string literals in SQL text to dictionary codes and
	// Date encodes date literals; see internal/sqlmini.
	Dict map[string]int64
	Date func(y, m, d int) int64

	// Named registers prepared workload queries addressable by name
	// through Session.PrepareNamed and the line protocol's "query"
	// command (e.g. the TPC-H workload).
	Named map[string]*relalg.Query

	// TraceEvents enables query-lifecycle tracing: a ring buffer of the
	// last N structured events (prepare hit/miss with warm-seed counts,
	// admission-queue waits, executions, incremental repairs with
	// touched-entry counts and plan-version bumps, result-cache activity),
	// readable via the wire protocol's "trace" command and the debug
	// handler's /traces endpoint. 0 disables tracing entirely — the
	// executor and feedback paths then carry no event instrumentation.
	// The latency/repair/queue-wait histograms in Metrics are independent
	// of this switch and always on (they cost one atomic add per
	// execution).
	TraceEvents int
	// TraceSlowQuery dumps any execution slower than this threshold: the
	// query's lifecycle events plus its full per-operator EXPLAIN ANALYZE
	// profile, retained in a ring readable via SlowTraces() and /traces.
	// A nonzero threshold profiles every execution on its held tree (two
	// clock reads per operator batch) so the dump is complete when the
	// threshold trips. 0 disables.
	TraceSlowQuery time.Duration
	// TraceOnSlow, when set, additionally receives each slow-query dump as
	// it is produced (e.g. to log it). Called synchronously on the
	// executing goroutine; keep it cheap.
	TraceOnSlow func(dump string)
}

// Server is the multi-session query service. Create one with New, open
// sessions with Session, and serve wire clients with ServeConn /
// ServeListener. All methods are safe for concurrent use.
type Server struct {
	cat      *catalog.Catalog
	opts     Options
	stats    *fbstore.StatsStore
	resCache *rescache.Cache     // nil unless Options.ResultCacheBytes > 0
	bind     catalog.BindSummary // what DataDir binding found at New

	sem     chan struct{} // admission slots
	closed  atomic.Bool   // set by Shutdown: no new executions admitted
	drainMu sync.Mutex    // serializes Shutdown drains
	flushed bool          // under drainMu: storage flush ran (first Shutdown)

	plans *planCache

	sessions  atomic.Int64
	warmSeeds atomic.Int64 // factors seeded from the store across all inits

	// Totals, bumped once at the event (run, ensureInit, feedback) rather
	// than summed over entries, so eviction never loses history. Executions
	// and repairs are counted by latencyH and repairH. At quiescence
	// executions == converged + repairs; executions - compiles reused a held
	// run.
	compiles     atomic.Int64
	failedExecs  atomic.Int64 // executions run ended in an error, not in execs
	buildsReused atomic.Int64 // hash-join tables a held run kept (exec.RunStats.BuildsReused)
	resultsMaint atomic.Int64 // results a held run maintained (exec.RunStats.ResultsMaintained)
	connErrors   atomic.Int64 // ServeListener connections that ended in an error
	fullOpts     atomic.Int64
	fullOptNanos atomic.Int64
	clones       atomic.Int64
	converged    atomic.Int64

	// The observability plane. The three histograms are always on (one
	// atomic add per execution); trace and slow are nil unless the
	// corresponding Trace* option enables them — emission through a nil
	// tracer/ring is a no-op.
	trace      *obs.Tracer
	slow       *obs.TextRing
	latencyH   *obs.Histogram // execution wall time
	repairH    *obs.Histogram // incremental repair time
	queueH     *obs.Histogram // admission-queue wait
	queueWaits atomic.Int64   // executions that found no free admission slot

	// The memory plane: per-query peak tracked bytes, and the spill
	// counters accumulated across executions.
	peakMemH        *obs.Histogram
	spilledQueries  atomic.Int64
	spillPartitions atomic.Int64
	spillBytes      atomic.Int64
	spillRecursions atomic.Int64
}

// New builds a server over the catalog. The catalog must not be mutated
// afterwards: executions read its rows and the cost model reads its
// statistics concurrently and lock-free.
func New(cat *catalog.Catalog, opts Options) (*Server, error) {
	if cat == nil {
		return nil, fmt.Errorf("server: nil catalog")
	}
	if opts.MaxConcurrent < 1 {
		opts.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if opts.MaxEntries < 0 {
		return nil, fmt.Errorf("server: negative MaxEntries %d", opts.MaxEntries)
	}
	if opts.MemBudgetBytes < 0 {
		return nil, fmt.Errorf("server: negative memory budget %d", opts.MemBudgetBytes)
	}
	var bind catalog.BindSummary
	if opts.DataDir != "" {
		// Bind before anything reads the catalog: loaded tables replace
		// their generated rows and re-analyze, so plans, statistics, and
		// the result cache all see the persisted data from the start.
		var err error
		bind, err = cat.BindDir(opts.DataDir, catalog.DefaultHistogramBuckets)
		if err != nil {
			return nil, fmt.Errorf("server: bind data dir: %w", err)
		}
	}
	stats := opts.Stats
	if stats == nil {
		stats = fbstore.New()
	}
	var rc *rescache.Cache
	if opts.ResultCacheBytes > 0 {
		rc = rescache.New(opts.ResultCacheBytes)
	}
	srv := &Server{
		cat:      cat,
		opts:     opts,
		stats:    stats,
		resCache: rc,
		bind:     bind,
		sem:      make(chan struct{}, opts.MaxConcurrent),
		plans:    newPlanCache(opts.MaxEntries),
		latencyH: obs.NewHistogram(),
		repairH:  obs.NewHistogram(),
		queueH:   obs.NewHistogram(),
		peakMemH: obs.NewHistogram(),
	}
	if opts.TraceEvents > 0 {
		srv.trace = obs.NewTracer(opts.TraceEvents)
	}
	if opts.TraceSlowQuery > 0 {
		srv.slow = obs.NewTextRing(32)
	}
	return srv, nil
}

// Catalog returns the catalog the server executes over.
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// Stats returns the server-wide statistics plane.
func (s *Server) Stats() *fbstore.StatsStore { return s.stats }

// ResultCache returns the server-wide semantic result cache, or nil when
// result caching is disabled.
func (s *Server) ResultCache() *rescache.Cache { return s.resCache }

// SlowTraces returns the retained slow-query dumps, oldest first (empty
// unless Options.TraceSlowQuery is set and a query has tripped it).
func (s *Server) SlowTraces() []string { return s.slow.All() }

// Session opens a new session. Sessions are cheap handles: all heavy state
// (plans, optimizers, statistics) lives in the shared cache so that every
// session benefits from every other session's executions.
func (s *Server) Session() *Session {
	return &Session{srv: s, ID: s.sessions.Add(1)}
}

// StorageInfo reports what the DataDir binding found at New: how many
// tables loaded from disk versus were seeded from generated rows, and the
// total rows loaded. Zero values when Options.DataDir is unset.
func (s *Server) StorageInfo() catalog.BindSummary { return s.bind }

// Shutdown drains the server for a graceful stop: no new executions are
// admitted (Exec returns an error), and Shutdown blocks until every
// in-flight execution has released its admission slot, then — when
// Options.DataDir is set — flushes every table's unflushed appends to its
// directory as immutable segments. Callers stop their listeners
// first, then Shutdown, then read the final Metrics. Safe to call more than
// once; every call waits for the drain (the storage flush runs on the first
// call only — the stores close with it).
func (s *Server) Shutdown() error {
	s.closed.Store(true)
	// Serialize drains: two callers acquiring admission slots concurrently
	// could split the pool between them and deadlock.
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	// Acquiring every admission slot waits out all in-flight executions.
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	for i := 0; i < cap(s.sem); i++ {
		<-s.sem
	}
	if s.opts.DataDir != "" && !s.flushed {
		s.flushed = true
		return s.cat.FlushDir()
	}
	return nil
}

// Session is one client's handle on the server. Safe for concurrent use,
// though clients typically issue one request at a time.
type Session struct {
	srv *Server
	ID  int64
}

// Prepare parses a SQL statement and binds it to the shared plan cache,
// optimizing it from scratch only if no structurally equal statement is
// cached yet. A statement text the cache has bound before resolves through
// the cache's text index, without a parse.
func (sess *Session) Prepare(sql string) (*Stmt, error) {
	return sess.prepare("sql:"+sql, func() (*relalg.Query, error) {
		return sqlmini.Parse(sql, sess.srv.cat, sqlmini.Options{
			Dict: sess.srv.opts.Dict, Date: sess.srv.opts.Date,
		})
	})
}

// PrepareNamed binds a statement from the Options.Named registry, resolving
// repeats through the cache's text index like Prepare.
func (sess *Session) PrepareNamed(name string) (*Stmt, error) {
	return sess.prepare("name:"+name, func() (*relalg.Query, error) {
		q, ok := sess.srv.opts.Named[name]
		if !ok {
			return nil, fmt.Errorf("server: unknown named query %q", name)
		}
		return q, nil
	})
}

// PrepareQuery binds an already-built query to the shared plan cache. The
// query must not be mutated afterwards; validation (and the derived state
// it publishes) is safe even when the same instance is first prepared from
// several goroutines at once.
func (sess *Session) PrepareQuery(q *relalg.Query) (*Stmt, error) {
	return sess.prepare("", func() (*relalg.Query, error) { return q, nil })
}

// prepare is the one bind path. A statement text (empty for a query built
// by the caller) the plan cache's text index holds resolves to its entry.
// Otherwise build's query is validated and resolved to its cache entry,
// which is initialized — the only point where an initial optimization, from
// scratch or by clone, ever happens — and the index remembers the text for
// it.
func (sess *Session) prepare(text string, build func() (*relalg.Query, error)) (*Stmt, error) {
	s := sess.srv
	e := s.plans.lookup(text)
	hit := e != nil
	if !hit {
		q, err := build()
		if err == nil {
			err = q.Validate()
		}
		if err != nil {
			return nil, err
		}
		e, hit = s.plans.resolve(q)
		if err := e.ensureInit(s); err != nil {
			return nil, err
		}
		s.plans.index(text, e)
	}
	if s.trace.Enabled() {
		ev := obs.Event{Kind: obs.KindPrepare, Query: e.hash, Note: "hit"}
		if !hit {
			// warmSeeds is written once inside ensureInit (under e.mu,
			// which this goroutine has since acquired and released), so
			// the read here is ordered after the write.
			ev.Note, ev.A = "miss", int64(e.warmSeeds)
		}
		s.trace.Emit(ev)
	}
	return &Stmt{sess: sess, entry: e, Hit: hit}, nil
}

// Stmt is a prepared statement: a session's handle on a shared cache entry.
type Stmt struct {
	sess  *Session
	entry *planEntry
	// Hit reports whether Prepare found a live cache entry (true) or paid
	// the one-time initial optimization (false).
	Hit bool
}

// CacheKey returns the statement's canonical cache key.
func (st *Stmt) CacheKey() string { return st.entry.key }

// Plan returns a snapshot of the current cached plan. The tree is immutable;
// later repairs swap in fresh trees without touching it.
func (st *Stmt) Plan() *relalg.Plan { return st.entry.cur.Load().plan }

// Query returns the canonical query the statement is bound to.
func (st *Stmt) Query() *relalg.Query { return st.entry.q }

// Result is one execution's outcome. The result set itself goes only to
// the sink of ExecInto, batch by batch, as it is produced.
type Result struct {
	// Rows is the number of result rows (aggregated rows when the query
	// aggregates).
	Rows int64
	// PlanVersion identifies the cached plan generation that executed;
	// it converges once feedback stabilizes.
	PlanVersion uint64
	// Repaired reports whether this execution's feedback triggered an
	// incremental repair of the cached plan.
	Repaired bool
	// Elapsed is the execution (not optimization) wall time, including the
	// time ExecInto's sink spent on the batches.
	Elapsed time.Duration
	// cards are the observed cardinalities the execution fed back.
	cards map[relalg.RelSet]int64
}

// Exec executes the prepared statement and counts its rows: admission,
// snapshot the cached plan, run it on the vectorized executor, then feed the
// observed cardinalities back through the entry's live optimizer. Concurrent
// Execs of the same statement are safe and run in parallel up to the
// admission bound; the repair they trigger is serialized per entry.
func (st *Stmt) Exec() (*Result, error) { return st.ExecInto(nil) }

// ExecInto is Exec with the result set handed to each, one batch of live
// rows at a time on the executing goroutine; the batch is recycled once each
// returns, so each copies out what it keeps. An error from each ends the
// execution as a failed one: the error is returned, its tree is closed and
// dropped, and nothing is fed back. A nil each only counts, as Exec does.
func (st *Stmt) ExecInto(each func(*exec.Batch) error) (*Result, error) {
	res, _, err := st.exec(false, each)
	return res, err
}

// ExplainAnalyze executes the statement once with every operator timed,
// counting its rows, and returns the annotated plan tree alongside the
// result: every operator's batch/row counts and wall time, with
// estimated-vs-actual cardinality and q-error per node. The profiled
// execution is a real one on a held tree like any other, and its feedback
// lands like any other execution's.
func (st *Stmt) ExplainAnalyze() (*Result, string, error) {
	return st.exec(true, nil)
}

// exec is the shared execution path: admit → run into each → hand the run
// back → feed back. With analyze set it returns the run's annotated plan
// tree; a slow-query threshold has every run timed, so the dump of one that
// trips it is complete.
func (st *Stmt) exec(analyze bool, each func(*exec.Batch) error) (*Result, string, error) {
	srv, e := st.sess.srv, st.entry
	traceFrom, err := srv.admit(e)
	if err != nil {
		return nil, "", err
	}
	defer srv.release()
	e.touch()
	snap := e.cur.Load()
	res, run, err := srv.run(e, snap, analyze || srv.opts.TraceSlowQuery > 0, each)
	if err != nil {
		return nil, "", err
	}
	res.cards = run.stats.Snapshot()
	e.estErr.Store(math.Float64bits(run.stats.EstErr()))
	slow := srv.opts.TraceSlowQuery > 0 && res.Elapsed >= srv.opts.TraceSlowQuery
	analyzed := ""
	if analyze || slow {
		analyzed = run.stats.Format()
	}
	// The run goes back only now: the next borrower's Open zeroes the spans
	// the snapshot, the estimation error and the rendering read. A failed
	// run never gets here, and a tree compiled against the result cache
	// refuses to reopen.
	if srv.resCache == nil {
		snap.runs.Put(run)
	}
	if res.Repaired, err = e.feedback(srv, res.cards); err != nil {
		return nil, "", err
	}
	note := ""
	if res.Repaired {
		note = "repaired"
	}
	srv.trace.Emit(obs.Event{Kind: obs.KindExec, Query: e.hash,
		A: res.Rows, B: int64(snap.version), Dur: res.Elapsed, Note: note})

	if slow {
		srv.slowQuery(e, snap, res.Elapsed, analyzed, traceFrom)
	}
	if !analyze {
		analyzed = ""
	}
	return res, analyzed, nil
}

// admit takes one of the MaxConcurrent admission slots for an execution of
// e, blocking while none is free; the caller gives it back with release. It
// refuses once Shutdown has begun: at once when it began before the call,
// else after the wait. A queue wait is counted as the execution parks, only
// when no slot was free, so metrics show the executions still waiting; a
// refused execution takes its count back, and the wait histogram observes
// only admitted ones. It returns the trace sequence the execution's own
// events start after.
func (s *Server) admit(e *planEntry) (traceFrom uint64, err error) {
	if s.closed.Load() {
		return 0, errShutdown
	}
	enqueued := time.Now()
	waited := false
	select {
	case s.sem <- struct{}{}:
	default:
		waited = true
		s.queueWaits.Add(1)
		s.sem <- struct{}{}
	}
	if s.closed.Load() {
		if waited {
			s.queueWaits.Add(-1)
		}
		s.release()
		return 0, errShutdown
	}
	wait := time.Since(enqueued)
	s.queueH.Observe(wait)
	traceFrom = s.trace.Seq()
	s.trace.Emit(obs.Event{Kind: obs.KindQueueWait, Query: e.hash, Dur: wait})
	return traceFrom, nil
}

// errShutdown is admit's refusal once Shutdown has begun.
var errShutdown = fmt.Errorf("server: shutting down")

// release gives back the admission slot admit took.
func (s *Server) release() { <-s.sem }

// run executes snap's plan for e once, timing every operator when timed is
// set. It borrows one of snap's idle held runs, and compiles one — tree,
// RunStats and a memory tracker created even without a budget, so per-query
// peak memory stays observable on unbounded servers — only when none is idle.
// It drains the tree into each (nil counts), records the execution's latency
// (the sink's time included), peak memory and spill, and from its RunStats
// the hash-join tables it kept, the aggregation it maintained and the
// result-cache probe hits and spools.
// The caller hands the run back once it has read the RunStats. The returned
// Result lacks only Repaired and the cards.
func (s *Server) run(e *planEntry, snap *planVersion, timed bool, each func(*exec.Batch) error) (*Result, *heldRun, error) {
	run, _ := snap.runs.Get().(*heldRun)
	start := time.Now()
	if run == nil {
		mem := exec.NewMemTracker(s.opts.MemBudgetBytes)
		mem.SetSpillDir(s.opts.SpillDir)
		comp := &exec.Compiler{Q: e.q, Cat: s.cat, Cache: s.resCache, CacheCands: snap.cands, Mem: mem}
		root, stats, err := comp.CompileVec(snap.plan)
		if err != nil {
			s.failedExecs.Add(1)
			return nil, nil, err
		}
		s.compiles.Add(1)
		run = &heldRun{root: root, stats: stats, mem: mem}
	}
	run.stats.SetTiming(timed)
	rows, err := exec.Drain(run.root, each)
	if err != nil {
		s.failedExecs.Add(1)
		return nil, nil, err
	}
	elapsed := time.Since(start)
	s.latencyH.Observe(elapsed)
	e.execs.Add(1)
	s.buildsReused.Add(int64(run.stats.BuildsReused()))
	s.resultsMaint.Add(int64(run.stats.ResultsMaintained()))

	peak := run.mem.Peak()
	s.peakMemH.ObserveInt64(peak)
	if parts, bytes, recs := run.mem.SpillStats(); parts > 0 {
		s.spilledQueries.Add(1)
		s.spillPartitions.Add(parts)
		s.spillBytes.Add(bytes)
		s.spillRecursions.Add(recs)
		s.trace.Emit(obs.Event{Kind: obs.KindSpill, Query: e.hash,
			A: parts, B: bytes, V: float64(peak)})
	}
	hits, spools := run.stats.CacheDecisions()
	if hits > 0 {
		s.trace.Emit(obs.Event{Kind: obs.KindResultCache, Query: e.hash, Note: "probe-hit", A: int64(hits)})
	}
	if spools > 0 {
		s.trace.Emit(obs.Event{Kind: obs.KindResultCache, Query: e.hash, Note: "spool", A: int64(spools)})
	}
	return &Result{Rows: rows, PlanVersion: snap.version, Elapsed: elapsed}, run, nil
}

// slowQuery traces one slow execution and keeps its dump: a header, the
// query's lifecycle events since its admission, and the per-operator
// profile.
func (s *Server) slowQuery(e *planEntry, snap *planVersion, elapsed time.Duration, analyzed string, fromSeq uint64) {
	s.trace.Emit(obs.Event{Kind: obs.KindSlowQuery, Query: e.hash,
		Dur: elapsed, Note: s.opts.TraceSlowQuery.String()})
	var b strings.Builder
	fmt.Fprintf(&b, "slow query [%s] %s: %v over threshold %v, plan v%d\n",
		e.hash, e.name, elapsed.Round(time.Microsecond), s.opts.TraceSlowQuery, snap.version)
	events := 0
	for _, ev := range s.trace.Since(fromSeq) {
		if ev.Query != e.hash {
			continue
		}
		if events == 0 {
			b.WriteString("trace:\n")
		}
		events++
		fmt.Fprintf(&b, "  %s\n", ev.String())
	}
	b.WriteString(analyzed)
	dump := b.String()
	s.slow.Add(dump)
	if s.opts.TraceOnSlow != nil {
		s.opts.TraceOnSlow(dump)
	}
}

// Query is the one-shot convenience: Prepare + Exec, which counts.
func (sess *Session) Query(sql string) (*Result, error) {
	st, err := sess.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return st.Exec()
}
