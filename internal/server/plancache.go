package server

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/relalg"
)

// planCache is the shared plan cache: planEntry by CanonicalKey, bounded by
// entry count with exact least-recently-used eviction, and the only code
// that reads or writes an entry's recency stamp. Eviction touches neither
// the victim's mutex nor its plan (see the package comment for what an
// evicted entry still does).
//
// The cache also indexes statement texts ("sql:" + SQL or "name:" + a
// registered name) to the entry they were bound to, so a re-prepared text
// skips the parse. A text is indexed only while its entry is cached: an
// entry lists its texts, and eviction deletes them with it.
//
// And it indexes join-graph shapes (shapeKey) to the newest initialized
// entry of each, the template a miss of that shape clones instead of
// optimizing from scratch (planEntry.ensureInit). An entry is registered at
// the end of its initialization, only if that succeeded and the entry is
// still cached, and eviction deletes it, so an uninitialized, failed or
// evicted entry is never a template. Lock order: a miss holds its own
// entry's mu, then takes the template's to clone it; the holder of a
// template's mu never takes another entry's (the template is initialized,
// and feedback and metrics lock only their own entry). The cache's mu is
// never held while an entry's mu is taken.
type planCache struct {
	max int // entry bound (Options.MaxEntries); 0 is unbounded

	mu      sync.RWMutex
	entries map[string]*planEntry
	texts   map[string]*planEntry // statement text -> a cached entry
	shapes  map[string]*planEntry // join-graph shape -> its newest initialized entry
	seq     uint64                // creation stamp of the newest entry

	hits      atomic.Int64 // prepares that found a live entry
	misses    atomic.Int64 // prepares that created one
	evictions atomic.Int64 // entries dropped by the bound
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, entries: map[string]*planEntry{}, texts: map[string]*planEntry{},
		shapes: map[string]*planEntry{}}
}

// resolve returns the cached entry for q's canonical structure, creating it
// (uninitialized: see planEntry.ensureInit) when there is none; hit reports
// which.
func (c *planCache) resolve(q *relalg.Query) (e *planEntry, hit bool) {
	key := CanonicalKey(q)
	now := time.Now().UnixNano()

	c.mu.RLock()
	e = c.entries[key]
	c.mu.RUnlock()
	hit = e != nil
	if e == nil {
		c.mu.Lock()
		if e = c.entries[key]; e != nil {
			hit = true // lost the race to another prepare
		} else {
			c.evictLocked()
			c.seq++
			e = &planEntry{key: key, hash: keyHash(key), q: q, name: q.Name, seq: c.seq}
			// Stamped before it is visible: unstamped, a concurrent miss's
			// eviction would take it for the least recently used entry.
			e.lastUsed.Store(now)
			c.entries[key] = e
		}
		c.mu.Unlock()
	}
	if hit {
		c.hit(e, now)
	} else {
		c.misses.Add(1)
	}
	return e, hit
}

// hit counts a prepare served by the cached entry e and stamps its use.
func (c *planCache) hit(e *planEntry, now int64) {
	e.lastUsed.Store(now)
	c.hits.Add(1)
	e.hits.Add(1)
}

// lookup returns the cached entry the statement text was bound to, counted
// as a hit, or nil when the text is not indexed.
func (c *planCache) lookup(text string) *planEntry {
	c.mu.RLock()
	e := c.texts[text]
	c.mu.RUnlock()
	if e != nil {
		c.hit(e, time.Now().UnixNano())
	}
	return e
}

// index records that the statement text binds to e, unless the text is
// empty or indexed already, or e has been evicted since it was resolved.
func (c *planCache) index(text string, e *planEntry) {
	if text == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.key] != e || c.texts[text] != nil {
		return
	}
	c.texts[text] = e
	e.texts = append(e.texts, text)
}

// evictLocked drops least-recently-used entries, and the statement texts
// indexed to them, until one more fits the bound. O(entries) per victim,
// fine at the cache sizes a bound implies.
func (c *planCache) evictLocked() {
	for c.max > 0 && len(c.entries) >= c.max {
		var lru *planEntry
		var lruAt int64
		for _, e := range c.entries {
			if at := e.lastUsed.Load(); lru == nil || at < lruAt {
				lru, lruAt = e, at
			}
		}
		delete(c.entries, lru.key)
		for _, text := range lru.texts {
			delete(c.texts, text)
		}
		if c.shapes[lru.shape] == lru {
			delete(c.shapes, lru.shape)
		}
		c.evictions.Add(1)
	}
}

// template returns the newest initialized entry of the shape, or nil.
func (c *planCache) template(shape string) *planEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.shapes[shape]
}

// register makes the initialized entry e its shape's template, unless e has
// no shape or has been evicted since it was resolved.
func (c *planCache) register(shape string, e *planEntry) {
	if shape == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.key] == e {
		e.shape = shape
		c.shapes[shape] = e
	}
}

// list returns the cached entries in creation order.
func (c *planCache) list() []*planEntry {
	c.mu.RLock()
	out := make([]*planEntry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	c.mu.RUnlock()
	slices.SortFunc(out, func(a, b *planEntry) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// planEntry is one cache slot: the live incremental optimizer for one
// canonical query structure, plus its feedback calibration state and
// metrics. See the package comment for the locking discipline.
type planEntry struct {
	key  string
	hash string // short digest of key; the trace label for this entry
	q    *relalg.Query
	name string
	seq  uint64 // creation stamp, for stable metrics listings

	// estErr is the entry's latest cardinality estimation error — the
	// RunStats.EstErr of its latest execution — stored as Float64bits so
	// metrics scrapes read it lock-free. It trends to zero as the entry's
	// statistics converge and spikes when the data drifts.
	estErr atomic.Uint64

	// cur is the published {plan, version} pair, swapped as one pointer on
	// every repair so executions always report the generation they
	// actually ran.
	cur      atomic.Pointer[planVersion]
	hits     atomic.Int64
	execs    atomic.Int64
	lastUsed atomic.Int64 // unix nanos of the last prepare/exec (LRU order)
	texts    []string     // statement texts indexed to it; under planCache.mu
	shape    string       // its shapeKey once registered; under planCache.mu

	mu      sync.Mutex // guards everything below
	model   *cost.Model
	opt     *core.Optimizer
	cal     *aqp.Calibrator
	fper    *relalg.Fingerprinter // memoized; not concurrency-safe, use under mu
	initErr error

	fullOpts    int64 // initial optimizations, from scratch or by clone (1)
	fullOptTime time.Duration
	clones      int64 // initial optimizations by clone (0 or 1)
	repairs     int64 // incremental Reoptimize calls
	repairTime  time.Duration
	converged   int64 // executions whose feedback was within threshold
	touched     int64 // cumulative optimizer entries touched by repairs
	warmSeeds   int   // factors seeded from the shared store at init
}

// touch stamps e as just used, so the LRU bound evicts it last.
func (e *planEntry) touch() { e.lastUsed.Store(time.Now().UnixNano()) }

// planVersion is one published plan generation. The tree is immutable;
// version 1 is the initial optimization, each repair bumps it.
type planVersion struct {
	plan    *relalg.Plan
	version uint64
	// cands are the plan's cacheable subtrees for the semantic result
	// cache, derived once per generation (candidates match plan nodes by
	// identity, so they are only valid against exactly this tree). Nil when
	// result caching is disabled.
	cands []exec.CacheCandidate
	// runs holds this generation's idle compiled trees (*heldRun), borrowed
	// by Server.run and handed back by Stmt.exec. A sync.Pool keeps the
	// trees, their build tables and batch scratch while the server is busy
	// and lets the GC take them once it idles.
	runs sync.Pool
}

// heldRun is one compiled execution of a plan version: the re-openable
// tree, the RunStats it counts into, and the memory tracker it charges.
// One execution at a time holds it.
type heldRun struct {
	root  exec.VecIterator
	stats *exec.RunStats
	mem   *exec.MemTracker
}

// warmStartBound caps the subexpression enumeration at warm start: beyond
// this many relations the connected-subset lattice is too large to probe
// the store exhaustively, so oversized queries simply start cold. Every
// workload query here is far below it (the paper's largest is an 8-way
// join).
const warmStartBound = 12

// warmSets enumerates the candidate expressions to warm-start from the
// store: every connected subexpression of q (the same no-Cartesian-product
// space the enumerator explores).
func warmSets(q *relalg.Query) []relalg.RelSet {
	if len(q.Rels) > warmStartBound {
		return nil
	}
	all := q.AllRels()
	sets := make([]relalg.RelSet, 0, 1<<uint(len(q.Rels))-1)
	all.ProperSubsets(func(sub relalg.RelSet) {
		if q.Connected(sub) {
			sets = append(sets, sub)
		}
	})
	sets = append(sets, all)
	return sets
}

// ensureInit builds the entry's model and optimizer and runs its initial
// optimization, exactly once. The optimizer searches relalg.ServedSpace(),
// the space the executor runs as priced, not the paper's full Table 1 space.
// Before that optimization the model is warm-started: every connected
// subexpression whose fingerprint the shared store already knows gets its
// learned factor seeded, so a structurally new query over hot tables
// optimizes against the workload's converged statistics from the very first
// plan — and an entry re-admitted after eviction picks up exactly where its
// evicted predecessor left off. When the cache holds a template of the
// statement's join graph the optimization is a clone of its state repaired
// under the new model (fromTemplate); only a never-seen shape, or a
// statement without one, enumerates from scratch. Errors are sticky: a
// query whose model cannot be built fails the same way on every prepare.
func (e *planEntry) ensureInit(s *Server) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.opt != nil || e.initErr != nil {
		return e.initErr
	}
	m, err := cost.NewModel(e.q, s.cat, cost.DefaultParams())
	if err != nil {
		e.initErr = err
		return err
	}
	fp := relalg.NewFingerprinter(e.q)
	cal := aqp.NewSharedCalibrator(s.stats, fp.Fingerprint, true, 0)
	e.warmSeeds = cal.WarmStart(m, warmSets(e.q))
	s.warmSeeds.Add(int64(e.warmSeeds))
	start := time.Now()
	shape := shapeKey(e.q)
	opt, plan := e.fromTemplate(s, shape, m)
	if opt != nil {
		e.clones++
		s.clones.Add(1)
	} else {
		if opt, err = core.New(m, relalg.ServedSpace(), core.PruneAll); err == nil {
			plan, err = opt.Optimize()
		}
		if err != nil {
			e.initErr = err
			return err
		}
	}
	e.model = m
	e.opt = opt
	e.cal = cal
	e.fper = fp
	elapsed := time.Since(start)
	e.fullOpts++
	e.fullOptTime += elapsed
	s.fullOpts.Add(1)
	s.fullOptNanos.Add(int64(elapsed))
	e.cur.Store(&planVersion{plan: plan, version: 1, cands: e.cacheCands(s, plan)})
	s.plans.register(shape, e)
	return nil
}

// fromTemplate clones the optimizer of shape's template into m, holding the
// template's mu for the copy only, and repairs the clone, whose every entry
// Clone stages for re-pricing, to m's optimum. It returns nil when there is
// no template or the repair fails; the caller then optimizes from scratch.
func (e *planEntry) fromTemplate(s *Server, shape string, m *cost.Model) (*core.Optimizer, *relalg.Plan) {
	t := s.plans.template(shape)
	if t == nil {
		return nil, nil
	}
	rel, pred := shapeMaps(t.q, e.q)
	t.mu.Lock()
	opt := t.opt.Clone(m, rel, pred)
	t.mu.Unlock()
	if opt == nil {
		return nil, nil
	}
	plan, err := opt.Reoptimize()
	if err != nil {
		return nil, nil
	}
	return opt, plan
}

// cacheCands derives the result-cache candidates for a freshly published
// plan tree. Caller holds e.mu (the Fingerprinter memo is not
// concurrency-safe).
func (e *planEntry) cacheCands(s *Server, plan *relalg.Plan) []exec.CacheCandidate {
	if !s.resCache.Enabled() {
		return nil
	}
	return exec.BuildCacheCandidates(e.q, plan, e.fper)
}

// feedback folds one execution's observed cardinalities into the shared
// stats store and incrementally repairs the cached plan when any factor
// moved beyond the feedback threshold. This is the §4 view-maintenance loop
// running as a service: UpdateCardFactor stages the deltas, Reoptimize
// repairs only the affected region, and the repaired plan is published
// atomically for every session. A repair is counted, timed and traced here;
// repaired reports it.
func (e *planEntry) feedback(s *Server, cards map[relalg.RelSet]int64) (repaired bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	changed := e.cal.Observe(cards, e.model)
	if len(changed) == 0 {
		e.converged++
		s.converged.Add(1)
		return false, nil
	}
	for set, f := range changed {
		e.opt.UpdateCardFactor(set, f)
	}
	plan, err := e.opt.Reoptimize()
	if err != nil {
		return false, err
	}
	met := e.opt.Metrics()
	e.repairs++
	e.repairTime += met.Elapsed
	e.touched += int64(met.TouchedEntries)
	s.repairs.Add(1)
	s.repairNanos.Add(int64(met.Elapsed))
	s.repairH.Observe(met.Elapsed)
	next := &planVersion{plan: plan, version: e.cur.Load().version + 1,
		cands: e.cacheCands(s, plan)}
	e.cur.Store(next)
	s.trace.Emit(obs.Event{Kind: obs.KindRepair, Query: e.hash,
		A: int64(met.TouchedEntries), B: int64(next.version), Dur: met.Elapsed})
	return true, nil
}
