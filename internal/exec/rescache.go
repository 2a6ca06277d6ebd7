package exec

// This file integrates the cross-query semantic result cache
// (internal/rescache) into the vectorized compiler as a spool/probe pair.
// The serving layer derives cache CANDIDATES from a plan once per plan
// version — the cacheable subtrees, each with its canonical fingerprint —
// and hands them to the Compiler. At compile time every candidate is
// resolved into a DECISION:
//
//   - probe hit: the whole subtree is replaced by a cached scan handing out
//     zero-copy column windows over the materialized result, picked from the
//     entry's canonical column order into this plan's schema order, and
//     the entry's recorded per-node cardinalities are replayed into RunStats
//     so the adaptive feedback loop observes byte-identical counts;
//   - miss: the subtree compiles normally and is wrapped in a spool that
//     tees its batches into a materialization, places it at its canonical
//     column positions at end-of-stream and stores it, pinned to the data
//     versions of its base tables.
//
// Entries are column-sparse: a subtree carries only its live columns (see
// live.go), and which those are depends on the consuming query — its
// aggregation inputs and the predicates crossing the subtree's boundary —
// not on the fingerprint. An entry therefore keeps the canonical width with
// nil for every column its producer did not carry, and a probe hits only
// when the entry holds every column of the consumer's schema; a narrower
// entry is a plain miss and the consumer's spool replaces it.
//
// Soundness leans on three invariants. First, equal fingerprints imply
// isomorphic subexpressions (relalg.Fingerprinter), and candidates refuse
// sets whose canonical member order is ambiguous (self-joins), so the
// canonical column order is well-defined across queries. Second, only
// subtrees promising no physical property (Prop == Any) are candidates: a
// cached result is a multiset, and every order-sensitive consumer (merge
// join, sorted output) sits behind an explicit Prop or Enforce the
// candidate walk refuses. Third, a probe only hits when the entry records a
// cardinality for every counted node of THIS plan's subtree shape; a
// fingerprint-equal entry produced by a differently-shaped plan bypasses to
// a miss and is overwritten by the new spool.

import (
	"fmt"
	"slices"

	"repro/internal/relalg"
	"repro/internal/rescache"
)

// CachePoint pairs one counted node of a cacheable subtree with its
// canonical fingerprint: the unit of cardinality replay.
type CachePoint struct {
	Set relalg.RelSet
	FP  string
}

// CacheCandidate is one cacheable subtree of a specific plan tree.
type CacheCandidate struct {
	// Node is the subtree root inside the plan the candidate was built
	// from; decisions are matched by node identity, so candidates must be
	// rebuilt whenever the plan tree is replaced (every repair).
	Node *relalg.Plan
	// Expr is the subtree's relation set in the minting query.
	Expr relalg.RelSet
	// FP is the canonical fingerprint of Expr — the cache key.
	FP string
	// CanonOrder lists Expr's member relations in canonical fingerprint
	// order: the column order of the materialized entry.
	CanonOrder []int
	// Counts lists every node of the subtree whose span the compiler counts
	// into RunStats (the root first), with its fingerprint.
	Counts []CachePoint
}

// BuildCacheCandidates walks plan and returns its cacheable subtrees in
// pre-order (parents before children). A node qualifies when it is a
// filtered table scan or a join, promises no physical property, and its
// member order is unambiguous (no self-join tie-break). The walk mirrors
// the compiler's counting structure: the folded inner leaf of an index
// nested-loops join is neither counted nor offered. The Fingerprinter must be the minting query's; the caller
// serializes access to it (it memoizes internally).
func BuildCacheCandidates(q *relalg.Query, plan *relalg.Plan, fper *relalg.Fingerprinter) []CacheCandidate {
	var out []CacheCandidate
	var walk func(p *relalg.Plan)
	walk = func(p *relalg.Plan) {
		if p == nil {
			return
		}
		if cacheEligible(q, p) && !fper.AmbiguousOrder(p.Expr) {
			out = append(out, CacheCandidate{
				Node:       p,
				Expr:       p.Expr,
				FP:         fper.Fingerprint(p.Expr),
				CanonOrder: fper.CanonicalMembers(p.Expr),
				Counts:     collectCachePoints(nil, p, fper),
			})
		}
		switch p.Log {
		case relalg.LogScan:
		case relalg.LogEnforce:
			walk(p.Left)
		case relalg.LogJoin:
			if p.Phy != relalg.PhyIndexNLJoin {
				walk(p.Left)
			}
			walk(p.Right)
		}
	}
	walk(plan)
	return out
}

// cacheEligible applies the per-node candidacy rules.
func cacheEligible(q *relalg.Query, p *relalg.Plan) bool {
	if p.Prop.Kind != relalg.PropAny {
		return false
	}
	switch p.Log {
	case relalg.LogScan:
		// Unfiltered scans would cache a copy of the base table; index
		// scans promise an order even when Prop does not demand one.
		return p.Phy != relalg.PhyIndexScan && len(q.ScanPredsOf(p.Rel)) > 0
	case relalg.LogJoin:
		return true
	}
	return false
}

// collectCachePoints appends the (set, fingerprint) of every node the
// compiler counts within the subtree, mirroring compileVec: scans and joins
// are counted, enforcers are not, and the inner leaf of an index
// nested-loops join is folded into the join operator uncounted.
func collectCachePoints(out []CachePoint, p *relalg.Plan, fper *relalg.Fingerprinter) []CachePoint {
	if p == nil {
		return out
	}
	switch p.Log {
	case relalg.LogScan:
		out = append(out, CachePoint{Set: p.Expr, FP: fper.Fingerprint(p.Expr)})
	case relalg.LogEnforce:
		out = collectCachePoints(out, p.Left, fper)
	case relalg.LogJoin:
		out = append(out, CachePoint{Set: p.Expr, FP: fper.Fingerprint(p.Expr)})
		if p.Phy != relalg.PhyIndexNLJoin {
			out = collectCachePoints(out, p.Left, fper)
		}
		out = collectCachePoints(out, p.Right, fper)
	}
	return out
}

// cacheDecision is one resolved candidate: serve (entry != nil) or spool.
type cacheDecision struct {
	cand *CacheCandidate
	// schema is the subtree's output schema (PlanSchema of the candidate
	// node), canon the canonical column position of each of its columns, and
	// width the canonical width: every member relation's full arity.
	schema   []relalg.ColID
	canon    []int
	width    int
	entry    *rescache.Entry         // probe hit: serve these columns
	versions []rescache.TableVersion // spool: versions pinned at decision time
}

// cacheLayout resolves where the candidate's output columns sit in its
// entry's canonical column order: member relations in canonical fingerprint
// order, each contributing its full base-table arity.
func (c *Compiler) cacheLayout(cand *CacheCandidate) (*cacheDecision, error) {
	d := &cacheDecision{cand: cand}
	base := make(map[int]int, len(cand.CanonOrder))
	for _, rel := range cand.CanonOrder {
		t, err := c.Cat.Table(c.Q.Rels[rel].Table)
		if err != nil {
			return nil, err
		}
		base[rel] = d.width
		d.width += len(t.ColNames)
	}
	var err error
	if d.schema, err = c.PlanSchema(cand.Node); err != nil {
		return nil, err
	}
	d.canon = make([]int, len(d.schema))
	for i, col := range d.schema {
		d.canon[i] = base[col.Rel] + col.Off
	}
	return d, nil
}

// servedBy reports whether a stored entry can serve this plan's subtree: it
// has the canonical width, holds every column of the subtree's schema, and
// records a cardinality for every node this plan shape counts.
func (d *cacheDecision) servedBy(e *rescache.Entry) bool {
	if len(e.Cols) != d.width || int64(e.N) != e.Cards[d.cand.FP] {
		return false
	}
	for _, k := range d.canon {
		if e.Cols[k] == nil {
			return false
		}
	}
	for _, cp := range d.cand.Counts {
		if _, ok := e.Cards[cp.FP]; !ok {
			return false
		}
	}
	return true
}

// tableVersion resolves a base table's current data version for probe
// revalidation.
func (c *Compiler) tableVersion(table string) (uint64, bool) {
	t, err := c.Cat.Table(table)
	if err != nil {
		return 0, false
	}
	return t.DataVersion(), true
}

// resolveCache turns the candidate list into per-node decisions for this
// compilation. Candidates arrive in pre-order, so containment is resolved
// outermost-first: everything inside a probe hit is skipped (those nodes are
// never compiled), and at most one spool is placed along any root-to-leaf
// path (a nested spool would tee rows the outer spool already pays for).
func (c *Compiler) resolveCache() {
	c.decisions, c.probeHits, c.spools = nil, 0, 0
	if !c.Cache.Enabled() || len(c.CacheCands) == 0 {
		return
	}
	var hitRoots, spoolRoots []relalg.RelSet
	under := func(s relalg.RelSet, roots []relalg.RelSet) bool {
		for _, r := range roots {
			if s.IsSubset(r) {
				return true
			}
		}
		return false
	}
	for i := range c.CacheCands {
		cand := &c.CacheCands[i]
		if under(cand.Expr, hitRoots) {
			continue
		}
		d, err := c.cacheLayout(cand)
		if err != nil {
			continue // compiling the node reports it
		}
		if d.entry, _ = c.Cache.Probe(cand.FP, c.tableVersion, d.servedBy); d.entry != nil {
			if c.decisions == nil {
				c.decisions = map[*relalg.Plan]*cacheDecision{}
			}
			c.decisions[cand.Node] = d
			hitRoots = append(hitRoots, cand.Expr)
			c.probeHits++
			continue
		}
		if under(cand.Expr, spoolRoots) {
			continue
		}
		versions := make([]rescache.TableVersion, 0, len(cand.CanonOrder))
		usable := true
		for _, rel := range cand.CanonOrder {
			name := c.Q.Rels[rel].Table
			v, ok := c.tableVersion(name)
			if !ok {
				usable = false
				break
			}
			versions = append(versions, rescache.TableVersion{Table: name, Version: v})
		}
		if !usable {
			continue
		}
		if c.decisions == nil {
			c.decisions = map[*relalg.Plan]*cacheDecision{}
		}
		d.versions = versions
		c.decisions[cand.Node] = d
		spoolRoots = append(spoolRoots, cand.Expr)
		c.spools++
	}
}

// CacheDecisions reports the result-cache probe hits and spools the latest
// CompileVec decided: this compilation's own, whatever its neighbours do.
func (c *Compiler) CacheDecisions() (probeHits, spools int) { return c.probeHits, c.spools }

// takeDecision pops the decision attached to a plan node, if any. Popping
// (rather than reading) lets applyCacheDecision recurse into compileVec on
// the same node to build a spool's input without re-triggering itself.
func (c *Compiler) takeDecision(p *relalg.Plan) *cacheDecision {
	d := c.decisions[p]
	if d != nil {
		delete(c.decisions, p)
	}
	return d
}

// applyCacheDecision compiles a decided node: a probe hit becomes a cached
// scan over the entry's columns picked into this plan's schema order, with
// the entry's cardinalities replayed into RunStats (the subtree's operators
// never exist, so nothing double-counts); a miss compiles the subtree
// normally and wraps it in a spool.
func (c *Compiler) applyCacheDecision(d *cacheDecision, p *relalg.Plan, stats *RunStats) (VecIterator, []relalg.ColID, error) {
	if d.entry != nil {
		cols := make([][]int64, len(d.canon))
		for i, k := range d.canon {
			cols[i] = d.entry.Cols[k]
		}
		for _, cp := range d.cand.Counts {
			*stats.counter(cp.Set) = d.entry.Cards[cp.FP]
		}
		return NewVecScan(cols, d.entry.N, ScanFilter{}), d.schema, nil
	}

	// Compile the missed subtree (the decision is popped, so this compiles
	// p itself, shim included, inside the spool: the spool reads p's count
	// at end of stream). An entry holds rows, so a spooled join enumerates
	// whatever consumes it.
	in, schema, err := c.compileVec(p, stats, false)
	if err != nil {
		return nil, nil, err
	}
	if !slices.Equal(schema, d.schema) {
		return nil, nil, fmt.Errorf("exec: cache candidate %v: compiled schema %v != planned schema %v",
			d.cand.Expr, schema, d.schema)
	}
	return &spoolOp{
		in:       in,
		cache:    c.Cache,
		fp:       d.cand.FP,
		canon:    d.canon,
		width:    d.width,
		counts:   d.cand.Counts,
		stats:    stats,
		versions: d.versions,
		maxBytes: c.Cache.MaxBytes(),
	}, schema, nil
}

// spoolOp tees its input's batches into a materialization while streaming
// them onward unchanged. At end of stream it places the materialized
// columns at their canonical positions, attaches the subtree's observed
// cardinalities (final by then — the whole subtree has drained) and the
// pinned table versions, and stores the entry. Teeing is abandoned — the
// stream continues untouched — if the materialization outgrows the cache's
// whole byte budget, or on any error; an operator tree torn down before end
// of stream simply never stores.
type spoolOp struct {
	in       VecIterator
	cache    *rescache.Cache
	fp       string
	canon    []int // subtree schema position -> canonical column
	width    int   // canonical width of the entry
	counts   []CachePoint
	stats    *RunStats
	versions []rescache.TableVersion
	maxBytes int64

	data      colData
	abandoned bool
	done      bool
}

func (s *spoolOp) Open() error { return s.in.Open() }

func (s *spoolOp) Next() (*Batch, error) {
	b, err := s.in.Next()
	if err != nil {
		s.abandoned = true
		s.data = colData{}
		return b, err
	}
	if b == nil {
		s.finish()
		return nil, nil
	}
	if err := unweighted(b, "a result-cache spool"); err != nil {
		s.abandoned = true
		s.data = colData{}
		return nil, err
	}
	if !s.abandoned {
		s.data.appendBatch(b)
		if colBytes(len(s.canon), s.data.n) > s.maxBytes {
			s.abandoned = true
			s.data = colData{}
		}
	}
	return b, nil
}

func (s *spoolOp) Close() error { return s.in.Close() }

// finish builds and stores the entry, once. The held columns are copied
// into one exact-size backing array: the append-grown tee buffers carry up to
// a quarter of slack capacity each, which a long-lived entry would pin well
// past its accounted size.
func (s *spoolOp) finish() {
	if s.abandoned || s.done {
		return
	}
	s.done = true
	n := s.data.n
	held := flatCols(len(s.canon), n)
	cols := make([][]int64, s.width)
	for i, k := range s.canon {
		if s.data.cols != nil {
			copy(held[i], s.data.cols[i])
		}
		cols[k] = held[i]
	}
	s.data = colData{}
	cards := make(map[string]int64, len(s.counts))
	for _, cp := range s.counts {
		cards[cp.FP] = *s.stats.counter(cp.Set)
	}
	s.cache.Store(s.fp, &rescache.Entry{
		Cols: cols, N: n, Cards: cards, Versions: s.versions,
	})
}
