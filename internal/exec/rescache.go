package exec

// This file integrates the cross-query semantic result cache
// (internal/rescache) into the vectorized compiler as a spool/probe pair.
// The serving layer derives cache CANDIDATES from a plan once per plan
// version — the cacheable subtrees, each with its canonical fingerprint —
// and hands them to the Compiler, which decides each candidate node when its
// recursion reaches it (compileCandidate):
//
//   - probe hit: the whole subtree is replaced by a cached scan handing out
//     zero-copy column windows over the materialized result, picked from the
//     entry's canonical column order into this plan's schema order; every
//     counted node of the subtree keeps its shim, record-only, replaying the
//     entry's recorded cardinality (profile.go), so the adaptive feedback loop, EstErr and
//     EXPLAIN ANALYZE observe byte-identical counts;
//   - miss: the subtree compiles normally and is wrapped in a spool that
//     tees its batches into a materialization, places it at its canonical
//     column positions at end-of-stream and stores it under the catalog.Pin
//     of its base tables, recorded before the subtree compiles.
//
// Entries are column-sparse: a subtree carries only its live columns (see
// live.go), and which those are depends on the consuming query — its
// aggregation inputs and the predicates crossing the subtree's boundary —
// not on the fingerprint. An entry therefore keeps the canonical width with
// nil for every column its producer did not carry, and a probe hits only
// when the entry holds every column of the consumer's schema; a narrower
// entry is a plain miss and the consumer's spool replaces it.
//
// Soundness leans on two invariants. First, equal fingerprints imply
// isomorphic subexpressions (relalg.Fingerprinter), and candidates refuse
// sets whose canonical member order is ambiguous (self-joins), so the
// canonical column order is well-defined across queries. Second, a probe
// only hits when the entry records a cardinality for every counted node of
// THIS plan's subtree shape; a fingerprint-equal entry produced by a
// differently-shaped plan bypasses to a miss and is overwritten by the new
// spool. A cached result is a multiset, which is all any consumer needs:
// nothing the executor runs reads an order, so a subtree that promises one
// (a sorted or index scan, a join under a sort enforcer) is cached like any
// other.

import (
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/relalg"
	"repro/internal/rescache"
)

// CachePoint pairs one counted node of a cacheable subtree with its
// canonical fingerprint: the unit of cardinality replay.
type CachePoint struct {
	Node *relalg.Plan
	FP   string
}

// CacheCandidate is one cacheable subtree of a specific plan tree.
type CacheCandidate struct {
	// Node is the subtree root inside the plan the candidate was built
	// from; the compiler matches it by node identity, so candidates must be
	// rebuilt whenever the plan tree is replaced (every repair).
	Node *relalg.Plan
	// Expr is the subtree's relation set in the minting query.
	Expr relalg.RelSet
	// FP is the canonical fingerprint of Expr — the cache key.
	FP string
	// CanonOrder lists Expr's member relations in canonical fingerprint
	// order: the column order of the materialized entry.
	CanonOrder []int
	// Counts lists every node of the subtree the compiler shims (the root
	// first), with its fingerprint.
	Counts []CachePoint
}

// BuildCacheCandidates walks plan and returns its cacheable subtrees in
// pre-order (parents before children). A node qualifies when it is a
// filtered scan or a join and its member order is unambiguous (no self-join
// tie-break). The Fingerprinter must be the minting query's; the caller
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
		walk(p.Left)
		walk(p.Right)
	}
	walk(plan)
	return out
}

// cacheEligible applies the per-node candidacy rules: every join qualifies,
// and a scan only when it filters — an unfiltered one would cache a copy of
// the base table.
func cacheEligible(q *relalg.Query, p *relalg.Plan) bool {
	switch p.Log {
	case relalg.LogScan:
		return len(q.ScanPredsOf(p.Rel)) > 0
	case relalg.LogJoin:
		return true
	}
	return false
}

// collectCachePoints appends the (node, fingerprint) of every node the
// compiler shims within the subtree, mirroring compileVec: every scan and
// join is shimmed, an enforcer is not.
func collectCachePoints(out []CachePoint, p *relalg.Plan, fper *relalg.Fingerprinter) []CachePoint {
	if p == nil {
		return out
	}
	if p.Log != relalg.LogEnforce {
		out = append(out, CachePoint{Node: p, FP: fper.Fingerprint(p.Expr)})
	}
	out = collectCachePoints(out, p.Left, fper)
	return collectCachePoints(out, p.Right, fper)
}

// cacheLayout is where a candidate's output columns sit in its entry: schema
// is the subtree's output schema (PlanSchema of the candidate node), canon
// the canonical column position of each of its columns, and width the
// canonical width — every member relation's full arity.
type cacheLayout struct {
	cand   *CacheCandidate
	schema []relalg.ColID
	canon  []int
	width  int
}

// cacheLayout resolves where the candidate's output columns sit in its
// entry's canonical column order: member relations in canonical fingerprint
// order, each contributing its full base-table arity.
func (c *Compiler) cacheLayout(cand *CacheCandidate) (*cacheLayout, error) {
	l := &cacheLayout{cand: cand}
	base := make(map[int]int, len(cand.CanonOrder))
	for _, rel := range cand.CanonOrder {
		t, err := c.Cat.Table(c.Q.Rels[rel].Table)
		if err != nil {
			return nil, err
		}
		base[rel] = l.width
		l.width += len(t.ColNames)
	}
	var err error
	if l.schema, err = c.PlanSchema(cand.Node); err != nil {
		return nil, err
	}
	l.canon = make([]int, len(l.schema))
	for i, col := range l.schema {
		l.canon[i] = base[col.Rel] + col.Off
	}
	return l, nil
}

// servedBy reports whether a stored entry can serve this plan's subtree: it
// has the canonical width, holds every column of the subtree's schema, and
// records a cardinality for every node this plan shape counts.
func (l *cacheLayout) servedBy(e *rescache.Entry) bool {
	if len(e.Cols) != l.width || int64(e.N) != e.Cards[l.cand.FP] {
		return false
	}
	for _, k := range l.canon {
		if e.Cols[k] == nil {
			return false
		}
	}
	for _, cp := range l.cand.Counts {
		if _, ok := e.Cards[cp.FP]; !ok {
			return false
		}
	}
	return true
}

// candidate returns the cache candidate rooted at p, nil when there is none
// or the tree compiles without a cache.
func (c *Compiler) candidate(p *relalg.Plan) *CacheCandidate {
	if !c.Cache.Enabled() {
		return nil
	}
	for i := range c.CacheCands {
		if c.CacheCands[i].Node == p {
			return &c.CacheCands[i]
		}
	}
	return nil
}

// compileCandidate compiles the candidate's node, which compileVec reaches in
// BuildCacheCandidates' pre-order, so the cache sees the same probe sequence
// whatever the plan. A probe hit becomes a scan over the entry's columns
// picked into this plan's schema order, and every counted node of the
// subtree a record-only shim replaying the entry's count; nothing under it
// is compiled. A miss with no spool above compiles the node in a spool (at
// most one per root-to-leaf path: a nested one would tee rows the outer one
// already pays for); a miss under one compiles the node as any other.
func (c *Compiler) compileCandidate(cand *CacheCandidate, stats *RunStats, weighted, spooled bool) (VecIterator, []relalg.ColID, error) {
	l, err := c.cacheLayout(cand)
	if err != nil {
		return c.compileNode(cand.Node, stats, weighted, spooled) // which reports it
	}
	if e, _ := c.Cache.Probe(cand.FP, l.servedBy); e != nil {
		cols := make([][]int64, len(l.canon))
		for i, k := range l.canon {
			cols[i] = e.Cols[k]
		}
		for _, cp := range cand.Counts {
			op := c.span(nil, cp.Node, nil, stats)
			op.kept.Rows = e.Cards[cp.FP]
			op.replay()
		}
		stats.hits++
		return NewVecScan(cols, e.N, ScanFilter{}), l.schema, nil
	}
	if spooled {
		return c.compileNode(cand.Node, stats, weighted, true)
	}
	// The pin is recorded before the subtree compiles: a candidate nested in
	// it may hit, and its entry's rows are then the snapshots current at its
	// probe, never older than these.
	pin := c.pin(cand.Expr)
	pin.Record()
	// An entry holds rows, so a spooled join enumerates whatever consumes it.
	in, schema, err := c.compileNode(cand.Node, stats, false, true)
	if err != nil {
		return nil, nil, err
	}
	if !slices.Equal(schema, l.schema) {
		return nil, nil, fmt.Errorf("exec: cache candidate %v: compiled schema %v != planned schema %v",
			cand.Expr, schema, l.schema)
	}
	stats.spools++
	return &spoolOp{in: in, cache: c.Cache, layout: l, stats: stats, pin: pin}, schema, nil
}

// spoolOp tees its input's batches into a materialization while streaming
// them onward unchanged. At end of stream it places the materialized
// columns at their canonical positions, attaches the subtree's observed
// cardinalities (final by then — the whole subtree has drained) and the pin
// of its base tables, and stores the entry. Teeing is abandoned — the
// stream continues untouched — if the materialization outgrows the cache's
// whole byte budget, or on any error; an operator tree torn down before end
// of stream simply never stores.
type spoolOp struct {
	in     VecIterator
	cache  *rescache.Cache
	layout *cacheLayout
	stats  *RunStats
	pin    catalog.Pin

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
		if colBytes(len(s.layout.canon), s.data.n) > s.cache.MaxBytes() {
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
	l, n := s.layout, s.data.n
	held := flatCols(len(l.canon), n)
	cols := make([][]int64, l.width)
	for i, k := range l.canon {
		if s.data.cols != nil {
			copy(held[i], s.data.cols[i])
		}
		cols[k] = held[i]
	}
	s.data = colData{}
	cards := make(map[string]int64, len(l.cand.Counts))
	for _, cp := range l.cand.Counts {
		cards[cp.FP], _ = s.stats.Card(cp.Node.Expr)
	}
	s.cache.Store(l.cand.FP, &rescache.Entry{Cols: cols, N: n, Cards: cards, Pin: s.pin})
}
