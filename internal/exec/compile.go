package exec

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/relalg"
	"repro/internal/rescache"
	"repro/internal/storage"
)

// RunStats is the record of one execution of a compiled tree: the span of
// every shimmed node (profile.go) and, in Cards, the actual output
// cardinality per subexpression — the Rows of the scan and join spans, or a
// result-cache entry's replayed count. The adaptive layer compares the
// cardinalities with the optimizer's estimates and feeds the ratios back as
// cardinality updates; Format renders the whole record as EXPLAIN ANALYZE.
type RunStats struct {
	Cards map[relalg.RelSet]*int64

	q     *relalg.Query
	plan  *relalg.Plan
	ops   []*spanOp // every shim of the tree
	agg   *spanOp   // the aggregation's, nil without one
	timed bool      // SetTiming
}

// Card returns the observed cardinality of a subexpression.
func (s *RunStats) Card(set relalg.RelSet) (int64, bool) {
	if p, ok := s.Cards[set]; ok {
		return *p, true
	}
	return 0, false
}

// counter returns the accumulator for a subexpression, creating it when
// first requested.
func (s *RunStats) counter(set relalg.RelSet) *int64 {
	n, ok := s.Cards[set]
	if !ok {
		n = new(int64)
		s.Cards[set] = n
	}
	return n
}

// Reset zeroes every span; a re-opened tree starts its execution with it.
func (s *RunStats) Reset() {
	for _, op := range s.ops {
		op.sp = obs.Span{}
	}
}

// Snapshot copies the observed cardinalities into a plain map — the handoff
// from one finished execution to the feedback consumer (the adaptive loop or
// the serving layer's shared stats store). It must only be called after the
// operator tree has been drained and closed: until then its operators are
// still counting.
func (s *RunStats) Snapshot() map[relalg.RelSet]int64 {
	out := make(map[relalg.RelSet]int64, len(s.Cards))
	for set, n := range s.Cards {
		out[set] = *n
	}
	return out
}

// Compiler turns a physical plan into an operator tree over concrete data.
// What a compile decides is fixed in the tree; what differs per execution —
// the tables' snapshots, the spans and cardinalities in RunStats, whether
// operators are timed (RunStats.SetTiming) — is set when an execution opens
// it, so one tree serves every execution, profiled or not.
type Compiler struct {
	Q   *relalg.Query
	Cat *catalog.Catalog
	// Parallelism is vestigial and never consulted: the executor is serial.
	// It stays only because the benchmark module (benchmarks/) sets it to 1,
	// and that module changes only together with the benchmark; the next
	// such change deletes the field with its setting.
	Parallelism int
	// Cache, when enabled, is the server-wide semantic result cache, and
	// CacheCands the plan's cacheable subtrees (BuildCacheCandidates on
	// THIS plan tree — candidates match by node identity). CompileVec
	// resolves them into probe hits (subtree replaced by a cached scan) or
	// spools (subtree teed into the cache); see rescache.go.
	Cache      *rescache.Cache
	CacheCands []CacheCandidate
	// Mem is the query's memory tracker, and the one way to bound its
	// memory: under NewMemTracker(limit) with limit > 0, operators that can
	// go out of core (every join's build side — a merge or index-NL join's
	// among them, each running on the hash join — and hash aggregation)
	// spill under grace hashing instead of exceeding the budget, into the
	// tracker's SetSpillDir directory; what cannot (mem.go lists it) charges
	// through and records overage. Nil keeps the unbounded execution paths
	// exactly. The tracker belongs to the compiled tree and is held with it:
	// nothing is charged between its executions, and peak, overage and spill
	// counters describe the latest one.
	Mem *MemTracker
	// decisions maps plan nodes to their resolved cache decision for the
	// current CompileVec call; probeHits and spools count what it decided.
	decisions         map[*relalg.Plan]*cacheDecision
	probeHits, spools int
}

// CompileVec builds the vectorized (batch-at-a-time) operator tree for
// plan, wrapping every plan node's operator and the query's aggregation (if
// any) on top in its span shim (profile.go). It returns the root operator and
// the record every execution of it fills: cardinalities for feedback, spans
// for EXPLAIN ANALYZE.
func (c *Compiler) CompileVec(plan *relalg.Plan) (VecIterator, *RunStats, error) {
	stats := &RunStats{Cards: map[relalg.RelSet]*int64{}, q: c.Q, plan: plan,
		ops: make([]*spanOp, 0, planNodes(plan)+1)}
	c.resolveCache()
	// The aggregation reads Batch.Mult; a root without one is drained as rows.
	v, schema, err := c.compileVec(plan, stats, c.Q.Agg != nil)
	if err != nil {
		return nil, nil, err
	}
	if c.Q.Agg != nil {
		spec, err := c.aggSpec(schema)
		if err != nil {
			return nil, nil, err
		}
		agg := NewVecHashAgg(v, spec)
		if ha, ok := agg.(*vecHashAggOp); ok {
			ha.mem = c.Mem.Child()
		}
		stats.agg = c.span(agg, nil, nil, stats)
		v = stats.agg
	}
	return c.root(v, stats), stats, nil
}

// planNodes counts the nodes of a plan tree.
func planNodes(p *relalg.Plan) int {
	if p == nil {
		return 0
	}
	return 1 + planNodes(p.Left) + planNodes(p.Right)
}

// execRoot sits on top of every compiled tree and holds the reopen contract:
// after Close, Open starts a new execution of the same operators — scan leaves
// rebind to their tables' current snapshots, RunStats and the tracker's
// per-execution figures start over, and every operator empties the buffers it
// owns and keeps their capacity. Two kinds of tree refuse instead of returning
// stale rows: one compiled against a result cache (its probe hits and spools
// were decided against the cache's content at compile time) and one whose last
// execution failed (its operators are in no defined state).
type execRoot struct {
	in          VecIterator
	stats       *RunStats
	mem         *MemTracker
	cached      bool
	ran, failed bool
}

func (c *Compiler) root(v VecIterator, stats *RunStats) VecIterator {
	return &execRoot{in: v, stats: stats, mem: c.Mem, cached: c.Cache != nil}
}

// note records that the execution failed.
func (r *execRoot) note(err error) error {
	r.failed = r.failed || err != nil
	return err
}

func (r *execRoot) Open() error {
	switch {
	case r.ran && r.cached:
		return errors.New("exec: a tree compiled against a result cache runs once")
	case r.ran && r.failed:
		return errors.New("exec: a tree whose execution failed cannot be re-opened")
	case r.ran:
		r.stats.Reset()
		r.mem.restart()
	}
	r.ran = true
	return r.note(r.in.Open())
}

func (r *execRoot) Next() (*Batch, error) {
	b, err := r.in.Next()
	return b, r.note(err)
}

func (r *execRoot) Close() error { return r.note(r.in.Close()) }

// aggSpec resolves the query's aggregation columns against the plan root's
// output schema.
func (c *Compiler) aggSpec(schema []relalg.ColID) (AggSpecExec, error) {
	spec := AggSpecExec{CountAll: c.Q.Agg.CountAll}
	for _, col := range c.Q.Agg.GroupBy {
		off, err := colOffset(schema, col)
		if err != nil {
			return spec, err
		}
		spec.GroupBy = append(spec.GroupBy, off)
	}
	for _, col := range c.Q.Agg.Sums {
		off, err := colOffset(schema, col)
		if err != nil {
			return spec, err
		}
		spec.Sums = append(spec.Sums, off)
	}
	for _, col := range c.Q.Agg.CountDistinct {
		off, err := colOffset(schema, col)
		if err != nil {
			return spec, err
		}
		spec.CountDistinct = append(spec.CountDistinct, off)
	}
	return spec, nil
}

// scanLeaf is one resolved base-table scan. data holds exactly the columns of
// the output schema. The relation's selection predicates read their own
// column list, pred — full-length table columns, one per condition, whether
// or not data carries the same column — so nothing that consumes or
// materializes data ever sees a column only the filter reads.
type scanLeaf struct {
	data    colData
	schema  []relalg.ColID
	filter  ScanFilter // conditions over positions in pred
	pred    [][]int64
	predSrc []int // table offset of each column of pred
	// tab is the table data and pred are cut from; nil for a scan over fixed
	// columns (a cached result, a test's).
	tab *catalog.Table
	// zone is the filter pushed down to the storage layer, over table
	// offsets: on a disk table the zone maps prune by it.
	zone []storage.Pred
	// ranges are the ascending row ranges of data the execution reads: the
	// ones the zone maps cannot exclude, else the whole of data.
	ranges []storage.Range
}

// bind points the leaf at its table's current column snapshot and the row
// ranges of it the scan reads. Scans call it when an execution opens them,
// so a re-opened tree reads what the table holds now. The snapshot is an
// atomically published (columns, row count) pair, so binding concurrently
// with appends can never pair fresh columns with a stale count (or vice
// versa); a disk table hands it out together with the ranges its zone maps
// keep, both read under the store's lock.
func (l *scanLeaf) bind() {
	if l.tab == nil {
		l.ranges = append(l.ranges[:0], storage.Range{Hi: l.data.n})
		return
	}
	store := l.tab.Store()
	var snap *storage.Snapshot
	if ds, ok := store.(*storage.DiskStore); ok {
		snap, l.ranges, _ = ds.Ranges(l.zone, l.ranges)
	} else {
		snap = store.Snapshot()
		l.ranges = append(l.ranges[:0], storage.Range{Hi: snap.N})
	}
	l.data.n = snap.N
	for i, col := range l.schema {
		l.data.cols[i] = snap.Cols[col.Off] // indexed by table offset
	}
	for i, off := range l.predSrc {
		l.pred[i] = snap.Cols[off]
	}
}

// sel computes the selection vector of rows [lo, hi) into buf; the indexes
// are relative to lo, like the column windows data.window cuts.
func (l *scanLeaf) sel(lo, hi int, buf []int) []int {
	return l.filter.selRange(l.pred, lo, hi, buf)
}

// resolveScan resolves the scan of rel emitting schema over the catalog
// table; the scan binds it to the table's zero-copy column snapshot when an
// execution opens it.
func (c *Compiler) resolveScan(rel int, schema []relalg.ColID) (scanLeaf, error) {
	t, err := c.Cat.Table(c.Q.Rels[rel].Table)
	if err != nil {
		return scanLeaf{}, err
	}
	leaf := scanLeaf{schema: schema, tab: t}
	for _, pr := range c.Q.ScanPredsOf(rel) {
		if pr.Col.Off >= len(t.ColNames) {
			return scanLeaf{}, fmt.Errorf("exec: column %+v not in table %s", pr.Col, t.Name)
		}
		leaf.filter.Conds = append(leaf.filter.Conds, ScanCond{Off: len(leaf.predSrc), Op: pr.Op, Val: pr.Val})
		leaf.predSrc = append(leaf.predSrc, pr.Col.Off)
	}
	leaf.zone = storagePreds(leaf.filter.Conds, leaf.predSrc)
	leaf.data.cols = make([][]int64, len(schema))
	leaf.pred = make([][]int64, len(leaf.predSrc))
	return leaf, nil
}

// storagePreds translates the compiled scan conditions (over positions in
// predSrc) into storage-layer pushdown predicates over table columns. The
// operator mapping is explicit so a reordering of either enum cannot
// silently flip comparison semantics.
func storagePreds(conds []ScanCond, predSrc []int) []storage.Pred {
	if len(conds) == 0 {
		return nil
	}
	out := make([]storage.Pred, 0, len(conds))
	for _, cn := range conds {
		var op storage.CmpOp
		switch cn.Op {
		case relalg.CmpEQ:
			op = storage.CmpEQ
		case relalg.CmpNE:
			op = storage.CmpNE
		case relalg.CmpLT:
			op = storage.CmpLT
		case relalg.CmpLE:
			op = storage.CmpLE
		case relalg.CmpGT:
			op = storage.CmpGT
		case relalg.CmpGE:
			op = storage.CmpGE
		default:
			continue // unknown operator: not pushed, still filtered
		}
		out = append(out, storage.Pred{Col: predSrc[cn.Off], Op: op, Val: cn.Val})
	}
	return out
}

// compileVec returns the operator for one plan node, in its shim, and its
// output schema (the ColID of every output column, in order). weighted says
// whether the node's consumer reads Batch.Mult (see Compiler.counted).
func (c *Compiler) compileVec(p *relalg.Plan, stats *RunStats, weighted bool) (VecIterator, []relalg.ColID, error) {
	if d := c.takeDecision(p); d != nil {
		return c.applyCacheDecision(d, p, stats)
	}
	switch p.Log {
	case relalg.LogScan:
		schema, err := c.scanSchema(p)
		if err != nil {
			return nil, nil, err
		}
		leaf, err := c.resolveScan(p.Rel, schema)
		if err != nil {
			return nil, nil, err
		}
		return c.span(&vecScanOp{leaf: leaf}, p, schema, stats), schema, nil

	case relalg.LogEnforce:
		// Nothing the executor runs reads an order: an enforcer is its child.
		// Reached by: sort-enforced plans of the full space's tests
		// (TestTPCHSpillDifferential's merge-only plans, the reopen
		// differential); no workload, figure or served plan carries one.
		return c.compileVec(p.Left, stats, weighted)

	case relalg.LogJoin:
		// Every join runs on the hash join, through one path: the build side
		// is the left child (an index-NL join's inner relation: its index).
		left, ls, err := c.compileVec(p.Left, stats, false)
		if err != nil {
			return nil, nil, err
		}
		counted := c.counted(p, ls, weighted)
		right, rs, err := c.compileVec(p.Right, stats, counted)
		if err != nil {
			return nil, nil, err
		}
		schema, lOut, rOut := c.joinSchema(p, ls, rs)
		v, err := c.hashJoin(p, left, right, ls, rs, lOut, rOut, counted)
		if err != nil {
			return nil, nil, err
		}
		op := c.span(v, p, schema, stats)
		op.counting = counted
		return op, schema, nil
	}
	return nil, nil, fmt.Errorf("exec: unknown logical operator %v", p.Log)
}

// hashJoin builds the tracked hash join of p over its compiled inputs: build
// side left (schema ls), probe side right (schema rs).
func (c *Compiler) hashJoin(p *relalg.Plan, left, right VecIterator, ls, rs []relalg.ColID, lOut, rOut []int, counted bool) (VecIterator, error) {
	lKeys, rKeys, residual, err := c.hashJoinKeys(p, ls, rs)
	if err != nil {
		return nil, err
	}
	v := NewVecHashJoin(left, right, lKeys, rKeys, residual, lOut, rOut)
	if hj, ok := v.(*vecHashJoinOp); ok {
		hj.mem = c.Mem.Child()
		hj.counting = counted
	}
	return v, nil
}

// span wraps node p's operator (p nil: the aggregation's) in its shim and
// registers it with the execution's record; a scan's or a join's span counts
// its output cardinality into RunStats.
func (c *Compiler) span(v VecIterator, p *relalg.Plan, schema []relalg.ColID, stats *RunStats) *spanOp {
	op := &spanOp{in: v, st: stats, node: p, cols: len(schema)}
	stats.ops = append(stats.ops, op)
	if p != nil {
		stats.Cards[p.Expr] = &op.sp.Rows
	}
	return op
}

// joinInput is the row a join's residual predicates are resolved against:
// the left input's columns, then the right's. What a join reads need not
// survive into its output schema.
func joinInput(ls, rs []relalg.ColID) []relalg.ColID {
	return append(append([]relalg.ColID(nil), ls...), rs...)
}

// joinOffsets resolves one equi-predicate crossing join p against the child
// schemas, orienting it so its left column comes from the plan's left child.
func (c *Compiler) joinOffsets(p *relalg.Plan, jp relalg.JoinPred, ls, rs []relalg.ColID) (lk, rk int, err error) {
	lcol, rcol := jp.L, jp.R
	if !p.Left.Expr.Has(lcol.Rel) {
		lcol, rcol = rcol, lcol
	}
	if lk, err = colOffset(ls, lcol); err != nil {
		return 0, 0, err
	}
	if rk, err = colOffset(rs, rcol); err != nil {
		return 0, 0, err
	}
	return lk, rk, nil
}

// secondaryEqui lists the equi-join predicates other than p's own that cross
// p's two sides.
func (c *Compiler) secondaryEqui(p *relalg.Plan) []relalg.JoinPred {
	var out []relalg.JoinPred
	for pi, jp := range c.Q.Joins {
		if pi != p.Pred && jp.Crosses(p.Left.Expr, p.Right.Expr) {
			out = append(out, jp)
		}
	}
	return out
}

// hashJoinKeys resolves what a hash join of p reads of its inputs, build side
// ls and probe side rs: the compound hash key — the primary equi-join columns
// extended with every other cross equi-predicate, which keeps match sets
// minimal — and the residual filters left to evaluate on matched pairs.
func (c *Compiler) hashJoinKeys(p *relalg.Plan, ls, rs []relalg.ColID) (lKeys, rKeys []int, residual []ColPred, err error) {
	for _, jp := range append([]relalg.JoinPred{c.Q.Joins[p.Pred]}, c.secondaryEqui(p)...) {
		lk, rk, err := c.joinOffsets(p, jp, ls, rs)
		if err != nil {
			return nil, nil, nil, err
		}
		lKeys, rKeys = append(lKeys, lk), append(rKeys, rk)
	}
	residual, err = c.colFilterPredsOnly(p, joinInput(ls, rs))
	return lKeys, rKeys, residual, err
}

// colFilterPredsOnly compiles just the non-equi residual filters crossing
// this join (used when all equi predicates are part of the hash key) to
// structured ColPreds — the joins evaluate these directly on (build, probe)
// index pairs without materializing a row.
func (c *Compiler) colFilterPredsOnly(p *relalg.Plan, schema []relalg.ColID) ([]ColPred, error) {
	var preds []ColPred
	lset, rset := p.Left.Expr, p.Right.Expr
	for _, f := range c.Q.Filters {
		crosses := (lset.Has(f.L.Rel) && rset.Has(f.R.Rel)) || (rset.Has(f.L.Rel) && lset.Has(f.R.Rel))
		if !crosses {
			continue
		}
		lo, err := colOffset(schema, f.L)
		if err != nil {
			return nil, err
		}
		ro, err := colOffset(schema, f.R)
		if err != nil {
			return nil, err
		}
		preds = append(preds, ColPred{L: lo, R: ro, Op: f.Op, Off: f.Off})
	}
	return preds, nil
}

func colOffset(schema []relalg.ColID, c relalg.ColID) (int, error) {
	for i, s := range schema {
		if s == c {
			return i, nil
		}
	}
	return 0, fmt.Errorf("exec: column %+v not in schema %+v", c, schema)
}
