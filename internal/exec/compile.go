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
// every shimmed node (profile.go), whose rows are the node's actual output
// cardinality — counted as it ran, replayed from a result-cache entry, or,
// where the node emitted only what its output gained since the last
// execution, counted over the kept rows plus the new ones — and what the
// execution kept. The adaptive layer compares the cardinalities with the
// optimizer's estimates and feeds the ratios back as cardinality updates;
// Format renders the whole record as EXPLAIN ANALYZE.
type RunStats struct {
	q      *relalg.Query
	plan   *relalg.Plan
	ops    []*spanOp // every shim of the tree
	agg    *spanOp   // the aggregation's, nil without one
	timed  bool      // SetTiming
	reused int       // hash joins that kept their table this execution
	// maintained says the root kept its result and absorbed the delta.
	maintained bool
	// hits and spools are the result-cache probe hits and spools, decided
	// when the tree compiled: such a tree runs once (execRoot).
	hits, spools int
}

// Card returns the observed cardinality of a subexpression.
func (s *RunStats) Card(set relalg.RelSet) (int64, bool) {
	for _, op := range s.ops {
		if op.node != nil && op.node.Expr == set {
			return op.sp.Rows, true
		}
	}
	return 0, false
}

// Reset zeroes every span, mark and count for a re-opened tree's run.
func (s *RunStats) Reset() {
	for _, op := range s.ops {
		op.sp, op.replayed, op.maintained = obs.Span{}, false, false
	}
	s.reused, s.maintained = 0, false
}

// BuildsReused counts the latest execution's joins that kept their table,
// inserting whatever rows their build side gained.
func (s *RunStats) BuildsReused() int { return s.reused }

// ResultsMaintained counts the latest execution's roots that kept their
// result — an aggregation's table or the emitted rows — and absorbed only
// what the tree's output gained since: 0 or 1.
func (s *RunStats) ResultsMaintained() int {
	if s.maintained {
		return 1
	}
	return 0
}

// tableBytes is what the tree's kept join tables hold.
func (s *RunStats) tableBytes() (n int64) {
	for _, op := range s.ops {
		if j, ok := op.in.(*vecHashJoinOp); ok && j.kept {
			n += buildBytes(j.table.data.width(), j.table.data.n, j.counting)
		}
	}
	return n
}

// CacheDecisions counts the execution's result-cache probe hits and spools.
func (s *RunStats) CacheDecisions() (probeHits, spools int) { return s.hits, s.spools }

// Snapshot copies the observed cardinalities into a plain map — the handoff
// from one finished execution to the feedback consumer (the adaptive loop or
// the serving layer's shared stats store). It must only be called after the
// operator tree has been drained and closed: until then its operators are
// still counting.
func (s *RunStats) Snapshot() map[relalg.RelSet]int64 {
	out := make(map[relalg.RelSet]int64, len(s.ops))
	for _, op := range s.ops {
		if op.node != nil {
			out[op.node.Expr] = op.sp.Rows
		}
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
	// decides each into a probe hit (subtree replaced by a cached scan) or
	// a spool (subtree teed into the cache); see rescache.go.
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
}

// CompileVec builds the vectorized (batch-at-a-time) operator tree for
// plan, wrapping every plan node's operator and the query's aggregation (if
// any) on top in its span shim (profile.go). It returns the root operator and
// the record every execution of it fills: cardinalities for feedback, spans
// for EXPLAIN ANALYZE.
func (c *Compiler) CompileVec(plan *relalg.Plan) (VecIterator, *RunStats, error) {
	stats := &RunStats{q: c.Q, plan: plan, ops: make([]*spanOp, 0, planNodes(plan)+1)}
	// The aggregation reads Batch.Mult; a root without one is drained as rows.
	v, schema, err := c.compileVec(plan, stats, c.Q.Agg != nil, false)
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
			if c.Cache == nil { // the table is kept (maintain)
				ha.st = stats
			}
		}
		stats.agg = c.span(agg, nil, nil, stats)
		v = stats.agg
	}
	root := c.root(v, stats)
	if c.Q.Agg == nil && c.Cache == nil && !c.Mem.Bounded() {
		root.res = &keptRows{mem: c.Mem.Child()}
	}
	return root, stats, nil
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
// per-execution figures start over, operators empty the buffers they own and
// keep their capacity — and an unbounded run keeps its state and maintains
// it: a hash join keeps its table and inserts the rows its build side gained
// (vecHashJoinOp.held), the root keeps its result — an aggregation its table
// (vecHashAggOp.maintain), a tree without one its rows (keptRows) — and where
// the snapshots its scans bind only grew since the last execution's, each
// node emits only the rows its output gained and the root absorbs them
// (deltaIter). A result-cache hit keeps its entry's counts. Two kinds of
// tree refuse instead of returning stale rows: one compiled against a result
// cache (its probe hits and spools, and the counts its hits replay, were
// decided against the cache's content at compile time) and one whose last
// execution failed.
type execRoot struct {
	in          VecIterator
	stats       *RunStats
	mem         *MemTracker
	cached      bool
	ran, failed bool
	res         *keptRows // the result a held tree without an aggregation keeps; nil: none
}

// keptRows is the result the root of an unbounded held tree without an
// aggregation keeps: the rows an execution emits, while they take no more
// bytes than the join tables the tree keeps. When the tree emits only the
// rows its output gained since the last execution, the root replays the
// kept rows, as a scan over fixed columns does, and then passes on and
// keeps the new ones.
type keptRows struct {
	data        colData
	kept        bool  // data is the last execution's whole result
	keep        bool  // this execution's rows are being kept
	limit       int64 // the bytes the tree's join tables hold
	replay, pos int   // the kept rows the execution emits first, the next of them
	batch       Batch
	mem         *MemTracker
}

func (c *Compiler) root(v VecIterator, stats *RunStats) *execRoot {
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
	k := r.res
	if k == nil {
		return r.note(r.in.Open())
	}
	kept := k.kept
	k.kept = false
	askDelta(r.in, kept)
	if err := r.in.Open(); err != nil {
		return r.note(err)
	}
	k.pos, k.replay, k.keep, k.limit = 0, 0, true, r.stats.tableBytes()
	if kept && gotDelta(r.in) {
		k.replay, r.stats.maintained = k.data.n, true
		k.mem.Force(colBytes(k.data.width(), k.data.n))
	} else {
		k.data.reset()
	}
	return nil
}

func (r *execRoot) Next() (*Batch, error) {
	k := r.res
	if k == nil {
		b, err := r.in.Next()
		return b, r.note(err)
	}
	if k.pos < k.replay {
		end := min(k.pos+BatchSize, k.replay)
		k.batch.Cols, k.batch.N, k.batch.Sel = k.data.window(k.batch.Cols, k.pos, end), end-k.pos, nil
		k.pos = end
		return &k.batch, nil
	}
	b, err := r.in.Next()
	switch {
	case err != nil:
		k.keep = false
	case b == nil:
		k.kept = k.keep
	case !k.keep:
	case colBytes(b.Width(), k.data.n+b.Len()) > k.limit:
		k.keep = false
	default:
		k.data.appendBatch(b)
	}
	return b, r.note(err)
}

func (r *execRoot) Close() error {
	if r.res != nil {
		r.res.mem.ReleaseAll()
	}
	return r.note(r.in.Close())
}

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
	// snap is the bound snapshot and epoch its Epoch; nil and 0 unbound.
	snap  *storage.Snapshot
	epoch uint64
	// from is the row count the previous bind read, the watermark, and grew
	// says the snapshot bound now extends that one: the same epoch and at
	// least from rows, so rows [0, from) are the ones the previous
	// execution read. keyZone is rewind's buffer.
	from    int
	grew    bool
	keyZone []storage.Pred
}

// bind points the leaf at its table's current column snapshot and the row
// ranges of it the scan reads: the ones the snapshot's zone maps keep under
// the leaf's pushed conditions. Scans call it when an execution opens them,
// so a re-opened tree reads what the table holds now. The snapshot is
// atomically published with its zone maps, so binding concurrently with
// writers never pairs columns with another generation's count or zones, and
// never waits for them. The watermark is the previous bind's own row count,
// never one read before this bind.
func (l *scanLeaf) bind() {
	if l.tab == nil {
		l.ranges = append(l.ranges[:0], storage.Range{Hi: l.data.n})
		return
	}
	snap := l.tab.Store().Snapshot()
	l.ranges, _ = snap.Ranges(l.zone, l.ranges)
	l.grew = l.epoch != 0 && snap.Epoch == l.epoch && snap.N >= l.data.n
	l.from, l.data.n, l.epoch, l.snap = l.data.n, snap.N, snap.Epoch, snap
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
// whether the node's consumer reads Batch.Mult (see Compiler.counted), and
// spooled whether a result-cache spool is above it. A cache candidate is
// decided here (compileCandidate), any other node compiled by compileNode.
func (c *Compiler) compileVec(p *relalg.Plan, stats *RunStats, weighted, spooled bool) (VecIterator, []relalg.ColID, error) {
	if cand := c.candidate(p); cand != nil {
		return c.compileCandidate(cand, stats, weighted, spooled)
	}
	return c.compileNode(p, stats, weighted, spooled)
}

// compileNode compiles p by its operator, its children through compileVec.
func (c *Compiler) compileNode(p *relalg.Plan, stats *RunStats, weighted, spooled bool) (VecIterator, []relalg.ColID, error) {
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
		return c.compileVec(p.Left, stats, weighted, spooled)

	case relalg.LogJoin:
		// Every join runs on the hash join, through one path: the build side
		// is the left child (an index-NL join's inner relation: its index).
		left, ls, err := c.compileVec(p.Left, stats, false, spooled)
		if err != nil {
			return nil, nil, err
		}
		counted := c.counted(p, ls, weighted)
		right, rs, err := c.compileVec(p.Right, stats, counted, spooled)
		if err != nil {
			return nil, nil, err
		}
		schema, lOut, rOut := c.joinSchema(p, ls, rs)
		v, err := c.hashJoin(p, left, right, ls, rs, lOut, rOut, counted)
		if err != nil {
			return nil, nil, err
		}
		// Tables are kept (vecHashJoinOp.held) unless the tree runs once.
		if hj, ok := v.(*vecHashJoinOp); ok && c.Cache == nil {
			hj.st = stats
			if sh, ok := right.(*spanOp); ok {
				if sc, ok := sh.in.(*vecScanOp); ok && sc.leaf.tab != nil {
					hj.old = sc
				}
			}
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

// pin pins the base tables of set's relations, which the caller has
// resolved: what a spooled result was derived from.
func (c *Compiler) pin(set relalg.RelSet) catalog.Pin {
	tabs := make([]*catalog.Table, 0, set.Count())
	set.EachMember(func(rel int) { tabs = append(tabs, c.Cat.MustTable(c.Q.Rels[rel].Table)) })
	return catalog.NewPin(tabs)
}

// span wraps node p's operator v (p nil: the aggregation's; v nil: a
// record-only shim) in its shim and registers it with the execution's record.
func (c *Compiler) span(v VecIterator, p *relalg.Plan, schema []relalg.ColID, stats *RunStats) *spanOp {
	op := &spanOp{in: v, st: stats, node: p, cols: len(schema)}
	stats.ops = append(stats.ops, op)
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
