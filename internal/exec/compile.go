package exec

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/relalg"
	"repro/internal/rescache"
)

// RunStats accumulates actual output cardinalities per subexpression during
// execution. The adaptive layer compares them with the optimizer's
// estimates and feeds the ratios back as cardinality updates.
type RunStats struct {
	Cards map[relalg.RelSet]*int64
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

// Reset zeroes every counter; a re-opened tree starts its execution with it.
func (s *RunStats) Reset() {
	for _, n := range s.Cards {
		*n = 0
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
type Compiler struct {
	Q   *relalg.Query
	Cat *catalog.Catalog
	// Parallelism caps the number of workers of morsel-driven parallel
	// execution; values <= 1 execute serially. The tree is the same at any
	// value; above 1, when an unbounded aggregating query's input is a
	// right spine of hash joins over a plain scan, the aggregation runs that
	// many copies of the spine's operators, each into a partial aggregate,
	// whose workers start and finish inside Open (pipeline.go). The copies'
	// cardinality counters sum into the tree's, so RunStats feedback into the
	// adaptive layer is unaffected.
	Parallelism int
	// Cache, when enabled, is the server-wide semantic result cache, and
	// CacheCands the plan's cacheable subtrees (BuildCacheCandidates on
	// THIS plan tree — candidates match by node identity). CompileVec
	// resolves them into probe hits (subtree replaced by a cached scan) or
	// spools (subtree teed into the cache); see rescache.go.
	Cache      *rescache.Cache
	CacheCands []CacheCandidate
	// Prof, when non-nil, collects a per-operator execution profile for
	// EXPLAIN ANALYZE: every compiled operator is wrapped in a timing shim
	// recording batches/rows/wall time per plan node (see profile.go). Nil —
	// the default — compiles exactly the unprofiled operator tree.
	Prof *PlanProfile
	// Mem is the query's memory tracker, and the one way to bound its
	// memory: under NewMemTracker(limit) with limit > 0, operators that can
	// go out of core (hash-join builds — an index-NL join's among them — and
	// hash aggregation) spill under grace hashing instead of exceeding the
	// budget, into the tracker's SetSpillDir directory; operators that
	// cannot (sorts, merge joins) charge through and record overage. A bounded
	// query always runs on the serial, spillable operators. Nil keeps the
	// unbounded execution paths exactly. The tracker belongs to the compiled
	// tree and is held with it: nothing is charged between its executions,
	// and peak, overage and spill counters describe the latest one.
	Mem *MemTracker
	// decisions maps plan nodes to their resolved cache decision for the
	// current CompileVec call; probeHits and spools count what it decided.
	decisions         map[*relalg.Plan]*cacheDecision
	probeHits, spools int
}

// CompileVec builds the vectorized (batch-at-a-time) operator tree for
// plan, wiring a cardinality counter onto every scan and join operator and
// applying the query's aggregation (if any) on top. It returns the root
// operator and the stats collector.
func (c *Compiler) CompileVec(plan *relalg.Plan) (VecIterator, *RunStats, error) {
	stats := &RunStats{Cards: map[relalg.RelSet]*int64{}}
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
		v = c.aggregate(v, spec)
		if c.Prof != nil {
			v = &profVec{in: v, sp: c.Prof.Agg}
		}
	}
	return c.root(v, stats), stats, nil
}

// aggregate puts the query's aggregation over its compiled input. The one
// parallel shape is here: above one worker, an unbounded query whose input is
// a probe spine runs as P copies of that spine, each into its own partial
// aggregate (pipeline.go). Under a memory budget the aggregation and the
// builds must stay spillable, so a bounded query is a serial one.
func (c *Compiler) aggregate(in VecIterator, spec AggSpecExec) VecIterator {
	if c.Parallelism > 1 && !c.Mem.Bounded() {
		if p := newParallelPipeline(in, spec, c.Parallelism); p != nil {
			p.mem = c.Mem.Child("pipeline")
			if c.Prof != nil {
				c.Prof.workers = c.Parallelism
			}
			return p
		}
	}
	v := NewVecHashAgg(in, spec)
	if ha, ok := v.(*vecHashAggOp); ok {
		ha.mem = c.Mem.Child("agg")
	}
	return v
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
}

// bind points the leaf at its table's current column snapshot. Scans call it
// when an execution opens them, so a re-opened tree reads what the table holds
// now. ColumnSnapshot returns a consistent (columns, row count) pair from the
// backend's atomically published snapshot, so binding concurrently with
// appends can never pair fresh columns with a stale count (or vice versa).
func (l *scanLeaf) bind() {
	if l.tab == nil {
		return
	}
	cols, n := l.tab.ColumnSnapshot() // indexed by table offset
	l.data.n = n
	for i, col := range l.schema {
		l.data.cols[i] = cols[col.Off]
	}
	for i, off := range l.predSrc {
		l.pred[i] = cols[off]
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
	leaf.data.cols = make([][]int64, len(schema))
	leaf.pred = make([][]int64, len(leaf.predSrc))
	return leaf, nil
}

// compileVec compiles one plan node via compileVecNode and — when
// profiling — wraps the result in the timing shim for that node. weighted says
// whether the node's consumer reads Batch.Mult (see Compiler.counted).
func (c *Compiler) compileVec(p *relalg.Plan, stats *RunStats, weighted bool) (VecIterator, []relalg.ColID, error) {
	v, schema, err := c.compileVecNode(p, stats, weighted)
	if err != nil || c.Prof == nil {
		return v, schema, err
	}
	c.Prof.cols[p] = len(schema)
	return &profVec{in: v, sp: c.Prof.span(p)}, schema, nil
}

// compileVecNode returns the operator for one plan node and its output
// schema (the ColID of every output column, in order).
func (c *Compiler) compileVecNode(p *relalg.Plan, stats *RunStats, weighted bool) (VecIterator, []relalg.ColID, error) {
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
		var v VecIterator
		if p.Phy == relalg.PhySegScan {
			// Segment-pruned access path: scan through the storage
			// backend, which skips segments whose zone maps exclude the
			// pushed-down conditions.
			t, err := c.Cat.Table(c.Q.Rels[p.Rel].Table)
			if err != nil {
				return nil, nil, err
			}
			v = newStorageScan(t.Store(), leaf)
		} else {
			v = &vecScanOp{leaf: leaf}
		}
		if sortCol, sorts := scanSortCol(p); sorts {
			off, err := colOffset(schema, sortCol)
			if err != nil {
				return nil, nil, err
			}
			v = c.trackedSort(v, off)
		}
		return c.countedVec(v, p.Expr, stats), schema, nil

	case relalg.LogEnforce:
		child, schema, err := c.compileVec(p.Left, stats, false)
		if err != nil {
			return nil, nil, err
		}
		off, err := colOffset(schema, p.Prop.Col)
		if err != nil {
			return nil, nil, err
		}
		return c.trackedSort(child, off), schema, nil

	case relalg.LogJoin:
		if p.Phy == relalg.PhyIndexNLJoin {
			return c.compileVecIndexNL(p, stats)
		}
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
		var v VecIterator
		switch p.Phy {
		case relalg.PhyHashJoin:
			if v, err = c.hashJoin(p, left, right, ls, rs, lOut, rOut, counted); err != nil {
				return nil, nil, err
			}
			if c.Prof != nil {
				c.Prof.counted[p] = counted
			}
		case relalg.PhyMergeJoin:
			lk, rk, err := c.joinOffsets(p, c.Q.Joins[p.Pred], ls, rs)
			if err != nil {
				return nil, nil, err
			}
			residual, err := c.colResidualPreds(p, joinInput(ls, rs))
			if err != nil {
				return nil, nil, err
			}
			v = NewVecMergeJoin(left, right, lk, rk, residual, lOut, rOut)
			if mj, ok := v.(*vecMergeJoinOp); ok {
				mj.mem = c.Mem.Child("mergejoin")
			}
		default:
			return nil, nil, fmt.Errorf("exec: unexpected join operator %v", p.Phy)
		}
		return c.countedVec(v, p.Expr, stats), schema, nil
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
		hj.mem = c.Mem.Child("hashjoin")
		hj.counting = counted
	}
	return v, nil
}

// compileVecIndexNL realises an index nested-loops join as a hash join whose
// build side is the indexed inner relation (the plan's left child): the hash
// table is the index, built over the inner's filtered leaf. The leaf is
// compiled here as a bare serial scan, not through compileVec — it is part of
// the join, so it has no counter and no profile span of its own, and an index
// scan's order is of no use to a hash table — and, unfiltered, it lends the
// table's columns to the build instead of copying them (vecScanOp.drainCols).
// Plan space and cost model keep index-NL as the paper's Table 1 has it.
func (c *Compiler) compileVecIndexNL(p *relalg.Plan, stats *RunStats) (VecIterator, []relalg.ColID, error) {
	if p.Left.Log != relalg.LogScan {
		return nil, nil, fmt.Errorf("exec: index nested-loops inner %v is not a scan", p.Left.Expr)
	}
	ls, err := c.scanSchema(p.Left)
	if err != nil {
		return nil, nil, err
	}
	leaf, err := c.resolveScan(p.Left.Rel, ls)
	if err != nil {
		return nil, nil, err
	}
	outer, rs, err := c.compileVec(p.Right, stats, false)
	if err != nil {
		return nil, nil, err
	}
	schema, lOut, rOut := c.joinSchema(p, ls, rs)
	v, err := c.hashJoin(p, &vecScanOp{leaf: leaf}, outer, ls, rs, lOut, rOut, false)
	if err != nil {
		return nil, nil, err
	}
	return c.countedVec(v, p.Expr, stats), schema, nil
}

func (c *Compiler) countedVec(v VecIterator, set relalg.RelSet, stats *RunStats) VecIterator {
	return NewVecCounter(v, stats.counter(set))
}

// trackedSort builds a sort operator with its memory child tracker attached.
func (c *Compiler) trackedSort(in VecIterator, col int) VecIterator {
	v := NewVecSort(in, col)
	if s, ok := v.(*vecSortOp); ok {
		s.mem = c.Mem.Child("sort")
	}
	return v
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

// colResidualPreds compiles the join predicates and residual filters that
// first become checkable at this join (both sides present, not the primary
// equi-key) to structured ColPreds: the secondary equi-join predicates
// become {CmpEQ, 0} entries, then colFilterPredsOnly's cross-relation filters
// with their operator and constant offset.
func (c *Compiler) colResidualPreds(p *relalg.Plan, schema []relalg.ColID) ([]ColPred, error) {
	var preds []ColPred
	for _, jp := range c.secondaryEqui(p) {
		lo, err := colOffset(schema, jp.L)
		if err != nil {
			return nil, err
		}
		ro, err := colOffset(schema, jp.R)
		if err != nil {
			return nil, err
		}
		preds = append(preds, ColPred{L: lo, R: ro, Op: relalg.CmpEQ})
	}
	filters, err := c.colFilterPredsOnly(p, schema)
	return append(preds, filters...), err
}

func colOffset(schema []relalg.ColID, c relalg.ColID) (int, error) {
	for i, s := range schema {
		if s == c {
			return i, nil
		}
	}
	return 0, fmt.Errorf("exec: column %+v not in schema %+v", c, schema)
}
