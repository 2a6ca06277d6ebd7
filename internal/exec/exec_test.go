package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/testkit"
	"repro/internal/volcano"
)

// ---- operator unit tests ----

func rows(vals ...[]int64) [][]int64 { return vals }

func scanOf(vals ...[]int64) VecIterator { return NewVecScanRows(vals, ScanFilter{}) }

// seq returns 0..n-1: every position of an n-wide input.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestHashJoinCompoundKeys(t *testing.T) {
	l := scanOf([]int64{1, 5}, []int64{1, 6}, []int64{2, 5})
	r := scanOf([]int64{1, 5, 100}, []int64{2, 6, 200})
	out, err := DrainVec(NewVecHashJoin(l, r, []int{0, 1}, []int{0, 1}, nil, seq(2), seq(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][2] != 1 || out[0][4] != 100 {
		t.Fatalf("compound-key join = %v", out)
	}
}

func TestHashAgg(t *testing.T) {
	in := scanOf([]int64{1, 10, 5}, []int64{1, 20, 5}, []int64{2, 30, 7}, []int64{1, 5, 6})
	out, err := DrainVec(NewVecHashAgg(in, AggSpecExec{
		GroupBy: []int{0}, Sums: []int{1}, CountAll: true, CountDistinct: []int{2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	// groups sorted: (1, sum 35, count 3, 2 distinct), (2, 30, 1, 1)
	if len(out) != 2 ||
		out[0][0] != 1 || out[0][1] != 35 || out[0][2] != 3 || out[0][3] != 2 ||
		out[1][0] != 2 || out[1][1] != 30 || out[1][2] != 1 || out[1][3] != 1 {
		t.Fatalf("agg output = %v", out)
	}
}

func TestCounter(t *testing.T) {
	op := &spanOp{in: scanOf([]int64{1}, []int64{2}), st: &RunStats{}}
	if _, err := CountVec(op); err != nil {
		t.Fatal(err)
	}
	if op.sp.Rows != 2 || op.sp.Batches != 1 || op.sp.Nanos != 0 {
		t.Fatalf("untimed span = %+v, want 2 rows in 1 batch and no time", op.sp)
	}
}

// ---- end-to-end cross-plan equivalence ----

// tinyCatalog builds small tables with data for execution tests.
func tinyCatalog(seed uint64, nTables, rowsPer int) *catalog.Catalog {
	r := stats.NewRand(seed)
	cat := catalog.New()
	for i := 0; i < nTables; i++ {
		tb := catalog.NewTable(tableName(i), "c0", "c1", "c2", "c3")
		n := 1 + r.Intn(rowsPer)
		for j := 0; j < n; j++ {
			tb.Append([]int64{r.Int64n(8), r.Int64n(8), r.Int64n(8), r.Int64n(8)})
		}
		for c := 0; c < 4; c++ {
			if r.Intn(2) == 0 {
				tb.AddIndex(tb.ColNames[c])
			}
		}
		cat.Add(tb)
	}
	cat.AnalyzeAll(8)
	return cat
}

func tableName(i int) string { return "T" + string(rune('0'+i)) }

// randomExecQuery builds a small random query over the tiny catalog: a
// spanning tree of equi-joins, maybe one more equi-join edge (a secondary
// key wherever a join brings both its sides together), maybe a local
// selection, one or two cross-relation filters with constant offsets and —
// drawn last, so the same seed gives the same joins with and without it — a
// narrow aggregation reading one or two columns, which leaves most columns
// dead somewhere below the root.
func randomExecQuery(r *stats.Rand, cat *catalog.Catalog, nRels int, agg bool) *relalg.Query {
	q := &relalg.Query{Name: "exec"}
	names := cat.Names()
	for i := 0; i < nRels; i++ {
		q.Rels = append(q.Rels, relalg.RelRef{
			Alias: "R" + string(rune('0'+i)), Table: names[r.Intn(len(names))],
		})
	}
	col := func(rel int) relalg.ColID { return relalg.ColID{Rel: rel, Off: r.Intn(4)} }
	for i := 1; i < nRels; i++ {
		q.Joins = append(q.Joins, relalg.JoinPred{L: col(r.Intn(i)), R: col(i)})
	}
	pair := func() (int, int) {
		a := r.Intn(nRels)
		return a, (a + 1 + r.Intn(nRels-1)) % nRels
	}
	if r.Intn(2) == 0 {
		a, b := pair()
		q.Joins = append(q.Joins, relalg.JoinPred{L: col(a), R: col(b)})
	}
	if r.Intn(2) == 0 {
		q.Scans = append(q.Scans, relalg.ScanPred{Col: col(r.Intn(nRels)), Op: relalg.CmpLE, Val: r.Int64n(8)})
	}
	ops := []relalg.CmpOp{relalg.CmpEQ, relalg.CmpNE, relalg.CmpLT, relalg.CmpLE, relalg.CmpGT, relalg.CmpGE}
	for k := 1 + r.Intn(2); k > 0; k-- {
		a, b := pair()
		q.Filters = append(q.Filters, relalg.FilterPred{
			L: col(a), R: col(b), Op: ops[r.Intn(len(ops))], Off: r.Int64n(5) - 2, Sel: 0.5,
		})
	}
	if agg {
		q.Agg = &relalg.AggSpec{CountAll: r.Intn(2) == 0}
		for k := 1 + r.Intn(2); k > 0; k-- {
			switch c := col(r.Intn(nRels)); r.Intn(3) {
			case 0:
				q.Agg.GroupBy = append(q.Agg.GroupBy, c)
			case 1:
				q.Agg.Sums = append(q.Agg.Sums, c)
			default:
				q.Agg.CountDistinct = append(q.Agg.CountDistinct, c)
			}
		}
	}
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return q
}

// TestPlansAgreeWithReference executes the optimal plan of each architecture
// — and the deliberately worst plan — and compares the result multiset and
// every operator's RunStats cardinality against the plan-independent
// reference evaluator, once under a narrow aggregation (columns die below
// the root on every seed), once without one (every column is live) and once
// under COUNT(*) and COUNT(DISTINCT) of a single column, which leaves every
// other relation dead so that joins — merge joins among them — count instead
// of enumerating (Compiler.counted) at the root and below it. This exercises
// plans of hash, merge and index-NL joins and sort enforcers — all run on the
// hash join — secondary equi-keys, residual filters and aggregation across
// arbitrary plan shapes.
func TestPlansAgreeWithReference(t *testing.T) {
	seen := map[relalg.PhyOp]bool{}
	var countedRoots, countedBelow, countedMerges int
	for seed := uint64(1); seed <= 40; seed++ {
		cat := tinyCatalog(seed, 3, 30)
		nRels := 2 + int(seed%3)
		q := randomExecQuery(stats.NewRand(seed*131), cat, nRels, true)
		allLive := randomExecQuery(stats.NewRand(seed*131), cat, nRels, false)
		oneCol := randomExecQuery(stats.NewRand(seed*131), cat, nRels, false)
		oneCol.Filters = oneCol.Filters[1:] // a filter crossing a join makes it enumerate
		spine, leaf := rightDeepHashPlan(oneCol, stats.NewRand(seed*977))
		oneCol.Agg = &relalg.AggSpec{CountAll: true,
			CountDistinct: []relalg.ColID{{Rel: leaf, Off: int(seed/3) % 4}}}
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}

		var plans []*relalg.Plan
		if vr, err := volcano.Optimize(m, relalg.DefaultSpace()); err == nil {
			plans = append(plans, vr.Plan)
		} else {
			t.Fatal(err)
		}
		if sr, err := systemr.Optimize(m, relalg.DefaultSpace()); err == nil {
			plans = append(plans, sr.Plan)
		}
		o, err := core.New(m, relalg.DefaultSpace(), core.PruneNone)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := o.Optimize(); err == nil {
			plans = append(plans, p)
		} else {
			t.Fatal(err)
		}
		if wp, err := o.WorstPlan(); err == nil {
			plans = append(plans, wp)
		}

		for _, q := range []*relalg.Query{q, allLive, oneCol} {
			ref := testkit.NewReference(q, cat)
			want := testkit.Canonical(ref.Rows(), nil)
			for pi, plan := range append(plans, spine) {
				comp := &Compiler{Q: q, Cat: cat}
				st := checkAgainstReference(t, fmt.Sprintf("seed %d plan %d agg=%+v", seed, pi, q.Agg), comp, ref, want, plan)
				eachPlanNode(plan, func(p *relalg.Plan) {
					seen[p.Phy] = true
					if op := st.node(p); q == oneCol && op != nil && op.counting {
						if p.Phy == relalg.PhyMergeJoin {
							countedMerges++
						}
						if p == plan {
							countedRoots++
						} else {
							countedBelow++
						}
					}
				})
			}
		}
	}
	if countedRoots == 0 || countedBelow == 0 || countedMerges == 0 {
		t.Errorf("%d root joins and %d joins below the root ran in counting mode, %d of them merge joins; the seeds no longer cover all three",
			countedRoots, countedBelow, countedMerges)
	}
	for _, phy := range []relalg.PhyOp{relalg.PhyHashJoin, relalg.PhyMergeJoin,
		relalg.PhyIndexNLJoin, relalg.PhySort, relalg.PhyIndexScan} {
		if !seen[phy] {
			t.Errorf("no random plan used %v; the seeds no longer cover it", phy)
		}
	}
}

// rightDeepHashPlan joins q's relations by hash joins along one probe spine
// in a seeded connected order: a random relation is the probe leaf (returned
// with the plan) and every other relation the build side of one join above
// it — the shape in which dead build sides stack.
func rightDeepHashPlan(q *relalg.Query, r *stats.Rand) (*relalg.Plan, int) {
	scan := func(rel int) *relalg.Plan {
		return &relalg.Plan{Expr: relalg.Single(rel), Log: relalg.LogScan, Phy: relalg.PhyTableScan, Rel: rel}
	}
	leaf := r.Intn(len(q.Rels))
	plan := scan(leaf)
	for plan.Expr.Count() < len(q.Rels) {
		type edge struct{ rel, pred int }
		var next []edge
		for rel := range q.Rels {
			for pi, jp := range q.Joins {
				if !plan.Expr.Has(rel) && jp.Crosses(relalg.Single(rel), plan.Expr) {
					next = append(next, edge{rel, pi})
					break
				}
			}
		}
		e := next[r.Intn(len(next))]
		build := scan(e.rel)
		plan = &relalg.Plan{Expr: build.Expr.Union(plan.Expr), Log: relalg.LogJoin, Phy: relalg.PhyHashJoin,
			Pred: e.pred, Left: build, Right: plan}
	}
	return plan, leaf
}

func eachPlanNode(p *relalg.Plan, fn func(*relalg.Plan)) {
	if p == nil {
		return
	}
	fn(p)
	eachPlanNode(p.Left, fn)
	eachPlanNode(p.Right, fn)
}

// checkAgainstReference compiles and runs plan and asserts that its result
// multiset equals want (the canonical rendering of ref.Rows()) and that the
// feedback probes are exact: every scan and join node reports the reference
// cardinality of its subexpression, and
// nothing else is reported. It returns the execution's RunStats.
func checkAgainstReference(t *testing.T, label string, comp *Compiler, ref *testkit.Reference, want string, plan *relalg.Plan) *RunStats {
	t.Helper()
	v, st, err := comp.CompileVec(plan)
	if err != nil {
		t.Fatalf("%s: compile: %v\n%s", label, err, plan.Explain(comp.Q))
	}
	checkExecution(t, label, comp, v, st, ref.Card, want, plan)
	return st
}

// checkExecution is checkAgainstReference for one execution of a tree
// compiled already; card gives the reference cardinality of a subexpression.
func checkExecution(t *testing.T, label string, comp *Compiler, v VecIterator, st *RunStats,
	card func(relalg.RelSet) int64, want string, plan *relalg.Plan) {
	t.Helper()
	got, err := DrainVec(v)
	if err != nil {
		t.Fatalf("%s: %v\n%s", label, err, plan.Explain(comp.Q))
	}
	checkRows(t, label, comp, got, st, card, want, plan)
}

// checkRows is checkExecution's check of the rows got an execution returned.
func checkRows(t *testing.T, label string, comp *Compiler, got []Row, st *RunStats,
	card func(relalg.RelSet) int64, want string, plan *relalg.Plan) {
	t.Helper()
	var err error
	var schema []relalg.ColID // aggregate rows are already plan-independent
	if comp.Q.Agg == nil {
		if schema, err = comp.PlanSchema(plan); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if testkit.Canonical(got, schema) != want {
		t.Fatalf("%s: result multiset differs from the reference (%d rows)\n%s", label, len(got), plan.Explain(comp.Q))
	}
	counted := map[relalg.RelSet]bool{}
	eachPlanNode(plan, func(p *relalg.Plan) {
		if p.Log == relalg.LogEnforce {
			return
		}
		counted[p.Expr] = true
		got, ok := st.Card(p.Expr)
		if want := card(p.Expr); !ok || got != want {
			t.Fatalf("%s: cardinality of %v = %d (reported %v), reference %d", label, p.Expr, got, ok, want)
		}
	})
	if n := len(st.Snapshot()); n != len(counted) {
		t.Fatalf("%s: RunStats covers %d subexpressions, plan has %d counted nodes", label, n, len(counted))
	}
}
