package exec

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/testkit"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// indexNLPlan is the cheapest plan for q in a plan space that leaves the
// optimizer no join but index nested loops.
func indexNLPlan(tb testing.TB, q *relalg.Query, cat *catalog.Catalog) *relalg.Plan {
	tb.Helper()
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		tb.Fatalf("%s: %v", q.Name, err)
	}
	vr, err := volcano.Optimize(m, relalg.SpaceOptions{IndexNL: true, SortEnforcer: true})
	if err != nil {
		tb.Fatalf("%s: %v", q.Name, err)
	}
	joins := 0
	eachPlanNode(vr.Plan, func(p *relalg.Plan) {
		if p.Log != relalg.LogJoin {
			return
		}
		joins++
		if p.Phy != relalg.PhyIndexNLJoin {
			tb.Fatalf("%s: %v join in an index-NL-only plan\n%s", q.Name, p.Phy, vr.Plan.Explain(q))
		}
	})
	if joins != len(q.Rels)-1 {
		tb.Fatalf("%s: %d joins over %d relations", q.Name, joins, len(q.Rels))
	}
	return vr.Plan
}

// budgetTracker is the tracker of an execution bounded to budget bytes: none
// (the untracked path) when budget is 0.
func budgetTracker(budget int64) *MemTracker {
	if budget > 0 {
		return NewMemTracker(budget)
	}
	return nil
}

// TestIndexNLPlansAgreeWithReference runs plans made of index nested-loops
// joins alone against the reference evaluator, result multiset and every
// reported cardinality, unbounded and under a budget their hash indexes do
// not fit: an index-NL build is tracked and spills like any other hash-join
// build, so the tight runs must go to disk and force nothing past the budget.
func TestIndexNLPlansAgreeWithReference(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	for _, q := range []*relalg.Query{tpch.Q3S(), tpch.Q5(), tpch.Q10()} {
		plan := indexNLPlan(t, q, cat)
		ref := testkit.NewReference(q, cat)
		want := testkit.Canonical(ref.Rows(), nil)
		for _, budget := range []int64{0, tightBudget} {
			label := fmt.Sprintf("%s (budget=%d)", q.Name, budget)
			comp := &Compiler{Q: q, Cat: cat, Mem: budgetTracker(budget)}
			checkAgainstReference(t, label, comp, ref, want, plan)
			if budget == 0 {
				continue
			}
			if parts, _, _ := comp.Mem.SpillStats(); parts == 0 {
				t.Errorf("%s: no partition spilled", label)
			}
			if over := comp.Mem.Overage(); over != 0 || comp.Mem.Peak() > budget {
				t.Errorf("%s: peak %d with %d bytes forced past the budget", label, comp.Mem.Peak(), over)
			}
		}
	}
}

// TestUnfilteredBuildLendsColumns: a join build over an unfiltered base scan
// reads the table's columns where they are. The index-NL join below builds
// over all of R (4 columns live, nothing selected); opening it may allocate
// the hash table but not a copy of R, and R is bit-identical afterwards.
func TestUnfilteredBuildLendsColumns(t *testing.T) {
	cat := liveCatalog()
	col := func(rel, off int) relalg.ColID { return relalg.ColID{Rel: rel, Off: off} }
	q := &relalg.Query{Rels: []relalg.RelRef{{Alias: "r", Table: "R"}, {Alias: "s", Table: "S"}},
		Joins: []relalg.JoinPred{{L: col(0, 0), R: col(1, 0)}}}
	plan := liveJoin(relalg.PhyIndexNLJoin, liveScan(0), liveScan(1))

	cols, n := cat.MustTable("R").ColumnSnapshot()
	before := make([][]int64, len(cols))
	for c := range cols {
		before[c] = append([]int64(nil), cols[c][:n]...)
	}
	data := uint64(colBytes(len(cols), n))

	open := func() VecIterator {
		v, _, err := (&Compiler{Q: q, Cat: cat}).CompileVec(plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Open(); err != nil {
			t.Fatal(err)
		}
		return v
	}
	open().Close() // warm-up: first-use runtime allocations
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v := open()
	runtime.ReadMemStats(&m1)
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("compile + open allocated %d bytes; the build side's data is %d", got, data)
	if got >= data {
		t.Errorf("compile + open allocated %d bytes, the build side's data is %d: was it copied?", got, data)
	}
	rows, err := DrainVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if want := testkit.NewReference(q, cat).Card(plan.Expr); int64(len(rows)) != want {
		t.Errorf("join returned %d rows, reference %d", len(rows), want)
	}
	after, _ := cat.MustTable("R").ColumnSnapshot()
	for c := range before {
		if !reflect.DeepEqual(after[c][:n], before[c]) {
			t.Errorf("column %d of R changed under the join", c)
		}
	}
}

// BenchmarkForcedIndexNL executes index-NL-only plans end to end (compile,
// build the hash indexes, probe, aggregate): the guard for realising index
// nested loops on the hash join.
func BenchmarkForcedIndexNL(b *testing.B) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 7})
	for _, q := range []*relalg.Query{tpch.Q3S(), tpch.Q5(), tpch.Q10()} {
		plan := indexNLPlan(b, q, cat)
		b.Run(q.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, _, err := (&Compiler{Q: q, Cat: cat}).CompileVec(plan)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := CountVec(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
