package exec

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/linearroad"
	"repro/internal/relalg"
	"repro/internal/rescache"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// reopenPlans returns the plan shapes the reopen differential runs q under,
// optimized over cat's current content: Volcano's plan in the full space, the
// incremental optimizer's worst plan, and the cheapest plan of the spaces that
// leave only index nested-loops or only merge joins, where such a plan exists
// and differs from the others.
func reopenPlans(t *testing.T, q *relalg.Query, cat *catalog.Catalog) map[string]*relalg.Plan {
	t.Helper()
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatalf("%s: %v", q.Name, err)
	}
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatalf("%s: %v", q.Name, err)
	}
	plans, seen := map[string]*relalg.Plan{"volcano": vr.Plan}, map[string]bool{vr.Plan.Signature(): true}
	add := func(name string, p *relalg.Plan, err error) {
		if err == nil && !seen[p.Signature()] {
			plans[name], seen[p.Signature()] = p, true
		}
	}
	o, err := core.New(m, relalg.DefaultSpace(), core.PruneNone)
	if err != nil {
		t.Fatalf("%s: %v", q.Name, err)
	}
	if _, err := o.Optimize(); err != nil {
		t.Fatalf("%s: %v", q.Name, err)
	}
	worst, err := o.WorstPlan()
	add("worst", worst, err)
	for name, space := range map[string]relalg.SpaceOptions{
		"index-NL only": {IndexNL: true, SortEnforcer: true},
		"merge only":    {MergeJoin: true, SortEnforcer: true},
	} {
		if r, err := volcano.Optimize(m, space); err == nil {
			add(name, r.Plan, nil)
		}
	}
	return plans
}

// TestReopenedExecutionMatchesFresh is the reopen contract's differential:
// every tree is compiled once and executed four times, the tables changing
// under it in between — the first relation's cut to two thirds by
// ResetSnapshot, then every one grown past its first size by AppendRows, so
// every build side outgrows the buffers its operator kept, then the last
// relation alone grown by AppendRows. Each execution of the held tree must
// return the multiset and report the cardinalities of testkit.Reference over
// the tables as they are now, agree with a tree compiled freshly at that
// moment, and leave nothing charged to its tracker; some tree under the
// budget must really spill in every one. After its first execution an
// unbounded held tree must keep the join tables whose build side reads no
// reset table and emits its delta (keptBuilds), inserting what the appends
// added, and no table whose build side reads a reset one; a tree under the
// budget keeps none. An unbounded held tree must maintain
// its result — keep it and absorb only what the output gained — in the
// executions after appends alone wherever every join can emit its delta
// (deltaPlan), render an aggregation "maintained" exactly when it does, and
// maintain nothing after the reset. Last, a tree compiled over the tables
// emptied runs before and after AppendRows has put their rows back, which a
// maintained tree absorbs as appended rows.
func TestReopenedExecutionMatchesFresh(t *testing.T) {
	win := linearroad.NewWindows()
	win.Ingest(linearroad.NewGen(2, 60).Slice(0, 40))
	win.Materialize()
	tp := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	for _, tc := range []struct {
		q   *relalg.Query
		cat *catalog.Catalog
	}{
		{tpch.Q1(), tp}, {tpch.Q3S(), tp}, {tpch.Q5(), tp}, {tpch.Q5S(), tp}, {tpch.Q6(), tp}, {tpch.Q10(), tp},
		{linearroad.SegTollS(), win.Catalog()},
	} {
		q, cat := tc.q, tc.cat
		// The tables as they were, to put back for the next query.
		first := map[*catalog.Table]*storage.Snapshot{}
		for _, rel := range q.Rels {
			tab := cat.MustTable(rel.Table)
			first[tab] = tab.Store().Snapshot()
		}
		shrink := func() { // the query's first relation alone: the others must still spill
			tab := cat.MustTable(q.Rels[0].Table)
			snap := first[tab]
			cut := &storage.Snapshot{Cols: make([][]int64, len(snap.Cols)), N: snap.N * 2 / 3}
			for c, col := range snap.Cols {
				cut.Cols[c] = col[:cut.N:cut.N]
			}
			tab.ResetSnapshot(cut)
		}
		appendFirst := func(tab *catalog.Table, n int) { // the leading n rows of what tab first held
			snap := first[tab]
			rows := make([][]int64, n)
			for i := range rows {
				rows[i] = make([]int64, len(snap.Cols))
				for c, col := range snap.Cols {
					rows[i][c] = col[i]
				}
			}
			if err := tab.AppendRows(rows); err != nil {
				t.Fatal(err)
			}
		}
		grow := func() { // every relation, by half of what it first held
			for tab, snap := range first {
				appendFirst(tab, snap.N/2)
			}
		}
		last := cat.MustTable(q.Rels[len(q.Rels)-1].Table)
		growLast := func() { appendFirst(last, first[last].N/2) }
		relsOf := func(tab *catalog.Table) (set relalg.RelSet) { // the relations reading tab
			for i, rel := range q.Rels {
				if cat.MustTable(rel.Table) == tab {
					set = set.Add(i)
				}
			}
			return set
		}
		all := relalg.RelSet(1)<<len(q.Rels) - 1

		type tree struct {
			label string
			comp  *Compiler
			plan  *relalg.Plan
			root  VecIterator
			stats *RunStats
		}
		compile := func(label string, plan *relalg.Plan, budget int64) tree {
			// NewMemTracker(0) bounds nothing and still counts what is charged.
			comp := &Compiler{Q: q, Cat: cat, Mem: NewMemTracker(budget)}
			root, stats, err := comp.CompileVec(plan)
			if err != nil {
				t.Fatalf("%s: compile: %v\n%s", label, err, plan.Explain(q))
			}
			return tree{label, comp, plan, root, stats}
		}
		var held []tree
		plans := reopenPlans(t, q, cat)
		for name, plan := range plans {
			for _, budget := range []int64{0, tightBudget} {
				held = append(held, compile(fmt.Sprintf("%s %s plan (budget=%d)", q.Name, name, budget), plan, budget))
			}
		}

		for step, change := range []struct {
			apply        func()
			reset, grown relalg.RelSet // the relations whose tables it resets or appends to; all reset before a first execution
		}{{func() {}, all, 0}, {shrink, relsOf(cat.MustTable(q.Rels[0].Table)), 0}, {grow, 0, all}, {growLast, 0, relsOf(last)}} {
			change.apply()
			ref := testkit.NewReference(q, cat)
			want := testkit.Canonical(ref.Rows(), nil)
			cards := map[relalg.RelSet]int64{}
			card := func(s relalg.RelSet) int64 {
				if _, ok := cards[s]; !ok {
					cards[s] = ref.Card(s)
				}
				return cards[s]
			}
			var spilled int64
			for _, tr := range held {
				label := fmt.Sprintf("%s, execution %d", tr.label, step+1)
				checkExecution(t, label, tr.comp, tr.root, tr.stats, card, want, tr.plan)
				if used := tr.comp.Mem.Used(); used != 0 {
					t.Fatalf("%s: %d bytes still charged after Close", label, used)
				}
				must, may := keptBuilds(tr.plan, change.reset, change.grown), keptBuilds(tr.plan, change.reset, 0)
				if tr.comp.Mem.Bounded() {
					must, may = 0, 0
				}
				if got := tr.stats.BuildsReused(); got < must || got > may {
					t.Fatalf("%s: %d join tables kept, want %d to %d\n%s", label, got, must, may, tr.stats.Format())
				}
				// Executions 3 and 4 follow appends only.
				checkMaintained(t, label, tr.comp, tr.plan, tr.stats, step >= 2, change.grown)
				parts, _, _ := tr.comp.Mem.SpillStats()
				spilled += parts

				fresh := compile(label+", fresh tree", tr.plan, tr.comp.Mem.Limit())
				checkExecution(t, fresh.label, fresh.comp, fresh.root, fresh.stats, card, want, fresh.plan)
				if got, want := tr.stats.Snapshot(), fresh.stats.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: RunStats %v, a freshly compiled tree reports %v", label, got, want)
				}
			}
			if len(q.Rels) > 1 && spilled == 0 {
				t.Fatalf("%s, execution %d: no tree under the %d-byte budget spilled a partition", q.Name, step+1, tightBudget)
			}
		}

		// A held tree reads the tables as an execution finds them, not as
		// they were when it was compiled: compiled over empty tables, it
		// returns every row once AppendRows has put them back.
		for tab, snap := range first {
			tab.ResetSnapshot(&storage.Snapshot{Cols: make([][]int64, len(snap.Cols))})
		}
		tr := compile(q.Name+" compiled over empty tables", plans["volcano"], 0)
		refill := func() {
			for tab, snap := range first {
				appendFirst(tab, snap.N)
			}
		}
		for step, change := range []func(){func() {}, refill} {
			change()
			ref := testkit.NewReference(q, cat)
			want := testkit.Canonical(ref.Rows(), nil)
			label := fmt.Sprintf("%s, execution %d", tr.label, step+1)
			checkExecution(t, label, tr.comp, tr.root, tr.stats, ref.Card, want, tr.plan)
			checkMaintained(t, label, tr.comp, tr.plan, tr.stats, step == 1, all)
			fresh := compile(label+", fresh tree", tr.plan, 0)
			checkExecution(t, fresh.label, fresh.comp, fresh.root, fresh.stats, ref.Card, want, fresh.plan)
			if got, want := tr.stats.Snapshot(), fresh.stats.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: RunStats %v, a freshly compiled tree reports %v", label, got, want)
			}
		}
		for tab, snap := range first {
			tab.ResetSnapshot(snap)
		}
	}
}

// deltaPlan reports whether a held unbounded tree over plan maintains its
// result after appends to the tables of the relations in grown: a join
// emits its delta unless its build side reads a grown table while its probe
// side is not a table scan, for then it has no old probe rows to re-read.
// A build side whose delta turns out empty lets a join emit its delta over
// any probe side, so a tree may maintain where deltaPlan says no.
func deltaPlan(p *relalg.Plan, grown relalg.RelSet) bool {
	switch p.Log {
	case relalg.LogScan:
		return true
	case relalg.LogEnforce:
		return deltaPlan(p.Left, grown)
	}
	probe := p.Right
	for probe.Log == relalg.LogEnforce {
		probe = probe.Left
	}
	return deltaPlan(p.Left, grown) && deltaPlan(p.Right, grown) &&
		(p.Left.Expr&grown == 0 || probe.Log == relalg.LogScan)
}

// aggMaintained matches an aggregation line rendered maintained.
var aggMaintained = regexp.MustCompile(`(?m)^HashAggregate .* maintained( time=.*)?\]$`)

// checkMaintained checks the latest execution of a held tree compiled by
// comp for plan: an unbounded tree maintains its result only when appended
// says only appends — to the tables of the relations in grown — happened
// since its last execution, and then surely where deltaPlan says so; a
// tree under a budget never does. An aggregation is rendered maintained
// exactly when the tree maintained.
func checkMaintained(t *testing.T, label string, comp *Compiler, plan *relalg.Plan, stats *RunStats, appended bool, grown relalg.RelSet) {
	t.Helper()
	allowed := appended && !comp.Mem.Bounded()
	must := allowed && deltaPlan(plan, grown)
	text := stats.Format()
	got := stats.ResultsMaintained()
	if got > 0 && !allowed || got == 0 && must {
		t.Fatalf("%s: %d results maintained, want %v\n%s", label, got, must, text)
	}
	if comp.Q.Agg != nil && aggMaintained.MatchString(text) != (got == 1) {
		t.Fatalf("%s: %d results maintained, and the aggregation rendered otherwise\n%s", label, got, text)
	}
}

// appendingBuild is a join's build child, or an aggregation's scan, that
// appends copies of tab's first rows — one, or copies of them — from inside
// the drain, after the child has bound its snapshots: the append lands while
// the build or the fold runs, as a concurrent one may. opens counts the
// child's Opens, one per execution that drains it.
type appendingBuild struct {
	VecIterator
	tab     *catalog.Table
	opens   int
	pending bool // the append is still to come
	copies  int
	t       *testing.T
}

func (a *appendingBuild) Open() error {
	a.opens++
	return a.VecIterator.Open()
}

func (a *appendingBuild) setDelta(want bool) { askDelta(a.VecIterator, want) }
func (a *appendingBuild) isDelta() bool      { return gotDelta(a.VecIterator) }

func (a *appendingBuild) Next() (*Batch, error) {
	if a.pending {
		a.pending = false
		snap := a.tab.Store().Snapshot()
		rows := make([][]int64, max(a.copies, 1))
		for i := range rows {
			rows[i] = make([]int64, len(snap.Cols))
			for c, col := range snap.Cols {
				rows[i][c] = col[i]
			}
		}
		if err := a.tab.AppendRows(rows); err != nil {
			a.t.Fatal(err)
		}
	}
	return a.VecIterator.Next()
}

// TestKeptBuildSeesAppendDuringBuild appends to a base table from inside a
// drain that has bound its snapshot, in three arms. kept-tables: a table
// under a join's build side while the build drains it, for every join of
// Q3S and Q5; the next execution keeps every join's table, and the one over
// the appended table inserts exactly the row the drain did not see, since
// its build side's watermark is the row count the drain bound.
// maintained-aggregates: lineitem, from inside Q1's and Q6's scan while the
// fold drains it (maintainedAggsSeeAppendDuringFold). delta-joins: from
// inside a build drain and from inside a probe drain of every join of Q3S,
// Q5, Q5S and Q10, whose next executions emit only the join's delta
// (deltaJoinsSeeAppendDuringDrain). Each execution returns the reference's
// multiset and counts over the tables as it began, so every row is counted
// exactly once.
func TestKeptBuildSeesAppendDuringBuild(t *testing.T) {
	t.Run("kept-tables", keptTablesSeeAppendDuringBuild)
	t.Run("maintained-aggregates", maintainedAggsSeeAppendDuringFold)
	t.Run("delta-joins", deltaJoinsSeeAppendDuringDrain)
}

// joinsOf returns the hash joins of a compiled tree and their plan nodes,
// in the order the tree registered their shims.
func joinsOf(stats *RunStats) (joins []*vecHashJoinOp, nodes []*relalg.Plan) {
	for _, op := range stats.ops {
		if hj, ok := op.in.(*vecHashJoinOp); ok {
			joins, nodes = append(joins, hj), append(nodes, op.node)
		}
	}
	return joins, nodes
}

// keptTablesSeeAppendDuringBuild is TestKeptBuildSeesAppendDuringBuild's
// join arm.
func keptTablesSeeAppendDuringBuild(t *testing.T) {
	for _, q := range []*relalg.Query{tpch.Q3S(), tpch.Q5()} {
		cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
		plan := reopenPlans(t, q, cat)["volcano"]
		comp := &Compiler{Q: q, Cat: cat, Mem: NewMemTracker(0)}
		_, stats, err := comp.CompileVec(plan)
		if err != nil {
			t.Fatal(err)
		}
		joins, _ := joinsOf(stats)
		if len(joins) < 2 {
			t.Fatalf("%s: %d joins", q.Name, len(joins))
		}
		for j := range joins {
			comp := &Compiler{Q: q, Cat: cat, Mem: NewMemTracker(0)}
			root, stats, err := comp.CompileVec(plan)
			if err != nil {
				t.Fatal(err)
			}
			hjs, nodes := joinsOf(stats)
			hj, build := hjs[j], nodes[j].Left
			rel := build.Expr.Members()[0] // Q3S and Q5 read each table once
			tab := cat.MustTable(q.Rels[rel].Table)
			child := &appendingBuild{VecIterator: hj.left, tab: tab, pending: true, t: t}
			hj.left = child
			for exec := 1; exec <= 2; exec++ {
				label := fmt.Sprintf("%s, build side %v appended to while it drains, execution %d", q.Name, build.Expr, exec)
				ref := testkit.NewReference(q, cat)
				checkExecution(t, label, comp, root, stats, ref.Card, testkit.Canonical(ref.Rows(), nil), plan)
				kept := keptBuilds(plan, 0, 0)
				if exec == 1 {
					kept = 0
				}
				if child.opens != exec || stats.BuildsReused() != kept {
					t.Fatalf("%s: the build child opened %d times, %d join tables kept; want %d and %d",
						label, child.opens, stats.BuildsReused(), exec, kept)
				}
			}
		}
	}
}

// deltaJoinsSeeAppendDuringDrain is TestKeptBuildSeesAppendDuringBuild's
// delta arm: for each join of Q3S, Q5, Q5S and Q10, a child that appends
// copies of four rows of a table while the join drains it — a table under
// the build side while the table is built ("build"), the probe side's while
// it is probed ("probe"), and the probe side's while the table is built,
// before the probe binds ("probe, before its bind"). Three executions
// follow: the first misses the copies, but in the last case, whose probe
// binds after the append, counts them; the second emits only the join's
// delta from the watermark each scan bound, which the copies the first
// missed are above, and maintains its result; the third, over unchanged
// tables, maintains it again. A watermark read before the bind, as a
// catalog.Pin's count is, would count the copies twice in the last case.
func deltaJoinsSeeAppendDuringDrain(t *testing.T) {
	for _, q := range []*relalg.Query{tpch.Q3S(), tpch.Q5(), tpch.Q5S(), tpch.Q10()} {
		base := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
		plan := reopenPlans(t, q, base)["volcano"]
		_, stats, err := (&Compiler{Q: q, Cat: base}).CompileVec(plan)
		if err != nil {
			t.Fatal(err)
		}
		joins, _ := joinsOf(stats)
		for j := range joins {
			for _, side := range []string{"build", "probe", "probe, before its bind"} {
				cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
				comp := &Compiler{Q: q, Cat: cat, Mem: NewMemTracker(0)}
				root, stats, err := comp.CompileVec(plan)
				if err != nil {
					t.Fatal(err)
				}
				hjs, nodes := joinsOf(stats)
				hj, read, input := hjs[j], nodes[j].Left, &hjs[j].left
				switch side {
				case "probe":
					read, input = nodes[j].Right, &hjs[j].right
				case "probe, before its bind":
					read = nodes[j].Right
				}
				rel := read.Expr.Members()[0] // these queries read each table once
				tab := cat.MustTable(q.Rels[rel].Table)
				child := &appendingBuild{VecIterator: *input, tab: tab, pending: true, copies: 4, t: t}
				*input = child
				for exec := 1; exec <= 3; exec++ {
					label := fmt.Sprintf("%s, %s side %v of join %v appended to while it drains, execution %d",
						q.Name, side, read.Expr, nodes[j].Expr, exec)
					ref := testkit.NewReference(q, cat)
					rows, err := DrainVec(root)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if exec == 1 && side == "probe, before its bind" {
						ref = testkit.NewReference(q, cat) // the probe bound the copies
					}
					checkRows(t, label, comp, rows, stats, ref.Card, testkit.Canonical(ref.Rows(), nil), plan)
					if want := min(exec-1, 1); child.opens != exec || stats.ResultsMaintained() != want || !hj.kept {
						t.Fatalf("%s: the child opened %d times and %d results maintained; want %d and %d",
							label, child.opens, stats.ResultsMaintained(), exec, want)
					}
				}
			}
		}
	}
}

// maintainedAggsSeeAppendDuringFold is TestKeptBuildSeesAppendDuringBuild's
// aggregation arm: Q1's and Q6's scan appends copies of 512 lineitem rows
// from inside the fold's drain, after it bound its snapshot. The next
// execution maintains the table and folds exactly the rows the drain did
// not see: it starts at the row count the first bound, and returns the
// reference's multiset over the table grown.
func maintainedAggsSeeAppendDuringFold(t *testing.T) {
	const copies = 512
	for _, q := range []*relalg.Query{tpch.Q1(), tpch.Q6()} {
		cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
		plan := reopenPlans(t, q, cat)["volcano"]
		comp := &Compiler{Q: q, Cat: cat, Mem: NewMemTracker(0)}
		root, stats, err := comp.CompileVec(plan)
		if err != nil {
			t.Fatal(err)
		}
		agg := stats.agg.in.(*vecHashAggOp)
		tab := cat.MustTable("lineitem")
		_, n := tab.ColumnSnapshot()
		child := &appendingBuild{VecIterator: agg.in, tab: tab, pending: true, copies: copies, t: t}
		agg.in = child
		for exec, want := range []struct{ n, maintained int }{{n, 0}, {n + copies, 1}} {
			label := fmt.Sprintf("%s, scan appended to while it drains, execution %d", q.Name, exec+1)
			ref := testkit.NewReference(q, cat)
			checkExecution(t, label, comp, root, stats, ref.Card, testkit.Canonical(ref.Rows(), nil), plan)
			if held := onlyScan(stats).leaf.data.n; child.opens != exec+1 || held != want.n || stats.ResultsMaintained() != want.maintained {
				t.Fatalf("%s: the scan opened %d times, the table holds %d rows, %d aggregations maintained; want %d, %d and %d",
					label, child.opens, held, stats.ResultsMaintained(), exec+1, want.n, want.maintained)
			}
		}
	}
}

// onlyScan returns the scan of a tree that reads one table.
func onlyScan(stats *RunStats) *vecScanOp {
	for _, op := range stats.ops {
		if sc, ok := op.in.(*vecScanOp); ok {
			return sc
		}
	}
	return nil
}

// keptBuilds returns how many joins of plan surely keep their table when
// the tables of the relations in reset were reset and those in grown
// appended to since its last execution: a join whose build side reads no
// reset table and emits its delta (deltaPlan), which the table inserts. With
// grown empty the count is exact; with appends, a build side whose delta
// turns out empty may let more joins keep theirs.
func keptBuilds(p *relalg.Plan, reset, grown relalg.RelSet) (joins int) {
	eachPlanNode(p, func(n *relalg.Plan) {
		if n.Log == relalg.LogJoin && n.Left.Expr&reset == 0 && deltaPlan(n.Left, grown) {
			joins++
		}
	})
	return joins
}

// TestCachedTreeRefusesReopen: a tree compiled against a result cache made its
// probe and spool decisions against the cache's content at compile time, so a
// second Open is an error, not an execution on stale decisions.
func TestCachedTreeRefusesReopen(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	q := tpch.Q3S()
	plan := reopenPlans(t, q, cat)["volcano"]
	comp := &Compiler{Q: q, Cat: cat, Cache: rescache.New(1 << 20)}
	root, _, err := comp.CompileVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DrainVec(root); err != nil {
		t.Fatal(err)
	}
	if err := root.Open(); err == nil || !strings.Contains(err.Error(), "result cache") {
		t.Fatalf("second Open of a tree compiled against a result cache: %v, want a refusal", err)
	}
}

// failOnceIter fails its first execution's Next and would serve an empty
// stream afterwards.
type failOnceIter struct{ failed bool }

func (f *failOnceIter) Open() error { return nil }
func (f *failOnceIter) Next() (*Batch, error) {
	if !f.failed {
		f.failed = true
		return nil, errors.New("next failed")
	}
	return nil, nil
}
func (f *failOnceIter) Close() error { return nil }

// TestFailedTreeRefusesReopen: once an execution ended in an error its
// operators are in no defined state, and the root refuses to open them again.
func TestFailedTreeRefusesReopen(t *testing.T) {
	var comp Compiler
	stats := &RunStats{}
	root := comp.root(NewVecHashJoin(scanOf([]int64{1}), &failOnceIter{}, []int{0}, []int{0}, nil, seq(1), nil), stats)
	if _, err := DrainVec(root); err == nil {
		t.Fatal("the failing execution returned no error")
	}
	if err := root.Open(); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("Open after a failed execution: %v, want a refusal", err)
	}
}

// window returns rows [lo, hi) of snap as a snapshot sharing its columns.
func window(snap *storage.Snapshot, lo, hi int) *storage.Snapshot {
	w := &storage.Snapshot{Cols: make([][]int64, len(snap.Cols)), N: hi - lo}
	for c, col := range snap.Cols {
		w.Cols[c] = col[lo:hi:hi]
	}
	return w
}

// resettingScan is an aggregation's scan that calls reset from its Open,
// before the scan binds its snapshot, once.
type resettingScan struct {
	VecIterator
	reset func()
}

func (r *resettingScan) setDelta(want bool) { askDelta(r.VecIterator, want) }
func (r *resettingScan) isDelta() bool      { return gotDelta(r.VecIterator) }

func (r *resettingScan) Open() error {
	if r.reset != nil {
		r.reset()
		r.reset = nil
	}
	return r.VecIterator.Open()
}

// TestMaintainedAggRebuildsAfterReset: ResetSnapshot starts a new epoch, so
// a held aggregation over the reset table rebuilds from row 0 and folds
// nothing onto what it kept, even when the new content is longer than its
// watermark. lineitem is first the window of its last two thirds, over
// which Q1 and Q6 execute twice (the second maintains the table); then it
// is the whole table, published by ResetSnapshot, whose first rows are not
// the window's. Folding the whole table's rows past the window's length
// onto the window's sums would return neither reference. Three arms: the
// reset before Open; the reset inside Open, after anything an aggregation
// could read before its scan binds; and, for the race detector, a goroutine
// switching between the two contents while executions run, each of which
// must return one of the two references' multisets.
func TestMaintainedAggRebuildsAfterReset(t *testing.T) {
	cfg := tpch.Config{ScaleFactor: 0.002, Seed: 7}
	orig := tpch.Generate(cfg) // lineitem whole, for the references
	for _, arm := range []string{"before-open", "before-bind", "racing"} {
		for _, q := range []*relalg.Query{tpch.Q1(), tpch.Q6()} {
			label := fmt.Sprintf("%s %s", arm, q.Name)
			cat := tpch.Generate(cfg)
			tab := cat.MustTable("lineitem")
			whole := tab.Store().Snapshot()
			part := window(whole, whole.N/3, whole.N)
			tab.ResetSnapshot(part)
			plan := reopenPlans(t, q, cat)["volcano"]
			comp := &Compiler{Q: q, Cat: cat, Mem: NewMemTracker(0)}
			root, stats, err := comp.CompileVec(plan)
			if err != nil {
				t.Fatal(err)
			}
			for exec := 1; exec <= 2; exec++ {
				ref := testkit.NewReference(q, cat)
				checkExecution(t, label, comp, root, stats, ref.Card, testkit.Canonical(ref.Rows(), nil), plan)
			}
			if stats.ResultsMaintained() != 1 {
				t.Fatalf("%s: the unchanged window's second execution maintained nothing", label)
			}
			refWhole := testkit.NewReference(q, orig)
			wantPart, wantWhole := testkit.Canonical(testkit.NewReference(q, cat).Rows(), nil), testkit.Canonical(refWhole.Rows(), nil)
			if wantWhole == wantPart {
				t.Fatalf("%s: the window and the whole table agree", label)
			}
			reset := func() { tab.ResetSnapshot(whole) }
			switch arm {
			case "before-open":
				reset()
			case "before-bind":
				agg := stats.agg.in.(*vecHashAggOp)
				agg.in = &resettingScan{VecIterator: agg.in, reset: reset}
			case "racing":
				stop := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if i%2 == 0 {
							tab.ResetSnapshot(part)
						} else {
							tab.ResetSnapshot(whole)
						}
					}
				}()
				for exec := 0; exec < 200 && !t.Failed(); exec++ {
					rows, err := DrainVec(root)
					if err != nil {
						t.Error(err)
						break
					}
					if got := testkit.Canonical(rows, nil); got != wantPart && got != wantWhole {
						t.Errorf("%s: execution %d returned neither the window's nor the whole table's rows", label, exec)
					}
				}
				close(stop)
				<-done
				continue
			}
			checkExecution(t, label+", after the reset", comp, root, stats, refWhole.Card, wantWhole, plan)
			if stats.ResultsMaintained() != 0 {
				t.Fatalf("%s: the execution after a reset to a longer content maintained the table", label)
			}
		}
	}
}

// TestBindDirSwapInvalidatesKeptState: BindDir replaces a table's content
// wholesale and adopts the data version its directory was flushed at, which
// the content it replaces may have had too. Catalogs a and b are generated
// alike and reset once each, a to other content (its tables' last two
// thirds, twice over) and b to its own, so both are at the same versions;
// a's tables are flushed to a directory. Held Q3S and Q1 trees over b
// execute twice — the second keeps its join tables, or maintains its
// aggregation — and then b is bound to a's directory: the next execution
// must keep no join table, maintain nothing, and match the reference over
// a's content.
func TestBindDirSwapInvalidatesKeptState(t *testing.T) {
	dir := t.TempDir()
	reset := func(cat *catalog.Catalog, content func(*storage.Snapshot) *storage.Snapshot) {
		for _, name := range cat.Names() {
			tab := cat.MustTable(name)
			tab.ResetSnapshot(content(tab.Store().Snapshot()))
		}
	}
	a := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	reset(a, func(s *storage.Snapshot) *storage.Snapshot {
		tail := window(s, s.N/3, s.N)
		twice := &storage.Snapshot{Cols: make([][]int64, len(s.Cols)), N: 2 * tail.N}
		for c, col := range tail.Cols {
			twice.Cols[c] = append(slices.Clone(col), col...)
		}
		return twice
	})
	if _, err := a.BindDir(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.FlushDir(); err != nil {
		t.Fatal(err)
	}
	b := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	reset(b, func(s *storage.Snapshot) *storage.Snapshot { return s })
	for _, name := range b.Names() {
		if va, vb := a.MustTable(name).DataVersion(), b.MustTable(name).DataVersion(); va != vb {
			t.Fatalf("%s: the flushed catalog is at version %d, the held one at %d", name, va, vb)
		}
	}
	type tree struct {
		q     *relalg.Query
		plan  *relalg.Plan
		comp  *Compiler
		root  VecIterator
		stats *RunStats
		old   string
	}
	var trees []tree
	for _, q := range []*relalg.Query{tpch.Q3S(), tpch.Q1()} {
		plan := reopenPlans(t, q, b)["volcano"]
		comp := &Compiler{Q: q, Cat: b, Mem: NewMemTracker(0)}
		root, stats, err := comp.CompileVec(plan)
		if err != nil {
			t.Fatal(err)
		}
		ref := testkit.NewReference(q, b)
		want := testkit.Canonical(ref.Rows(), nil)
		for exec := 1; exec <= 2; exec++ {
			checkExecution(t, q.Name, comp, root, stats, ref.Card, want, plan)
		}
		if stats.BuildsReused()+stats.ResultsMaintained() == 0 {
			t.Fatalf("%s: the unchanged second execution kept nothing", q.Name)
		}
		trees = append(trees, tree{q, plan, comp, root, stats, want})
	}
	sum, err := b.BindDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.FlushDir() })
	if sum.Loaded != len(b.Names()) {
		t.Fatalf("BindDir loaded %d of %d tables", sum.Loaded, len(b.Names()))
	}
	for _, tr := range trees {
		label := tr.q.Name + " after the swap"
		ref := testkit.NewReference(tr.q, b)
		want := testkit.Canonical(ref.Rows(), nil)
		if want == tr.old {
			t.Fatalf("%s: the swapped content returns the rows it replaced", label)
		}
		checkExecution(t, label, tr.comp, tr.root, tr.stats, ref.Card, want, tr.plan)
		if kept, maintained := tr.stats.BuildsReused(), tr.stats.ResultsMaintained(); kept+maintained != 0 {
			t.Fatalf("%s: %d join tables kept and %d aggregations maintained across the swap", label, kept, maintained)
		}
	}
}
