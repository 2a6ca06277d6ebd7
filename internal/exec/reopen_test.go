package exec

import (
	"errors"
	"fmt"
	"reflect"
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
// budget must really spill in every one. An unbounded held tree must keep
// exactly the join tables whose build side reads no changed table
// (keptBuilds) and render their build subtrees "reused"; a tree under the
// budget keeps none. An unbounded held tree whose aggregation reads one
// table's scan (Q1, Q6) must maintain it — keep its table and fold only the
// appended rows, the aggregation and the scan rendered "maintained" —
// exactly in the executions after an append, and rebuild after the reset.
// Last, a tree compiled over the tables emptied runs before and after
// AppendRows has put their rows back, which a maintained aggregation folds
// as appended rows.
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
			apply   func()
			changed relalg.RelSet // the relations whose tables it changes; all before a first execution
		}{{func() {}, all}, {shrink, relsOf(cat.MustTable(q.Rels[0].Table))}, {grow, all}, {growLast, relsOf(last)}} {
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
				joins, nodes := keptBuilds(tr.plan, change.changed)
				if tr.comp.Mem.Bounded() {
					joins, nodes = 0, 0
				}
				if got, marked := tr.stats.BuildsReused(), strings.Count(tr.stats.Format(), " reused]"); got != joins || marked != nodes {
					t.Fatalf("%s: %d join tables kept and %d nodes rendered reused, want %d and %d\n%s",
						label, got, marked, joins, nodes, tr.stats.Format())
				}
				// Executions 3 and 4 follow appends only.
				checkMaintained(t, label, tr.comp, tr.plan, tr.stats, step >= 2)
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
			checkMaintained(t, label, tr.comp, tr.plan, tr.stats, step == 1)
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

// scanRoot reports whether plan's root is a scan, through enforcers.
func scanRoot(plan *relalg.Plan) bool {
	for plan.Log == relalg.LogEnforce {
		plan = plan.Left
	}
	return plan.Log == relalg.LogScan
}

// checkMaintained checks the latest execution of a held tree compiled by
// comp for plan: an unbounded tree whose aggregation reads one scan
// maintains it exactly when appended says only appends happened since its
// last execution, and then renders the aggregation and the scan, and
// nothing else, "maintained"; every other tree maintains nothing.
func checkMaintained(t *testing.T, label string, comp *Compiler, plan *relalg.Plan, stats *RunStats, appended bool) {
	t.Helper()
	want := 0
	if appended && comp.Q.Agg != nil && scanRoot(plan) && !comp.Mem.Bounded() {
		want = 1
	}
	text := stats.Format()
	if got, marked := stats.AggsMaintained(), strings.Count(text, " maintained"); got != want || marked != 2*want {
		t.Fatalf("%s: %d aggregations maintained and %d nodes rendered maintained, want %d and %d\n%s",
			label, got, marked, want, 2*want, text)
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
// drain that has bound its snapshot, in two arms. kept-tables: a table under
// a join's build side while the build drains it, for every join of Q3S and
// Q5. The next Open of that join must rebuild, since its pin recorded the
// table's version before the build bound the snapshot the append left
// behind, while every join whose build side reads another table keeps its
// own. maintained-aggregates: lineitem, from inside Q1's and Q6's scan
// while the fold drains it (maintainedAggsSeeAppendDuringFold). Each
// execution returns the reference's multiset over the tables as it began.
func TestKeptBuildSeesAppendDuringBuild(t *testing.T) {
	t.Run("kept-tables", keptTablesSeeAppendDuringBuild)
	t.Run("maintained-aggregates", maintainedAggsSeeAppendDuringFold)
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
		joins := 0
		for _, op := range stats.ops {
			if _, ok := op.in.(*vecHashJoinOp); ok {
				joins++
			}
		}
		if joins < 2 {
			t.Fatalf("%s: %d joins", q.Name, joins)
		}
		for j := range joins {
			comp := &Compiler{Q: q, Cat: cat, Mem: NewMemTracker(0)}
			root, stats, err := comp.CompileVec(plan)
			if err != nil {
				t.Fatal(err)
			}
			var hj *vecHashJoinOp
			var build *relalg.Plan
			for _, op := range stats.ops {
				if h, ok := op.in.(*vecHashJoinOp); ok {
					if j--; j < 0 {
						hj, build = h, op.node.Left
						break
					}
				}
			}
			rel := build.Expr.Members()[0] // Q3S and Q5 read each table once
			tab := cat.MustTable(q.Rels[rel].Table)
			child := &appendingBuild{VecIterator: hj.left, tab: tab, pending: true, t: t}
			hj.left = child
			for exec := 1; exec <= 2; exec++ {
				label := fmt.Sprintf("%s, build side %v appended to while it drains, execution %d", q.Name, build.Expr, exec)
				ref := testkit.NewReference(q, cat)
				checkExecution(t, label, comp, root, stats, ref.Card, testkit.Canonical(ref.Rows(), nil), plan)
				kept, _ := keptBuilds(plan, relalg.Single(rel))
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
			if child.opens != exec+1 || agg.n != want.n || stats.AggsMaintained() != want.maintained {
				t.Fatalf("%s: the scan opened %d times, the table holds %d rows, %d aggregations maintained; want %d, %d and %d",
					label, child.opens, agg.n, stats.AggsMaintained(), exec+1, want.n, want.maintained)
			}
		}
	}
}

// keptBuilds returns how many joins of plan keep their table when the tables
// of the relations in changed have moved since its last execution, and how
// many plan nodes that leaves unexecuted: a join whose build side reads none
// of them keeps its table, and nothing under its build side runs.
func keptBuilds(p *relalg.Plan, changed relalg.RelSet) (joins, nodes int) {
	switch p.Log {
	case relalg.LogScan:
		return 0, 0
	case relalg.LogEnforce:
		return keptBuilds(p.Left, changed)
	}
	joins, nodes = keptBuilds(p.Right, changed)
	if p.Left.Expr&changed != 0 {
		lj, ln := keptBuilds(p.Left, changed)
		return joins + lj, nodes + ln
	}
	eachPlanNode(p.Left, func(n *relalg.Plan) {
		if n.Log != relalg.LogEnforce {
			nodes++
		}
	})
	return joins + 1, nodes
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
			if stats.AggsMaintained() != 1 {
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
			if stats.AggsMaintained() != 0 {
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
		if stats.BuildsReused()+stats.AggsMaintained() == 0 {
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
		if kept, maintained := tr.stats.BuildsReused(), tr.stats.AggsMaintained(); kept+maintained != 0 {
			t.Fatalf("%s: %d join tables kept and %d aggregations maintained across the swap", label, kept, maintained)
		}
	}
}
