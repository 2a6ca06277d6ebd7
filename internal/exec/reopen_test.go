package exec

import (
	"errors"
	"fmt"
	"reflect"
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
// every tree is compiled once and executed three times, the tables changing
// under it in between — the first relation's cut to two thirds by
// ResetSnapshot, then every one grown past its first size by AppendRows, so
// every build side outgrows the buffers its operator kept. Each execution of
// the held tree must return the multiset and report the cardinalities of
// testkit.Reference over the tables as they are now, agree with a tree
// compiled freshly at that moment, and leave nothing charged to its tracker;
// some tree under the budget must really spill in every one. Last, a tree
// compiled at Parallelism 4 over the tables emptied runs before and after
// AppendRows has put their rows back.
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

		type tree struct {
			label string
			comp  *Compiler
			plan  *relalg.Plan
			root  VecIterator
			stats *RunStats
		}
		compile := func(label string, plan *relalg.Plan, par int, budget int64) tree {
			// NewMemTracker(0) bounds nothing and still counts what is charged.
			comp := &Compiler{Q: q, Cat: cat, Parallelism: par, Mem: NewMemTracker(budget)}
			root, stats, err := comp.CompileVec(plan)
			if err != nil {
				t.Fatalf("%s: compile: %v\n%s", label, err, plan.Explain(q))
			}
			return tree{label, comp, plan, root, stats}
		}
		var held []tree
		plans := reopenPlans(t, q, cat)
		for name, plan := range plans {
			for _, par := range []int{1, 4} {
				for _, budget := range []int64{0, tightBudget} {
					held = append(held, compile(fmt.Sprintf("%s %s plan (par=%d budget=%d)", q.Name, name, par, budget), plan, par, budget))
				}
			}
		}

		for step, change := range []func(){func() {}, shrink, grow} {
			change()
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
				parts, _, _ := tr.comp.Mem.SpillStats()
				spilled += parts

				fresh := compile(label+", fresh tree", tr.plan, tr.comp.Parallelism, tr.comp.Mem.Limit())
				checkExecution(t, fresh.label, fresh.comp, fresh.root, fresh.stats, card, want, fresh.plan)
				if got, want := tr.stats.Snapshot(), fresh.stats.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: RunStats %v, a freshly compiled tree reports %v", label, got, want)
				}
			}
			if len(q.Rels) > 1 && spilled == 0 {
				t.Fatalf("%s, execution %d: no tree under the %d-byte budget spilled a partition", q.Name, step+1, tightBudget)
			}
		}

		// A held tree sizes its parallel aggregation when it opens, not when it
		// is compiled: compiled over empty tables it runs one worker inline, and
		// more than one once AppendRows has grown its probe table past
		// minParallelRows — which a window of this stream reaches only when it
		// is put back several times.
		for tab, snap := range first {
			tab.ResetSnapshot(&storage.Snapshot{Cols: make([][]int64, len(snap.Cols))})
		}
		tr := compile(q.Name+" compiled over empty tables (par=4)", plans["volcano"], 4, 0)
		pipe := parallelOf(tr.root)
		fused := pipe != nil
		refill := func() {
			for tab, snap := range first {
				appendFirst(tab, snap.N)
			}
			if fused {
				for probe, n := pipe.scan.leaf.tab, first[pipe.scan.leaf.tab].N; n < minParallelRows; n += first[probe].N {
					appendFirst(probe, first[probe].N)
				}
			}
		}
		for step, change := range []func(){func() {}, refill} {
			change()
			ref := testkit.NewReference(q, cat)
			want := testkit.Canonical(ref.Rows(), nil)
			label := fmt.Sprintf("%s, execution %d", tr.label, step+1)
			checkExecution(t, label, tr.comp, tr.root, tr.stats, ref.Card, want, tr.plan)
			fresh := compile(label+", fresh tree", tr.plan, 4, 0)
			checkExecution(t, fresh.label, fresh.comp, fresh.root, fresh.stats, ref.Card, want, fresh.plan)
			if got, want := tr.stats.Snapshot(), fresh.stats.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: RunStats %v, a freshly compiled tree reports %v", label, got, want)
			}
			if fused && (step == 1) != (pipe.workers > 1) {
				t.Fatalf("%s: %d workers over a probe table of %d rows", label, pipe.workers, pipe.scan.leaf.data.n)
			}
		}
		for tab, snap := range first {
			tab.ResetSnapshot(snap)
		}
	}
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
	stats := &RunStats{Cards: map[relalg.RelSet]*int64{}}
	root := comp.root(NewVecHashJoin(scanOf([]int64{1}), &failOnceIter{}, []int{0}, []int{0}, nil, seq(1), nil), stats)
	if _, err := DrainVec(root); err == nil {
		t.Fatal("the failing execution returned no error")
	}
	if err := root.Open(); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("Open after a failed execution: %v, want a refusal", err)
	}
}
