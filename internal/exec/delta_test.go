package exec

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/relalg"
	"repro/internal/testkit"
	"repro/internal/tpch"
)

// appendKeyed appends to tab copies of n of its rows, the column named key
// set to keys[i] (copies of rows whose key is keys[i] when the column holds
// it already, else of rows spread over the table).
func appendKeyed(t *testing.T, tab *catalog.Table, key string, keys []int64) {
	t.Helper()
	_, rows := tab.ColumnSnapshot()
	var copies [][]int64
	for i, k := range keys {
		row := testkit.Row(tab, (i*7)%rows)
		if key != "" {
			row[tab.MustCol(key)] = k
		}
		copies = append(copies, row)
	}
	if err := tab.AppendRows(copies); err != nil {
		t.Fatal(err)
	}
}

// freshKeys returns n keys above the largest of tab's column key.
func freshKeys(tab *catalog.Table, key string, n int) []int64 {
	cols, rows := tab.ColumnSnapshot()
	next := slices.Max(cols[tab.MustCol(key)][:rows]) + 1
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = next + int64(i)
	}
	return keys
}

// TestDeltaJoinMatchesFresh is the delta join's differential. Held trees
// of Q3S, Q5, Q5S and Q10 — Volcano's plan, whose probe sides are table
// scans, and the worst plan, whose are not always — execute once and then
// after each of these changes:
//
//   - an empty append to orders, lineitem and customer;
//   - new orders alone;
//   - lineitems of old orders;
//   - lineitems of orders not yet there, then, one step later, their
//     orders: the only step where a join's new build rows match probe
//     rows it already had (ΔB ⋈ P_old);
//   - new customers;
//   - lineitem reset to its own rows (a new snapshot epoch);
//   - the catalog bound to a directory and flushed (new epochs, and the
//     tables' rows in zone-mapped segments), then lineitems before their
//     orders again, whose old probe rows the zone maps now narrow.
//
// Every execution must return testkit.Reference's multiset and counts over
// the tables as they are, report the cardinalities of a tree compiled
// freshly then, and maintain its result after every step that only appends
// where each join can emit its delta (deltaPlan) — never after a reset or a
// swap, nor in the first execution — keeping every table whose build side
// emits its delta.
func TestDeltaJoinMatchesFresh(t *testing.T) {
	for _, q := range []*relalg.Query{tpch.Q3S(), tpch.Q5(), tpch.Q5S(), tpch.Q10()} {
		cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
		orders, li, customer := cat.MustTable("orders"), cat.MustTable("lineitem"), cat.MustTable("customer")
		relsOf := func(tabs ...*catalog.Table) (set relalg.RelSet) {
			for i, rel := range q.Rels {
				if slices.Contains(tabs, cat.MustTable(rel.Table)) {
					set = set.Add(i)
				}
			}
			return set
		}
		all := relalg.RelSet(1)<<len(q.Rels) - 1
		var pending []int64 // order keys whose lineitems arrived first
		steps := []struct {
			name         string
			apply        func()
			reset, grown relalg.RelSet
		}{
			{"first execution", func() {}, all, 0},
			{"empty appends", func() {
				for _, tab := range []*catalog.Table{orders, li, customer} {
					if err := tab.AppendRows(nil); err != nil {
						t.Fatal(err)
					}
				}
			}, 0, 0},
			{"new orders", func() { appendKeyed(t, orders, "o_orderkey", freshKeys(orders, "o_orderkey", 30)) }, 0, relsOf(orders)},
			{"lineitems of old orders", func() { appendKeyed(t, li, "", make([]int64, 60)) }, 0, relsOf(li)},
			{"lineitems before their orders", func() {
				pending = freshKeys(orders, "o_orderkey", 30)
				appendKeyed(t, li, "l_orderkey", append(pending, pending...))
			}, 0, relsOf(li)},
			{"their orders", func() { appendKeyed(t, orders, "o_orderkey", pending) }, 0, relsOf(orders)},
			{"new customers", func() { appendKeyed(t, customer, "c_custkey", freshKeys(customer, "c_custkey", 20)) }, 0, relsOf(customer)},
			{"lineitem reset", func() { li.ResetSnapshot(li.Store().Snapshot()) }, relsOf(li), 0},
			{"bound to a directory", func() {
				if _, err := cat.BindDir(t.TempDir(), 0); err != nil {
					t.Fatal(err)
				}
				for _, name := range cat.Names() {
					tab := cat.MustTable(name)
					if err := tab.Store().Flush(tab.DataVersion()); err != nil {
						t.Fatal(err)
					}
				}
			}, all, 0},
			{"lineitems before their orders, on disk", func() {
				pending = freshKeys(orders, "o_orderkey", 30)
				appendKeyed(t, li, "l_orderkey", append(pending, pending...))
			}, 0, relsOf(li)},
			{"their orders, on disk", func() { appendKeyed(t, orders, "o_orderkey", pending) }, 0, relsOf(orders)},
		}

		type tree struct {
			label string
			plan  *relalg.Plan
			comp  *Compiler
			root  VecIterator
			stats *RunStats
		}
		var trees []tree
		plans := reopenPlans(t, q, cat)
		for _, name := range []string{"volcano", "worst"} {
			plan := plans[name]
			if plan == nil {
				continue
			}
			comp := &Compiler{Q: q, Cat: cat, Mem: NewMemTracker(0)}
			root, stats, err := comp.CompileVec(plan)
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, tree{fmt.Sprintf("%s %s plan", q.Name, name), plan, comp, root, stats})
		}
		maintained := 0
		for _, step := range steps {
			step.apply()
			ref := testkit.NewReference(q, cat)
			want := testkit.Canonical(ref.Rows(), nil)
			for _, tr := range trees {
				label := fmt.Sprintf("%s, %s", tr.label, step.name)
				checkExecution(t, label, tr.comp, tr.root, tr.stats, ref.Card, want, tr.plan)
				if used := tr.comp.Mem.Used(); used != 0 {
					t.Fatalf("%s: %d bytes still charged after Close", label, used)
				}
				checkMaintained(t, label, tr.comp, tr.plan, tr.stats, step.reset == 0, step.grown)
				if step.reset == 0 {
					if got, must := tr.stats.BuildsReused(), keptBuilds(tr.plan, 0, step.grown); got < must {
						t.Fatalf("%s: %d join tables kept, want at least %d", label, got, must)
					}
				}
				maintained += tr.stats.ResultsMaintained()
				fresh := &Compiler{Q: q, Cat: cat, Mem: NewMemTracker(0)}
				froot, fstats, err := fresh.CompileVec(tr.plan)
				if err != nil {
					t.Fatal(err)
				}
				checkExecution(t, label+", fresh tree", fresh, froot, fstats, ref.Card, want, tr.plan)
				if got, want := tr.stats.Snapshot(), fstats.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: RunStats %v, a freshly compiled tree reports %v", label, got, want)
				}
			}
		}
		t.Logf("%s: %d of %d executions maintained their result", q.Name, maintained, len(steps)*len(trees))
		if err := cat.FlushDir(); err != nil {
			t.Fatal(err)
		}
	}
}
