package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/tpch"
)

// planNodes counts the operators of a plan tree.
func planNodes(p *relalg.Plan) int {
	if p == nil {
		return 0
	}
	return 1 + planNodes(p.Left) + planNodes(p.Right)
}

// scans counts the base-relation scans of a plan tree.
func scans(p *relalg.Plan) int {
	if p == nil {
		return 0
	}
	if p.Log == relalg.LogScan {
		return 1
	}
	return scans(p.Left) + scans(p.Right)
}

func q3sOptimizer(t *testing.T, mode Pruning) *Optimizer {
	t.Helper()
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42})
	m, err := cost.NewModel(tpch.Q3S(), cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(m, relalg.DefaultSpace(), mode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Optimize(); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestSearchSpaceTableShape reproduces the structure of the paper's
// Table 1: after full pruning, the live SearchSpace for Q3S holds exactly
// the tuples of the optimal plan tree ("by the end of the process ...
// SearchSpace and PlanCost only contain those plans that are on the final
// optimal plan tree").
func TestSearchSpaceTableShape(t *testing.T) {
	o := q3sOptimizer(t, PruneAll)
	rows := o.SearchSpaceTable()
	plan, err := o.extract()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != planNodes(plan) {
		t.Fatalf("live SearchSpace has %d tuples, optimal plan has %d nodes:\n%s",
			len(rows), planNodes(plan), o.FormatSearchSpace())
	}
	best := 0
	for _, r := range rows {
		if r.Best {
			best++
		}
		if r.Expr == "" || r.PhyOp == "" {
			t.Fatalf("malformed row %+v", r)
		}
	}
	if best != len(rows) {
		t.Fatalf("%d of %d live tuples are best; with full pruning all should be", best, len(rows))
	}
	text := o.FormatSearchSpace()
	for _, want := range []string{"(C,O,L)", "*Expr", "PlanCost"} {
		if !strings.Contains(text, want) {
			t.Fatalf("FormatSearchSpace missing %q:\n%s", want, text)
		}
	}
}

func TestAndOrGraphRenders(t *testing.T) {
	o := q3sOptimizer(t, PruneEvita)
	g := o.AndOrGraph()
	for _, want := range []string{"OR (C,O,L)", "BestCost=", "AND #1", "[pruned]", "<- best"} {
		if !strings.Contains(g, want) {
			t.Fatalf("AndOrGraph missing %q:\n%s", want, g)
		}
	}
}

func TestDumpGroupRenders(t *testing.T) {
	o := q3sOptimizer(t, PruneAll)
	s := o.DumpGroup(o.model.Q.AllRels(), relalg.AnyProp)
	if !strings.Contains(s, "group (C,O,L)") || !strings.Contains(s, "hasBest=true") {
		t.Fatalf("DumpGroup output:\n%s", s)
	}
	if got := o.DumpGroup(relalg.RelSet(1)<<40, relalg.AnyProp); got != "group not materialized" {
		t.Fatalf("missing group dump = %q", got)
	}
}

// TestBreadthFirstAgrees: the search-order ablation must find the same
// optimum (§2.3: order affects pruning, not correctness).
func TestBreadthFirstAgrees(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42})
	for _, q := range tpch.JoinWorkload() {
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		costs := map[bool]float64{}
		for _, breadth := range []bool{false, true} {
			o, err := New(m, relalg.DefaultSpace(), PruneAll)
			if err != nil {
				t.Fatal(err)
			}
			o.SetBreadthFirst(breadth)
			plan, err := o.Optimize()
			if err != nil {
				t.Fatalf("%s breadth=%v: %v", q.Name, breadth, err)
			}
			if err := o.CheckInvariants(); err != nil {
				t.Fatalf("%s breadth=%v: %v", q.Name, breadth, err)
			}
			costs[breadth] = plan.Cost
		}
		if costs[false] != costs[true] {
			t.Fatalf("%s: depth-first %v != breadth-first %v", q.Name, costs[false], costs[true])
		}
	}
}

// TestWorstPlanIsWorse: the Figure 10 bad-plan baseline must cost at least
// as much as the optimum and execute the same logical query (same leaves).
func TestWorstPlanIsWorse(t *testing.T) {
	o := q3sOptimizer(t, PruneNone)
	best, err := o.extract()
	if err != nil {
		t.Fatal(err)
	}
	worst, err := o.WorstPlan()
	if err != nil {
		t.Fatal(err)
	}
	if worst.Cost < best.Cost {
		t.Fatalf("worst %v < best %v", worst.Cost, best.Cost)
	}
	if scans(worst) != scans(best) {
		t.Fatal("worst plan covers different relations")
	}
}

// TestGroupBestCostAccessor covers the oracle-facing accessor.
func TestGroupBestCostAccessor(t *testing.T) {
	o := q3sOptimizer(t, PruneNone)
	if _, ok := o.GroupBestCost(o.model.Q.AllRels(), relalg.AnyProp); !ok {
		t.Fatal("root best missing")
	}
	if _, ok := o.GroupBestCost(relalg.RelSet(1)<<40, relalg.AnyProp); ok {
		t.Fatal("nonexistent group has a best")
	}
}

// TestReoptimizeBeforeOptimizeFails covers the API misuse guard.
func TestReoptimizeBeforeOptimizeFails(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 1})
	m, _ := cost.NewModel(tpch.Q3S(), cat, cost.DefaultParams())
	o, _ := New(m, relalg.DefaultSpace(), PruneAll)
	if _, err := o.Reoptimize(); err == nil {
		t.Fatal("Reoptimize before Optimize accepted")
	}
}

// TestPruningModeValidation covers the combination constraints.
func TestPruningModeValidation(t *testing.T) {
	bad := []Pruning{
		{Suppress: true},
		{AggSel: true, Suppress: true, RefCount: false, Bound: false}, // valid
	}
	if err := bad[0].Validate(); err == nil {
		t.Fatal("Suppress without AggSel accepted")
	}
	if err := (Pruning{RefCount: true, AggSel: true}).Validate(); err == nil {
		t.Fatal("RefCount without Suppress accepted")
	}
	if err := (Pruning{Bound: true}).Validate(); err == nil {
		t.Fatal("Bound without AggSel accepted")
	}
	if err := bad[1].Validate(); err != nil {
		t.Fatalf("valid mode rejected: %v", err)
	}
}

// DumpGroup renders one group's full internal state (entries, costs,
// floors, pruning flags, parent edges with their bound contributions) for
// debugging.
func (o *Optimizer) DumpGroup(s relalg.RelSet, p relalg.Prop) string {
	g := o.lookup(groupKey{s, p})
	if g == nil {
		return "group not materialized"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "group %s %s alive=%v refs=%d hasBest=%v best=%g bound=%g floor=%g\n",
		o.model.Q.SetString(s), p, g.alive, g.refCount, g.hasBest, g.bestCost, g.bound, g.floor)
	for i := g.lo; i < g.hi; i++ {
		e := &o.entries[i]
		fmt.Fprintf(&b, "  #%d %v %s lexpr=%s rexpr=%s local=%g costKnown=%v cost=%g floor=%g pruned=%v expanded=%v refHeld=%v\n",
			i-g.lo, e.alt.Log, e.alt.Phy, o.model.Q.SetString(e.alt.LExpr), o.model.Q.SetString(e.alt.RExpr),
			e.localCost, e.costKnown, e.cost, e.floor, e.pruned, e.expanded, e.refHeld)
	}
	for i := g.parents; i != noEdge; i = o.edges[i].next {
		pr := o.edges[i]
		pe := &o.entries[pr.e]
		pg := &o.groups[pe.g]
		contrib := "-"
		if pe.hasContrib[pr.s] {
			contrib = fmt.Sprintf("%g", pe.contrib[pr.s])
		}
		fmt.Fprintf(&b, "  parent %s %s #%d side%d pruned=%v cost=%g bound=%g contrib=%s\n",
			o.model.Q.SetString(pg.key.expr), pg.key.prop, pe.id-pg.lo, pr.s, pe.pruned, pe.cost, pg.bound, contrib)
	}
	return b.String()
}
