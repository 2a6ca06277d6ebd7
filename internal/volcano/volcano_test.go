package volcano

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/testkit"
)

func model(t *testing.T, seed uint64, n int) *cost.Model {
	t.Helper()
	r := stats.NewRand(seed)
	cat := testkit.SyntheticCatalog(r, 3)
	q := testkit.RandomQuery(r, cat, n)
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOptimizeProducesValidPlan(t *testing.T) {
	m := model(t, 3, 4)
	res, err := Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Expr != m.Q.AllRels() {
		t.Fatalf("root covers %v, want all relations", res.Plan.Expr)
	}
	var leaves func(p *relalg.Plan) int
	leaves = func(p *relalg.Plan) int {
		if p.Log == relalg.LogScan {
			return 1
		}
		return leaves(p.Left) + leaves(p.Right)
	}
	if n := leaves(res.Plan); n != len(m.Q.Rels) {
		t.Fatalf("plan has %d leaves, want %d", n, len(m.Q.Rels))
	}
	if res.Cost <= 0 {
		t.Fatalf("cost = %v", res.Cost)
	}
	if res.Metrics.Groups == 0 || res.Metrics.Alts == 0 {
		t.Fatalf("metrics empty: %+v", res.Metrics)
	}
}

func TestDeterministic(t *testing.T) {
	m := model(t, 4, 5)
	a, err := Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Plan.Signature() != b.Plan.Signature() {
		t.Fatal("optimization not deterministic")
	}
}

func TestBranchAndBoundPrunes(t *testing.T) {
	m := model(t, 5, 6)
	res, err := Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PrunedAlts == 0 {
		t.Fatal("branch-and-bound pruned nothing on a 6-way join")
	}
	if res.Metrics.CostedAlts >= res.Metrics.Alts {
		t.Fatal("every alternative was fully costed despite pruning")
	}
}

func TestDisconnectedQueryFails(t *testing.T) {
	r := stats.NewRand(1)
	cat := testkit.SyntheticCatalog(r, 2)
	q := &relalg.Query{
		Name: "disc",
		Rels: []relalg.RelRef{{Alias: "A", Table: "T0"}, {Alias: "B", Table: "T1"}},
		// no join predicates: Cartesian products are not enumerated
	}
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(m, relalg.DefaultSpace()); err == nil {
		t.Fatal("disconnected query produced a plan without cross products")
	}
}
