package core

import (
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/testkit"
	"repro/internal/tpch"
)

// servedOptimize optimizes q over cat in space the way the server's plan
// cache does (PruneAll, cold model) and returns the plan and the number of
// groups enumerated.
func servedOptimize(t *testing.T, q *relalg.Query, cat *catalog.Catalog, space relalg.SpaceOptions) (*relalg.Plan, int) {
	t.Helper()
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(m, space, PruneAll)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	return plan, o.Metrics().GroupsEnumerated
}

// planOps lists the physical operators of a plan tree.
func planOps(p *relalg.Plan, out []relalg.PhyOp) []relalg.PhyOp {
	if p == nil {
		return out
	}
	out = append(out, p.Phy)
	return planOps(p.Right, planOps(p.Left, out))
}

// TestServedSpaceMatchesFullOnNamedQueries holds the server's space to the
// paper's: on every named TPC-H query the served plan is the full space's
// plan at the same cost, found over fewer groups. It also pins the
// decision to leave the access-path index scan out of the served space:
// the executor reads an index scan as a plain scan, so a plan choosing it
// for its index-fetch price would run at another price. Over seeded random
// shapes every served plan uses only the operators the executor runs as
// priced, and the same space with the index scan kept does choose it.
func TestServedSpaceMatchesFullOnNamedQueries(t *testing.T) {
	names := make([]string, 0, len(tpch.Queries()))
	for name := range tpch.Queries() {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, sf := range []float64{0.0005, 0.002} {
		cat := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: 42})
		for _, name := range names {
			q := tpch.Queries()[name]
			full, fullGroups := servedOptimize(t, q, cat, relalg.DefaultSpace())
			served, servedGroups := servedOptimize(t, q, cat, relalg.ServedSpace())
			if !approxEqual(served.Cost, full.Cost) || served.Signature() != full.Signature() {
				t.Errorf("SF %g %s: served plan %s at %v, full space %s at %v",
					sf, name, served.Signature(), served.Cost, full.Signature(), full.Cost)
			}
			if servedGroups > fullGroups || (len(q.Rels) > 1 && servedGroups == fullGroups) {
				t.Errorf("SF %g %s: served space enumerates %d groups, full space %d",
					sf, name, servedGroups, fullGroups)
			}
			t.Logf("SF %g %s: %d -> %d groups", sf, name, fullGroups, servedGroups)
		}
	}

	runsAsPriced := []relalg.PhyOp{relalg.PhyHashJoin, relalg.PhyTableScan}
	withIndexScan := relalg.ServedSpace()
	withIndexScan.NoIndexScan = false
	r := stats.NewRand(7)
	cat := testkit.SyntheticCatalog(r, 4)
	const shapes = 240
	picked := 0
	for i := range shapes {
		q := testkit.RandomQuery(r, cat, 3+i%6)
		served, _ := servedOptimize(t, q, cat, relalg.ServedSpace())
		for _, op := range planOps(served, nil) {
			if !slices.Contains(runsAsPriced, op) {
				t.Fatalf("shape %d (%d relations): served plan %s uses %v", i, len(q.Rels), served.Signature(), op)
			}
		}
		full, _ := servedOptimize(t, q, cat, relalg.DefaultSpace())
		if served.Cost < full.Cost && !approxEqual(served.Cost, full.Cost) {
			t.Fatalf("shape %d: served plan costs %v, below the full space's %v", i, served.Cost, full.Cost)
		}
		kept, _ := servedOptimize(t, q, cat, withIndexScan)
		if slices.Contains(planOps(kept, nil), relalg.PhyIndexScan) {
			picked++
		}
	}
	t.Logf("with the index scan kept, %d of %d served plans choose it", picked, shapes)
	if picked == 0 {
		t.Errorf("no shape chooses the index scan when it is kept: NoIndexScan no longer decides anything")
	}
}
