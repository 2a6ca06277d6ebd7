package core

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/testkit"
	"repro/internal/volcano"
)

const costEps = 1e-6

func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= costEps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

var allModes = []Pruning{
	PruneNone, PruneEvita, PruneAggSel, PruneAggSelRefCount, PruneAggSelBound, PruneAll,
}

func newModel(t *testing.T, seed uint64, nRels int) *cost.Model {
	t.Helper()
	r := stats.NewRand(seed)
	cat := testkit.SyntheticCatalog(r, 4)
	q := testkit.RandomQuery(r, cat, nRels)
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

// TestAgreesWithBaselines is the central correctness property: for random
// queries, every pruning configuration of the declarative optimizer finds
// exactly the optimum found by the Volcano-style and System-R-style
// baselines ("we still guarantee the discovery of the best plan").
func TestAgreesWithBaselines(t *testing.T) {
	space := relalg.DefaultSpace()
	for seed := uint64(1); seed <= 40; seed++ {
		for _, nRels := range []int{2, 3, 4, 5, 6} {
			m := newModel(t, seed*97+uint64(nRels), nRels)
			vr, err := volcano.Optimize(m, space)
			if err != nil {
				t.Fatalf("seed %d n %d: volcano: %v", seed, nRels, err)
			}
			sr, err := systemr.Optimize(m, space)
			if err != nil {
				t.Fatalf("seed %d n %d: systemr: %v", seed, nRels, err)
			}
			if !approxEqual(vr.Cost, sr.Cost) {
				t.Fatalf("seed %d n %d: volcano %v != systemr %v", seed, nRels, vr.Cost, sr.Cost)
			}
			for _, mode := range allModes {
				o, err := New(m, space, mode)
				if err != nil {
					t.Fatalf("New(%v): %v", mode, err)
				}
				plan, err := o.Optimize()
				if err != nil {
					t.Fatalf("seed %d n %d mode %v: %v", seed, nRels, mode, err)
				}
				if !approxEqual(plan.Cost, vr.Cost) {
					t.Fatalf("seed %d n %d mode %v: declarative %v != volcano %v\nplan:\n%s",
						seed, nRels, mode, plan.Cost, vr.Cost, plan.Explain(m.Q))
				}
				if err := o.CheckInvariants(); err != nil {
					t.Fatalf("seed %d n %d mode %v: invariants: %v", seed, nRels, mode, err)
				}
			}
		}
	}
}

// TestIncrementalEqualsScratch drives random update streams through
// Reoptimize and checks, after every step, that the maintained optimum
// equals a from-scratch optimization under the same cost parameters, and
// that all internal invariants hold. Two seeds run 200 steps instead of 8:
// overrides pile up and get revoked, groups die and revive repeatedly, which
// short streams never reach (the repository benchmark replays 4 000). The
// wide arm runs storm-mix deltas on 10 and 12 relations under PruneAll,
// group ranks past those of the 8-relation TPC-H queries, against a fresh
// core optimization. The clone arms run the same streams on a Clone of the
// optimized state into the query with its relations and join predicates
// permuted (cloneArm). Every arm runs in both contractSpaces.
func TestIncrementalEqualsScratch(t *testing.T) {
	t.Run("wide", func(t *testing.T) { testIncrementalEqualsScratchWide(t, false) })
	for _, sp := range contractSpaces {
		testIncrementalEqualsScratchSeeds(t, sp.name, sp.space, false)
	}
	t.Run("clone", func(t *testing.T) {
		for _, sp := range contractSpaces {
			testIncrementalEqualsScratchSeeds(t, sp.name, sp.space, true)
		}
	})
	t.Run("clone-wide", func(t *testing.T) { testIncrementalEqualsScratchWide(t, true) })
}

// contractSpaces are the spaces the paper's contract is checked in: the
// full Table 1 space the figures use and the one the server optimizes in.
var contractSpaces = []struct {
	name  string
	space relalg.SpaceOptions
}{{"full", relalg.DefaultSpace()}, {"served", relalg.ServedSpace()}}

func testIncrementalEqualsScratchSeeds(t *testing.T, spaceName string, space relalg.SpaceOptions, clone bool) {
	factors := []float64{0.125, 0.25, 0.5, 2, 4, 8}
	for seed := uint64(1); seed <= 25; seed++ {
		nRels := 3 + int(seed%4)
		steps := 8
		if seed == 2 || seed == 3 { // 5 and 6 relations
			steps = 200
		}
		r := stats.NewRand(seed * 1337)
		cat := testkit.SyntheticCatalog(r, 4)
		q0 := testkit.RandomQuery(r, cat, nRels)

		for _, mode := range allModes {
			q := q0
			var o *Optimizer
			if clone {
				o, q = cloneArm(t, stats.NewRand(seed), cat, q0, space, mode)
			} else {
				m2, _ := cost.NewModel(q, cat, cost.DefaultParams())
				var err error
				if o, err = New(m2, space, mode); err != nil {
					t.Fatalf("New: %v", err)
				}
				if _, err := o.Optimize(); err != nil {
					t.Fatalf("Optimize: %v", err)
				}
			}
			// A parallel model receives the same updates and is
			// optimized from scratch as the oracle.
			oracle, err := cost.NewModel(q, cat, cost.DefaultParams())
			if err != nil {
				t.Fatalf("NewModel(oracle): %v", err)
			}

			for step := 0; step < steps; step++ {
				if r.Intn(3) == 0 {
					rel := r.Intn(nRels)
					f := factors[r.Intn(len(factors))]
					o.UpdateScanCostFactor(rel, f)
					oracle.SetScanCostFactor(rel, f)
				} else {
					s := testkit.RandomConnectedSubset(r, q, 2)
					f := factors[r.Intn(len(factors))]
					o.UpdateCardFactor(s, f)
					oracle.SetCardFactor(s, f)
				}
				plan, err := o.Reoptimize()
				if err != nil {
					t.Fatalf("%s space seed %d mode %v step %d: Reoptimize: %v", spaceName, seed, mode, step, err)
				}
				want, err := volcano.Optimize(oracle, space)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if !approxEqual(plan.Cost, want.Cost) {
					t.Fatalf("%s space seed %d mode %v step %d: incremental %v != scratch %v\nplan:\n%s",
						spaceName, seed, mode, step, plan.Cost, want.Cost, plan.Explain(q))
				}
				if err := o.CheckInvariants(); err != nil {
					t.Fatalf("%s space seed %d mode %v step %d: invariants: %v", spaceName, seed, mode, step, err)
				}
			}
		}
	}
}

func testIncrementalEqualsScratchWide(t *testing.T, clone bool) {
	for _, sp := range contractSpaces {
		for _, nRels := range []int{10, 12} {
			r := stats.NewRand(uint64(nRels) * 7919)
			cat := testkit.SyntheticCatalog(r, 4)
			q := testkit.RandomQuery(r, cat, nRels)
			var o *Optimizer
			if clone {
				o, q = cloneArm(t, stats.NewRand(uint64(nRels)), cat, q, sp.space, PruneAll)
			} else {
				m, err := cost.NewModel(q, cat, cost.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				if o, err = New(m, sp.space, PruneAll); err != nil {
					t.Fatal(err)
				}
				if _, err := o.Optimize(); err != nil {
					t.Fatal(err)
				}
			}
			oracle, _ := cost.NewModel(q, cat, cost.DefaultParams())
			for step := 0; step < 30; step++ {
				stormDelta(o, oracle, r, q, step)
				plan, err := o.Reoptimize()
				if err != nil {
					t.Fatalf("%s space %d relations step %d: Reoptimize: %v", sp.name, nRels, step, err)
				}
				fresh, _ := New(oracle, sp.space, PruneAll)
				want, err := fresh.Optimize()
				if err != nil {
					t.Fatalf("%s space %d relations step %d: fresh Optimize: %v", sp.name, nRels, step, err)
				}
				if !approxEqual(plan.Cost, want.Cost) {
					t.Fatalf("%s space %d relations step %d: incremental %v != scratch %v", sp.name, nRels, step, plan.Cost, want.Cost)
				}
				if err := o.CheckInvariants(); err != nil {
					t.Fatalf("%s space %d relations step %d: invariants: %v", sp.name, nRels, step, err)
				}
			}
		}
	}
}

// TestExtractedPlanCostConsistent re-derives the cost of the extracted plan
// tree bottom-up through the cost model and compares it with the optimizer's
// claimed cost.
func TestExtractedPlanCostConsistent(t *testing.T) {
	space := relalg.DefaultSpace()
	for seed := uint64(1); seed <= 20; seed++ {
		m := newModel(t, seed*31, 2+int(seed%5))
		o, err := New(m, space, PruneAll)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := o.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		var recompute func(p *relalg.Plan) float64
		recompute = func(p *relalg.Plan) float64 {
			if p == nil {
				return 0
			}
			alt := relalg.Alt{
				Log: p.Log, Phy: p.Phy, Rel: p.Rel, Pred: p.Pred, IdxCol: p.IdxCol,
			}
			if p.Left != nil {
				alt.LExpr, alt.LProp = p.Left.Expr, p.Left.Prop
			}
			if p.Right != nil {
				alt.RExpr, alt.RProp = p.Right.Expr, p.Right.Prop
			}
			return m.LocalCost(&alt, p.Expr, p.Prop) + recompute(p.Left) + recompute(p.Right)
		}
		got := recompute(plan)
		if !approxEqual(got, plan.Cost) {
			t.Fatalf("seed %d: plan cost %v, recomputed %v", seed, plan.Cost, got)
		}
	}
}

// TestPruningReducesState checks the qualitative claims of Figure 4/7: the
// full declarative configuration keeps strictly less alive state than the
// census, Evita never releases groups, and each added technique can only
// shrink (never grow) the alive alternative count.
func TestPruningReducesState(t *testing.T) {
	space := relalg.DefaultSpace()
	for seed := uint64(2); seed <= 10; seed++ {
		m := newModel(t, seed*911, 5)
		type state struct {
			met          Metrics
			groups, alts int
		}
		results := map[string]state{}
		for _, mode := range allModes {
			o, err := New(m, space, mode)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.Optimize(); err != nil {
				t.Fatal(err)
			}
			g, a := o.LiveState()
			results[mode.String()] = state{o.Metrics(), g, a}
		}
		census := results["none"]
		if census.met.AltsSuppressed != 0 || census.met.GroupsReleased != 0 {
			t.Fatalf("census mode pruned state: %+v", census.met)
		}
		if census.alts != census.met.AltsEnumerated {
			t.Fatalf("census did not cost every alternative: %d live of %d",
				census.alts, census.met.AltsEnumerated)
		}
		if ev := results["evita"]; ev.met.GroupsReleased != 0 || ev.groups != census.groups {
			t.Fatalf("evita pruned plan table entries (%d of %d); paper says it never does",
				ev.groups, census.groups)
		}
		full := results["all"]
		if full.alts > census.alts {
			t.Fatalf("full pruning has more alive alternatives (%d) than census (%d)",
				full.alts, census.alts)
		}
		if full.groups > census.groups {
			t.Fatalf("full pruning has more alive groups than census")
		}
		if full.alts >= results["evita"].alts {
			t.Fatalf("full pruning (%d live alts) should beat evita (%d)", full.alts, results["evita"].alts)
		}
	}
}

// TestUpdateRatioSmallForLargeExpressions reproduces the qualitative claim
// of Figure 5: updating the cardinality of a LARGER subexpression touches
// fewer entries than updating a smaller one, because fewer supersets exist.
func TestUpdateRatioSmallForLargeExpressions(t *testing.T) {
	m := newModel(t, 424242, 6)
	space := relalg.DefaultSpace()
	o, err := New(m, space, PruneAll)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Optimize(); err != nil {
		t.Fatal(err)
	}
	// Compare a 2-relation expression against the full 6-relation one.
	jp := m.Q.Joins[0]
	small := relalg.Single(jp.L.Rel).Add(jp.R.Rel)
	o.UpdateCardFactor(small, 2)
	if _, err := o.Reoptimize(); err != nil {
		t.Fatal(err)
	}
	touchedSmall := o.Metrics().TouchedEntries

	o.UpdateCardFactor(small, 1) // revert
	if _, err := o.Reoptimize(); err != nil {
		t.Fatal(err)
	}

	o.UpdateCardFactor(m.Q.AllRels(), 2)
	if _, err := o.Reoptimize(); err != nil {
		t.Fatal(err)
	}
	touchedLarge := o.Metrics().TouchedEntries
	if touchedLarge > touchedSmall {
		t.Fatalf("updating the root expression touched %d entries, more than a small expression's %d",
			touchedLarge, touchedSmall)
	}
}
