package core

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// permutation draws a random order of n ordinals.
func permutation(r *stats.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// permuteQuery returns q with relation i moved to ordinal rel[i] and join
// predicate j to index pred[j], its two sides swapped at random: the same
// statement in another coordinate system, which a plan cache would see as a
// different FROM order and WHERE order.
func permuteQuery(r *stats.Rand, q *relalg.Query, rel, pred []int) *relalg.Query {
	col := func(c relalg.ColID) relalg.ColID { return relalg.ColID{Rel: rel[c.Rel], Off: c.Off} }
	p := &relalg.Query{Name: q.Name, Rels: make([]relalg.RelRef, len(q.Rels)), Joins: make([]relalg.JoinPred, len(q.Joins))}
	for i, rr := range q.Rels {
		p.Rels[rel[i]] = rr
	}
	for j, jp := range q.Joins {
		jp = relalg.JoinPred{L: col(jp.L), R: col(jp.R)}
		if r.Intn(2) == 0 {
			jp.L, jp.R = jp.R, jp.L
		}
		p.Joins[pred[j]] = jp
	}
	for _, sp := range q.Scans {
		sp.Col = col(sp.Col)
		p.Scans = append(p.Scans, sp)
	}
	for _, f := range q.Filters {
		f.L, f.R = col(f.L), col(f.R)
		p.Filters = append(p.Filters, f)
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// mapSet rewrites a relation set of q into the coordinates rel maps it to.
func mapSet(s relalg.RelSet, rel []int) (t relalg.RelSet) {
	s.EachMember(func(i int) { t = t.Add(rel[i]) })
	return t
}

// cloneArm optimizes q from scratch, clones the optimizer into a copy of q
// whose relations and join predicates are permuted at random (r draws the
// permutation), and repairs the clone. It returns the repaired clone and its
// query: the optimizer under test of the contract's clone arms.
func cloneArm(t testing.TB, r *stats.Rand, cat *catalog.Catalog, q *relalg.Query, space relalg.SpaceOptions, mode Pruning) (*Optimizer, *relalg.Query) {
	t.Helper()
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := New(m, space, mode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmpl.Optimize(); err != nil {
		t.Fatal(err)
	}
	rel, pred := permutation(r, len(q.Rels)), permutation(r, len(q.Joins))
	pq := permuteQuery(r, q, rel, pred)
	pm, err := cost.NewModel(pq, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o := tmpl.Clone(pm, rel, pred)
	if _, err := o.Reoptimize(); err != nil {
		t.Fatalf("Reoptimize of a fresh clone: %v", err)
	}
	return o, pq
}

// cloneDelta is one staged cost update, in the template's coordinates.
type cloneDelta struct {
	scan   bool
	set    relalg.RelSet
	rel    int
	factor float64
}

// TestCloneEqualsOriginal checks Clone against the optimizer it copies, in
// every pruning mode and both contractSpaces: a clone into the same query
// (the identity map) and a clone into a copy of it with relations and join
// predicates permuted, each into a model whose parameters already differ
// from the template's, start at a fresh optimization's cost; the same random
// sequence of cardinality and scan-cost updates keeps the template and both
// clones at the cost of a fresh Optimize under the same parameters, with
// CheckInvariants passing on each after every step.
// Repairing the clones leaves the template's BestCost and invariants as they
// were: the copy shares no state.
func TestCloneEqualsOriginal(t *testing.T) {
	factors := []float64{0.125, 0.25, 0.5, 2, 4, 8}
	for _, sp := range contractSpaces {
		for seed := uint64(1); seed <= 10; seed++ {
			nRels := 2 + int(seed%5)
			r := stats.NewRand(seed * 4099)
			cat := testkit.SyntheticCatalog(r, 4)
			q := testkit.RandomQuery(r, cat, nRels)
			deltas := make([]cloneDelta, 16)
			for i := range deltas {
				d := cloneDelta{scan: r.Intn(3) == 0, factor: factors[r.Intn(len(factors))]}
				if d.scan {
					d.rel = r.Intn(nRels)
				} else {
					d.set = testkit.RandomConnectedSubset(r, q, 2)
				}
				deltas[i] = d
			}
			identity := make([]int, max(nRels, len(q.Joins)))
			for i := range identity {
				identity[i] = i
			}
			for _, mode := range allModes {
				name := func(arm string, step int) string {
					return fmt.Sprintf("%s space seed %d mode %v %s step %d", sp.name, seed, mode, arm, step)
				}
				m, _ := cost.NewModel(q, cat, cost.DefaultParams())
				tmpl, err := New(m, sp.space, mode)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tmpl.Optimize(); err != nil {
					t.Fatal(err)
				}
				base, _ := tmpl.BestCost()

				type arm struct {
					name      string
					q         *relalg.Query
					rel, pred []int
				}
				rel, pred := permutation(r, nRels), permutation(r, len(q.Joins))
				arms := []arm{{"identity", q, identity[:nRels], identity[:len(q.Joins)]},
					{"permuted", permuteQuery(r, q, rel, pred), rel, pred}}
				for _, a := range arms {
					// The clone's model starts with the first four
					// deltas already set, as a warm start sets them,
					// so the clone must re-price what it copies.
					oracle, _ := cost.NewModel(a.q, cat, cost.DefaultParams())
					cm, _ := cost.NewModel(a.q, cat, cost.DefaultParams())
					for _, d := range deltas[:4] {
						for _, m := range []*cost.Model{oracle, cm} {
							if d.scan {
								m.SetScanCostFactor(a.rel[d.rel], d.factor)
							} else {
								m.SetCardFactor(mapSet(d.set, a.rel), d.factor)
							}
						}
					}
					c := tmpl.Clone(cm, a.rel, a.pred)
					checkAgainstFresh(t, name(a.name, -1), c, oracle, sp.space, mode)
					for step, d := range deltas[4:] {
						if d.scan {
							c.UpdateScanCostFactor(a.rel[d.rel], d.factor)
							oracle.SetScanCostFactor(a.rel[d.rel], d.factor)
						} else {
							c.UpdateCardFactor(mapSet(d.set, a.rel), d.factor)
							oracle.SetCardFactor(mapSet(d.set, a.rel), d.factor)
						}
						checkAgainstFresh(t, name(a.name, step), c, oracle, sp.space, mode)
					}
					if got, _ := tmpl.BestCost(); got != base {
						t.Fatalf("%s: repairing the clone moved the template's BestCost %v to %v", name(a.name, len(deltas)), base, got)
					}
					if err := tmpl.CheckInvariants(); err != nil {
						t.Fatalf("%s: template invariants after repairing the clone: %v", name(a.name, len(deltas)), err)
					}
				}
				oracle, _ := cost.NewModel(q, cat, cost.DefaultParams())
				for step, d := range deltas {
					if d.scan {
						tmpl.UpdateScanCostFactor(d.rel, d.factor)
						oracle.SetScanCostFactor(d.rel, d.factor)
					} else {
						tmpl.UpdateCardFactor(d.set, d.factor)
						oracle.SetCardFactor(d.set, d.factor)
					}
					checkAgainstFresh(t, name("template", step), tmpl, oracle, sp.space, mode)
				}
			}
		}
	}
}

// checkAgainstFresh repairs o and fails unless its plan costs what a fresh
// optimization under oracle's parameters finds and its invariants hold.
func checkAgainstFresh(t *testing.T, name string, o *Optimizer, oracle *cost.Model, space relalg.SpaceOptions, mode Pruning) {
	t.Helper()
	plan, err := o.Reoptimize()
	if err != nil {
		t.Fatalf("%s: Reoptimize: %v", name, err)
	}
	fresh, _ := New(oracle, space, mode)
	want, err := fresh.Optimize()
	if err != nil {
		t.Fatalf("%s: fresh Optimize: %v", name, err)
	}
	if !approxEqual(plan.Cost, want.Cost) {
		t.Fatalf("%s: repaired %v != fresh %v", name, plan.Cost, want.Cost)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants: %v", name, err)
	}
}
