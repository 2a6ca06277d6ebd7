package deltalog

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// This file is the differential-testing oracle of the package doc: the
// paper's cost-estimation and plan-selection rules R6–R10 are expressed as
// deltalog rules over the exported SearchSpace, LocalCost updates flow
// through as deltas, and the maintained BestCost view must agree with the
// specialized incremental optimizer of internal/core at every step. This
// checks, end to end, that internal/core really is incremental view
// maintenance of the paper's datalog program.

const microScale = 1e6 // costs are fixed-point micro-units in tuples

type oracle struct {
	eng *Engine
	lc  *Relation // LocalCost: (gid, eid, kind, lgid, rgid, cost)
	bc  *Relation // BestCost:  (gid, cost)

	gids    map[groupID]int64
	entries []oracleEntry
}

type groupID struct {
	expr relalg.RelSet
	prop relalg.Prop
}

type oracleEntry struct {
	tuple Tuple // current LC tuple
	alt   relalg.Alt
	expr  relalg.RelSet
	prop  relalg.Prop
}

const (
	kindLeaf int64 = iota
	kindUnary
	kindBinary
)

// buildOracle wires the rule graph:
//
//	R6:  PlanCost(g,e,c)          :- LC(g,e,leaf,_,_,c).
//	R7:  PlanCost(g,e,c+bl)       :- LC(g,e,unary,l,_,c), BestCost(l,bl).
//	R8:  PlanCost(g,e,c+bl+br)    :- LC(g,e,binary,l,r,c), BestCost(l,bl), BestCost(r,br).
//	R9:  BestCost(g,min<c>)       :- PlanCost(g,e,c).
//
// (R10, BestPlan, is the join of BestCost with PlanCost; plan extraction is
// checked separately through the optimizer's own output.)
func buildOracle(space []core.SpaceEntry, m *cost.Model) *oracle {
	o := &oracle{eng: NewEngine(), gids: map[groupID]int64{}}
	gid := func(s relalg.RelSet, p relalg.Prop) int64 {
		k := groupID{s, p}
		if id, ok := o.gids[k]; ok {
			return id
		}
		id := int64(len(o.gids) + 1)
		o.gids[k] = id
		return id
	}

	o.lc = o.eng.Relation("localcost", 6)
	pc := o.eng.Relation("plancost", 3)
	pc1 := o.eng.Relation("plancost_partial", 4) // (gid,eid,rgid,partial)
	o.bc = o.eng.Relation("bestcost", 2)

	// R6
	o.eng.Map(o.lc, pc, func(t Tuple) []Tuple {
		if t[2] == kindLeaf {
			return []Tuple{{t[0], t[1], t[5]}}
		}
		return nil
	})
	// R7
	lcUnary := o.eng.Relation("localcost_unary", 6)
	o.eng.Map(o.lc, lcUnary, func(t Tuple) []Tuple {
		if t[2] == kindUnary {
			return []Tuple{t}
		}
		return nil
	})
	o.eng.Join(lcUnary, o.bc, []int{3}, []int{0}, pc, func(l, b Tuple) []Tuple {
		return []Tuple{{l[0], l[1], l[5] + b[1]}}
	})
	// R8 in two steps (left child, then right child)
	lcBinary := o.eng.Relation("localcost_binary", 6)
	o.eng.Map(o.lc, lcBinary, func(t Tuple) []Tuple {
		if t[2] == kindBinary {
			return []Tuple{t}
		}
		return nil
	})
	o.eng.Join(lcBinary, o.bc, []int{3}, []int{0}, pc1, func(l, b Tuple) []Tuple {
		return []Tuple{{l[0], l[1], l[4], l[5] + b[1]}}
	})
	o.eng.Join(pc1, o.bc, []int{2}, []int{0}, pc, func(p, b Tuple) []Tuple {
		return []Tuple{{p[0], p[1], p[3] + b[1]}}
	})
	// R9
	o.eng.GroupExtreme(pc, o.bc, []int{0}, 2, AggMin)

	for i, se := range space {
		g := gid(se.Expr, se.Prop)
		t := Tuple{g, int64(i), kindLeaf, 0, 0, micro(m.LocalCost(&se.Alt, se.Expr, se.Prop))}
		switch {
		case se.Alt.Unary():
			t[2] = kindUnary
			t[3] = gid(se.Alt.LExpr, se.Alt.LProp)
		case !se.Alt.Leaf():
			t[2] = kindBinary
			t[3] = gid(se.Alt.LExpr, se.Alt.LProp)
			t[4] = gid(se.Alt.RExpr, se.Alt.RProp)
		}
		o.entries = append(o.entries, oracleEntry{tuple: t, alt: se.Alt, expr: se.Expr, prop: se.Prop})
		o.eng.Insert(o.lc, t)
	}
	o.eng.Run()
	return o
}

// refresh re-derives every LocalCost from the model and emits update deltas
// for changed ones.
func (o *oracle) refresh(m *cost.Model) int {
	changed := 0
	for i := range o.entries {
		e := &o.entries[i]
		nc := micro(m.LocalCost(&e.alt, e.expr, e.prop))
		if nc == e.tuple[5] {
			continue
		}
		old := e.tuple.clone()
		e.tuple[5] = nc
		o.eng.Delete(o.lc, old)
		o.eng.Insert(o.lc, e.tuple)
		changed++
	}
	o.eng.Run()
	return changed
}

// best returns the maintained BestCost of a group.
func (o *oracle) best(s relalg.RelSet, p relalg.Prop) (float64, bool) {
	id, ok := o.gids[groupID{s, p}]
	if !ok {
		return 0, false
	}
	for _, t := range o.bc.Snapshot() {
		if t[0] == id {
			return float64(t[1]) / microScale, true
		}
	}
	return 0, false
}

func micro(c float64) int64 { return int64(math.Round(c * microScale)) }

// TestOracleMatchesCore compares the deltalog-maintained BestCost view with
// the specialized incremental optimizer across random queries and random
// cost-update streams, in the full Table 1 space on up to 5 relations and in
// the space the server optimizes in on up to 4.
func TestOracleMatchesCore(t *testing.T) {
	for _, arm := range []struct {
		name    string
		space   relalg.SpaceOptions
		maxRels int
	}{{"full", relalg.DefaultSpace(), 5}, {"served", relalg.ServedSpace(), 4}} {
		testOracleMatchesCore(t, arm.name, arm.space, arm.maxRels)
	}
}

func testOracleMatchesCore(t *testing.T, spaceName string, space relalg.SpaceOptions, maxRels int) {
	factors := []float64{0.125, 0.5, 2, 8}
	for seed := uint64(1); seed <= 12; seed++ {
		rnd := stats.NewRand(seed * 7717)
		cat := testkit.SyntheticCatalog(rnd, 3)
		q := testkit.RandomQuery(rnd, cat, 2+int(seed%4))
		if len(q.Rels) > maxRels {
			continue
		}
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		// The census optimizer maintains the space with no pruning;
		// the oracle re-executes R6-R10 over the same space.
		opt, err := core.New(m, space, core.PruneNone)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opt.Optimize(); err != nil {
			t.Fatal(err)
		}
		orc := buildOracle(opt.ExportSpace(), m)

		compare := func(step int) {
			for gk := range orc.gids {
				want, wok := opt.GroupBestCost(gk.expr, gk.prop)
				got, gok := orc.best(gk.expr, gk.prop)
				if wok != gok {
					t.Fatalf("%s space seed %d step %d group %v %v: presence mismatch core=%v oracle=%v",
						spaceName, seed, step, gk.expr, gk.prop, wok, gok)
				}
				if !wok {
					continue
				}
				if math.Abs(want-got) > 1e-3*math.Max(1, want) {
					t.Fatalf("%s space seed %d step %d group %v %v: core best %v != oracle best %v",
						spaceName, seed, step, gk.expr, gk.prop, want, got)
				}
			}
		}
		compare(-1)

		for step := 0; step < 5; step++ {
			if rnd.Intn(2) == 0 {
				rel := rnd.Intn(len(q.Rels))
				f := factors[rnd.Intn(len(factors))]
				opt.UpdateScanCostFactor(rel, f)
			} else {
				s := testkit.RandomConnectedSubset(rnd, q, 1)
				f := factors[rnd.Intn(len(factors))]
				opt.UpdateCardFactor(s, f)
			}
			if _, err := opt.Reoptimize(); err != nil {
				t.Fatalf("%s space seed %d step %d: %v", spaceName, seed, step, err)
			}
			orc.refresh(m) // same model: sees the same parameter changes
			compare(step)
		}
	}
}
