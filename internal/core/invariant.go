package core

import (
	"fmt"
	"math"
)

// CheckInvariants verifies the internal consistency of the optimizer state
// at fixpoint. It is exercised by the unit and property test suites after
// every optimization and re-optimization, and documents the semantics the
// delta engine must preserve:
//
//  1. Aggregate consistency: BestCost equals the minimum over the group's
//     costed entries, re-derived here; PlanCost equals LocalCost + Σ
//     children BestCost; entry ids ascend within a group (the tiebreak).
//  2. Pruning soundness: a live (unpruned) costed entry never exceeds the
//     group's bound; the designated best entry is live in any group that
//     is alive and reachable; pruned costed entries are ≥ the best.
//  3. Reference counting: refCount equals the number of live, expanded,
//     reference-holding parent entries (+1 pin for the root); with
//     RefCount mode, alive == refCount > 0.
//  4. Bounds (rule r1–r4 fixpoint): bound == min(bestCost, max over the
//     contributions on the parent edges, re-derived here); each edge is
//     recorded on both ends, and each contribution comes from a live
//     expanded parent and matches its defining expression.
func (o *Optimizer) CheckInvariants() error {
	const eps = 1e-6
	refs := map[*group]int{}
	if o.root != nil {
		refs[o.root]++
	}
	for _, g := range o.order {
		for i := range g.entries {
			e := &g.entries[i]
			if e.refHeld {
				for _, c := range e.children {
					if c != nil {
						refs[c]++
					}
				}
			}
		}
	}
	for _, g := range o.order {
		// 1. aggregate consistency
		min, costed := infinity, false
		for i := range g.entries {
			e := &g.entries[i]
			if i > 0 && e.id <= g.entries[i-1].id {
				return fmt.Errorf("group %v entry %d: ids do not ascend", g.key, e.index)
			}
			if !e.costKnown {
				continue
			}
			costed = true
			if e.cost < min {
				min = e.cost
			}
			want := e.localCost
			incomplete := false
			for _, ch := range e.children {
				if ch == nil {
					continue
				}
				if !ch.hasBest {
					incomplete = true
					break
				}
				want += ch.bestCost
			}
			if !incomplete && math.Abs(want-e.cost) > eps*math.Max(1, math.Abs(want)) {
				return fmt.Errorf("group %v entry %d: PlanCost %v != LocalCost+children %v", g.key, e.index, e.cost, want)
			}
		}
		if g.hasBest != costed || (costed && g.bestCost != min) {
			return fmt.Errorf("group %v: bestCost %v (has=%v) != minimum over entries %v (costed=%v)", g.key, g.bestCost, g.hasBest, min, costed)
		}

		// 2. pruning soundness (floor-gated under suppression)
		if o.mode.Bound {
			for i := range g.entries {
				e := &g.entries[i]
				v := e.cost
				if o.mode.Suppress {
					v = e.floor()
				}
				if e.costKnown && !e.pruned && v > g.bound+eps*mathMax1(g.bound) {
					return fmt.Errorf("group %v entry %d: live value %v exceeds bound %v", g.key, e.index, v, g.bound)
				}
			}
		}
		if o.mode.AggSel && g.hasBest {
			for i := range g.entries {
				e := &g.entries[i]
				if e.costKnown && e.pruned && e.cost < g.bestCost-eps {
					return fmt.Errorf("group %v entry %d: pruned cost %v below best %v", g.key, e.index, e.cost, g.bestCost)
				}
			}
		}
		// floor validity: the cached floor matches its definition and
		// never exceeds any exact plan cost.
		if g.floor != computeFloor(g) {
			return fmt.Errorf("group %v: cached floor %v != computed %v", g.key, g.floor, computeFloor(g))
		}
		for i := range g.entries {
			e := &g.entries[i]
			if e.costKnown && e.floor() > e.cost+eps*mathMax1(e.cost) {
				return fmt.Errorf("group %v entry %d: floor %v exceeds exact cost %v", g.key, e.index, e.floor(), e.cost)
			}
		}

		// 3. reference counting
		if g.refCount != refs[g] {
			return fmt.Errorf("group %v: refCount %d != live references %d", g.key, g.refCount, refs[g])
		}
		if o.mode.RefCount && g.alive != (g.refCount > 0) {
			return fmt.Errorf("group %v: alive=%v with refCount=%d", g.key, g.alive, g.refCount)
		}

		// 4. bounds fixpoint
		for i := range g.entries {
			e := &g.entries[i]
			for sd, c := range e.children {
				if c == nil {
					if e.hasContrib[sd] {
						return fmt.Errorf("group %v entry %d: contribution on an absent child edge", g.key, e.index)
					}
					continue
				}
				n := 0
				for _, pr := range c.parents {
					if pr.e == e && pr.s == side(sd) {
						n++
					}
				}
				if n != 1 {
					return fmt.Errorf("group %v entry %d: child edge %d recorded %d times on the child", g.key, e.index, sd, n)
				}
			}
		}
		if o.mode.Bound {
			want := infinity
			if g.hasBest {
				want = g.bestCost
			}
			max, any := -infinity, false
			for _, pr := range g.parents {
				pe := pr.e
				if pe.children[pr.s] != g {
					return fmt.Errorf("group %v: parent edge does not lead back here", g.key)
				}
				if !pe.hasContrib[pr.s] {
					continue
				}
				if pe.pruned || !pe.expanded {
					return fmt.Errorf("group %v: contribution from pruned/unexpanded parent", g.key)
				}
				v := pe.contrib[pr.s]
				any = true
				if v > max {
					max = v
				}
				wantV := infinity
				sib := pe.children[1-pr.s]
				if pe.g.bound < infinity {
					wantV = slack(pe.g.bound) - pe.localCost
					if sib != nil {
						wantV -= sib.floor
					}
				}
				if !eqOrBothInf(wantV, v, eps) {
					return fmt.Errorf("group %v: contribution %v != r1/r2 value %v", g.key, v, wantV)
				}
			}
			if any && max < want {
				want = max
			}
			if !eqOrBothInf(want, g.bound, eps) {
				return fmt.Errorf("group %v: bound %v != min(best,maxContrib) %v", g.key, g.bound, want)
			}
		}
	}
	return nil
}

func mathMax1(x float64) float64 {
	if x < 1 && x > -1 {
		return 1
	}
	return math.Abs(x)
}

func eqOrBothInf(a, b, eps float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= eps*math.Max(1, math.Abs(a))
}
