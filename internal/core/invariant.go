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
//     children BestCost.
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
	refs := make([]int, len(o.groups))
	if len(refs) > 0 {
		refs[0]++ // the root's pin
	}
	for i := range o.entries {
		if e := &o.entries[i]; e.refHeld {
			for _, c := range e.children {
				if c != noGroup {
					refs[c]++
				}
			}
		}
	}
	for gi := range o.groups {
		g := &o.groups[gi]
		es := o.entries[g.lo:g.hi] // the group's entries, at their Index
		// 1. aggregate consistency
		min, costed := infinity, false
		for i := range es {
			e := &es[i]
			if !e.costKnown {
				continue
			}
			costed = true
			if e.cost < min {
				min = e.cost
			}
			want := e.localCost
			incomplete := false
			for _, c := range e.children {
				if c == noGroup {
					continue
				}
				ch := &o.groups[c]
				if !ch.hasBest {
					incomplete = true
					break
				}
				want += ch.bestCost
			}
			if !incomplete && math.Abs(want-e.cost) > eps*math.Max(1, math.Abs(want)) {
				return fmt.Errorf("group %v entry %d: PlanCost %v != LocalCost+children %v", g.key, i, e.cost, want)
			}
		}
		if g.hasBest != costed || (costed && g.bestCost != min) {
			return fmt.Errorf("group %v: bestCost %v (has=%v) != minimum over entries %v (costed=%v)", g.key, g.bestCost, g.hasBest, min, costed)
		}

		// 2. pruning soundness (floor-gated under suppression)
		if o.mode.Bound {
			for i := range es {
				e := &es[i]
				v := e.cost
				if o.mode.Suppress {
					v = e.floor
				}
				if e.costKnown && !e.pruned && v > g.bound+eps*mathMax1(g.bound) {
					return fmt.Errorf("group %v entry %d: live value %v exceeds bound %v", g.key, i, v, g.bound)
				}
			}
		}
		if o.mode.AggSel && g.hasBest {
			for i := range es {
				e := &es[i]
				if e.costKnown && e.pruned && e.cost < g.bestCost-eps {
					return fmt.Errorf("group %v entry %d: pruned cost %v below best %v", g.key, i, e.cost, g.bestCost)
				}
			}
		}
		// floor validity: every cached floor matches its definition and
		// never exceeds any exact plan cost.
		floor := infinity
		for i := range es {
			e := &es[i]
			if e.g != g.id || e.id != g.lo+entryID(i) {
				return fmt.Errorf("group %v entry %d: slab id %d names group %d", g.key, i, e.id, e.g)
			}
			floor = math.Min(floor, e.floor)
			if f := o.deriveFloor(e); e.floor != f {
				return fmt.Errorf("group %v entry %d: cached floor %v != local cost plus child floors %v", g.key, i, e.floor, f)
			}
			if e.costKnown && e.floor > e.cost+eps*mathMax1(e.cost) {
				return fmt.Errorf("group %v entry %d: floor %v exceeds exact cost %v", g.key, i, e.floor, e.cost)
			}
		}
		if g.floor != floor {
			return fmt.Errorf("group %v: cached floor %v != minimum over entries %v", g.key, g.floor, floor)
		}

		// 3. reference counting
		if g.refCount != refs[gi] {
			return fmt.Errorf("group %v: refCount %d != live references %d", g.key, g.refCount, refs[gi])
		}
		if o.mode.RefCount && g.alive != (g.refCount > 0) {
			return fmt.Errorf("group %v: alive=%v with refCount=%d", g.key, g.alive, g.refCount)
		}

		// 4. bounds fixpoint
		for i := range es {
			e := &es[i]
			for sd, id := range e.children {
				if id == noGroup {
					if e.hasContrib[sd] {
						return fmt.Errorf("group %v entry %d: contribution on an absent child edge", g.key, i)
					}
					continue
				}
				c := &o.groups[id]
				if c.rank >= g.rank {
					return fmt.Errorf("group %v entry %d: child %v's rank %d is not below %d", g.key, i, c.key, c.rank, g.rank)
				}
				n := 0
				for j := c.parents; j != noEdge; j = o.edges[j].next {
					if pr := o.edges[j]; pr.e == e.id && pr.s == side(sd) {
						n++
					}
				}
				if n != 1 {
					return fmt.Errorf("group %v entry %d: child edge %d recorded %d times on the child", g.key, i, sd, n)
				}
			}
		}
		if o.mode.Bound {
			want := infinity
			if g.hasBest {
				want = g.bestCost
			}
			max, any := -infinity, false
			for j := g.parents; j != noEdge; j = o.edges[j].next {
				pr := o.edges[j]
				pe := &o.entries[pr.e]
				if pe.children[pr.s] != g.id {
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
				if pg := &o.groups[pe.g]; pg.bound < infinity {
					wantV = slack(pg.bound) - pe.localCost
					if sib != noGroup {
						wantV -= o.groups[sib].floor
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
