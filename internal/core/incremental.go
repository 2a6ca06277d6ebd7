package core

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/cost"
	"repro/internal/relalg"
)

// This file implements §4: incremental re-optimization as view maintenance.
// Cost-parameter updates are staged on the optimizer, translated into
// LocalCost deltas over the affected region of the materialized state, and
// propagated by the same worklist that performed initial optimization. The
// untouched majority of the plan space — including subexpressions that were
// never enumerated thanks to pruning — is never visited, which is where the
// paper's order-of-magnitude speedups come from.

type pendingUpdate struct {
	isScan bool
	set    relalg.RelSet // card-factor updates: affected iff set ⊆ group expr
	rel    int           // scan-cost updates
}

// UpdateCardFactor stages a cardinality override: the estimated cardinality
// of every expression containing s is multiplied by factor (relative to the
// original estimate). This models a join-selectivity re-estimate, the
// paper's Figure 5 experiment, and the execution-feedback loop of Figure 6.
// Call Reoptimize to propagate.
func (o *Optimizer) UpdateCardFactor(s relalg.RelSet, factor float64) {
	o.enter("UpdateCardFactor")
	defer o.leave()
	o.model.SetCardFactor(s, factor)
	o.pending = append(o.pending, pendingUpdate{set: s})
}

// UpdateScanCostFactor stages a scan-cost change for one base relation of
// the query — the paper's Figure 8 experiment ("Orders has updated scan
// cost"). Call Reoptimize to propagate.
func (o *Optimizer) UpdateScanCostFactor(rel int, factor float64) {
	o.enter("UpdateScanCostFactor")
	defer o.leave()
	o.model.SetScanCostFactor(rel, factor)
	o.pending = append(o.pending, pendingUpdate{isScan: true, rel: rel})
}

// Reoptimize incrementally repairs the optimizer state under the staged
// updates and returns the (possibly new) best plan. Metrics.TouchedEntries
// and Metrics.TouchedGroups afterwards report the size of the affected
// region — the paper's "update ratio" numerators.
func (o *Optimizer) Reoptimize() (*relalg.Plan, error) {
	o.enter("Reoptimize")
	defer o.leave()
	if o.err != nil {
		return nil, o.err
	}
	if !o.optimized {
		return nil, fmt.Errorf("core: Reoptimize before Optimize")
	}
	start := time.Now()
	o.epoch++
	o.met.TouchedEntries = 0
	o.met.TouchedGroups = 0

	// Translate staged parameter updates into LocalCost deltas over the
	// affected entries. Group creation order makes the sweep
	// deterministic. Dead (released) groups are updated too: their
	// retained aggregate state must stay exact so revival decisions are
	// sound (§4.1/§4.2); they are part of the affected region either
	// way. Never-enumerated groups cost nothing — they do not exist.
	for gi := range o.groups {
		g := &o.groups[gi]
		if !o.groupAffected(g) {
			continue
		}
		for i := g.lo; i < g.hi; i++ {
			e := &o.entries[i]
			if !o.entryAffected(e, g.key.expr) {
				continue
			}
			nl := o.model.LocalCost(&e.alt, g.key.expr, g.key.prop)
			if nl == e.localCost {
				continue
			}
			e.localCost = nl
			e.floor = o.deriveFloor(e)
			o.touchEntry(e)
			if e.expanded {
				o.queueRecost(e)
			}
			o.queueContrib(e)
			// An unexpanded suppressed entry may now fit under
			// the threshold (or a viable one exceed it).
			o.queueReconcile(g)
		}
	}
	o.pending = o.pending[:0]
	if err := o.drain(); err != nil {
		return nil, err
	}
	o.trim()
	o.met.Elapsed = time.Since(start)
	return o.extract()
}

// groupAffected reports whether any staged update can change local costs
// inside g.
func (o *Optimizer) groupAffected(g *group) bool {
	for _, u := range o.pending {
		if u.isScan {
			// Scan costs matter to scans of the relation (which
			// live in its singleton groups) and to index-NL joins
			// probing it (which live in groups containing it).
			if g.key.expr.Has(u.rel) {
				return true
			}
			continue
		}
		if cost.CardDependsOn(g.key.expr, u.set) {
			return true
		}
	}
	return false
}

// entryAffected narrows the sweep within an affected group, of expression
// expr, to entries whose local cost formula actually reads a changed
// parameter.
func (o *Optimizer) entryAffected(e *entry, expr relalg.RelSet) bool {
	for _, u := range o.pending {
		if u.isScan {
			if cost.ScanAffects(&e.alt, u.rel) {
				return true
			}
			continue
		}
		// A cardinality change on u.set reaches the operator's output
		// estimate (expr ⊇ set) or either child estimate; expr ⊇ set
		// covers all three since children are subsets of expr. Scan
		// operators' local costs never read cardinality overrides
		// (they depend on raw row counts and predicate selectivities).
		if e.alt.Log == relalg.LogScan {
			continue
		}
		if u.set.IsSubset(expr) {
			return true
		}
	}
	return false
}

// Clone copies o's state into an optimizer for m's query: a statement over
// the same join graph whose cost parameters may all differ. Relation i of
// o's query is relation rel[i] of m's, and o's join predicate j is m's
// pred[j]; every relation ordinal and predicate index in the state is
// rewritten through the two maps. Clone then stages a cardinality update on
// every relation and a scan-cost update on every relation, so the next
// Reoptimize re-prices every entry from m and repairs the copy to m's
// optimum instead of enumerating the space from scratch. The copy shares
// nothing with o. Clone only reads o, which must not be mutated meanwhile,
// and returns nil when o holds no optimized state (Optimize was never
// called, or a drain failed).
func (o *Optimizer) Clone(m *cost.Model, rel, pred []int) *Optimizer {
	if !o.optimized || o.err != nil {
		return nil
	}
	set := func(s relalg.RelSet) (t relalg.RelSet) {
		for ; s != 0; s &= s - 1 {
			t |= relalg.Single(rel[bits.TrailingZeros64(uint64(s))])
		}
		return t
	}
	col := func(c relalg.ColID) relalg.ColID { return relalg.ColID{Rel: rel[c.Rel], Off: c.Off} }
	prop := func(p relalg.Prop) relalg.Prop {
		if p.Kind != relalg.PropAny {
			p.Col = col(p.Col)
		}
		return p
	}
	c, _ := New(m, o.space, o.mode) // o's mode passed Validate
	c.slabs = o.exact()
	c.byExpr = make(map[relalg.RelSet]groupID, len(o.byExpr))
	c.stepLimit, c.breadthFirst = o.stepLimit, o.breadthFirst
	c.met, c.epoch, c.optimized = o.met, o.epoch, true
	for i := range c.groups {
		g := &c.groups[i]
		g.key = groupKey{set(g.key.expr), prop(g.key.prop)}
		c.byExpr[g.key.expr] = g.id + 1 // ascending ids leave each expression's newest
	}
	for i := range c.entries {
		a := &c.entries[i].alt
		switch {
		case a.Log == relalg.LogJoin:
			a.Pred = pred[a.Pred]
		case a.Leaf():
			if a.Phy != relalg.PhyTableScan {
				a.IdxCol = col(a.IdxCol)
			}
			a.Rel = rel[a.Rel]
		}
		a.LExpr, a.LProp = set(a.LExpr), prop(a.LProp)
		a.RExpr, a.RProp = set(a.RExpr), prop(a.RProp)
	}
	c.pending = make([]pendingUpdate, 0, 2*len(rel))
	for i := range rel {
		c.pending = append(c.pending, pendingUpdate{set: relalg.Single(i)}, pendingUpdate{isScan: true, rel: i})
	}
	return c
}
