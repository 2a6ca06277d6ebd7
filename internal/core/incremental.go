package core

import (
	"fmt"
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
	for _, g := range o.order {
		if !o.groupAffected(g) {
			continue
		}
		for i := range g.entries {
			e := &g.entries[i]
			if !o.entryAffected(e) {
				continue
			}
			nl := o.model.LocalCost(e.alt, g.key.expr, g.key.prop)
			if nl == e.localCost {
				continue
			}
			e.localCost = nl
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

// entryAffected narrows the sweep within an affected group to entries whose
// local cost formula actually reads a changed parameter.
func (o *Optimizer) entryAffected(e *entry) bool {
	for _, u := range o.pending {
		if u.isScan {
			if cost.ScanAffects(e.alt, u.rel) {
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
		if u.set.IsSubset(e.g.key.expr) {
			return true
		}
	}
	return false
}
