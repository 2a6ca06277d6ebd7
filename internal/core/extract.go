package core

import (
	"fmt"

	"repro/internal/relalg"
)

// extract materializes the BestPlan view (rule R10): descend from the root
// group, at each group following the cheapest live alternative.
func (o *Optimizer) extract() (*relalg.Plan, error) { return o.extractBy((*Optimizer).bestEntry) }

// pickEntry chooses the alternative a plan follows at one group.
type pickEntry func(*Optimizer, *group) (*entry, error)

func (o *Optimizer) extractBy(pick pickEntry) (*relalg.Plan, error) {
	if o.root == nil || !o.root.hasBest {
		return nil, fmt.Errorf("core: no plan found for query %s", o.model.Q.Name)
	}
	return o.buildPlan(o.root, pick)
}

// buildPlan builds the plan tree that follows pick's alternative at every
// group. The plan nodes are its only allocations.
func (o *Optimizer) buildPlan(g *group, pick pickEntry) (*relalg.Plan, error) {
	if g.onPath {
		return nil, fmt.Errorf("core: cycle through group %v during extraction", g.key)
	}
	g.onPath = true
	defer func() { g.onPath = false }()

	chosen, err := pick(o, g)
	if err != nil {
		return nil, err
	}
	node := &relalg.Plan{
		Expr: g.key.expr, Prop: g.key.prop,
		Log: chosen.alt.Log, Phy: chosen.alt.Phy,
		Rel: chosen.alt.Rel, Pred: chosen.alt.Pred, IdxCol: chosen.alt.IdxCol,
		Card:      o.model.Card(g.key.expr),
		LocalCost: chosen.localCost,
	}
	total := chosen.localCost
	for _, c := range chosen.children {
		if c == nil {
			continue
		}
		child, err := o.buildPlan(c, pick)
		if err != nil {
			return nil, err
		}
		total += child.Cost
		if node.Left == nil {
			node.Left = child
		} else {
			node.Right = child
		}
	}
	node.Cost = total
	return node, nil
}

// bestEntry returns the cheapest unpruned alternative of a group: the
// BestPlan tuple (rule R10 joins BestCost with PlanCost; pruned PlanCost
// tuples were deleted from the view, so they are skipped here even though
// their values remain inputs of the aggregate).
func (o *Optimizer) bestEntry(g *group) (*entry, error) {
	if e := g.minEntry(true); e != nil {
		return e, nil
	}
	return nil, fmt.Errorf("core: group %s %s has no live plan",
		o.model.Q.SetString(g.key.expr), g.key.prop)
}

// WorstPlan extracts a deliberately poor plan: at every group it follows
// the most expensive costed alternative. It is only meaningful for an
// optimizer run without pruning (PruneNone), where every alternative is
// costed; the evaluation uses it as the "bad plan" baseline of Figure 10.
func (o *Optimizer) WorstPlan() (*relalg.Plan, error) { return o.extractBy((*Optimizer).worstEntry) }

// worstEntry returns the most expensive costed alternative, ties going to
// the highest id. An enforcer over the group's own expression may win; the
// sibling group it leads to is a different group, and buildPlan's cycle
// guard stops a true cycle.
func (o *Optimizer) worstEntry(g *group) (*entry, error) {
	var worst *entry
	for i := range g.entries {
		if e := &g.entries[i]; e.costKnown && (worst == nil || e.cost >= worst.cost) {
			worst = e
		}
	}
	if worst == nil {
		return nil, fmt.Errorf("core: group %s has no costed plan", o.model.Q.SetString(g.key.expr))
	}
	return worst, nil
}
