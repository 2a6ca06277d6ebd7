// Package volcano implements the paper's first comparison baseline: a
// Volcano-style top-down query optimizer with memoization and
// branch-and-bound pruning (Graefe & McKenna, ICDE 1993). It shares the
// plan-space enumerator and cost model with every other architecture in the
// repository, so its optimum must (and, per the test suite, does) coincide
// with the System-R and declarative/incremental optimizers'.
package volcano

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cost"
	"repro/internal/relalg"
)

// Metrics reports how much of the search space the optimizer touched, using
// the same two axes as the paper's Figures 4, 5, 7 and 8: plan-table
// entries ("OR nodes" / groups) and plan alternatives ("AND nodes").
type Metrics struct {
	Groups     int // memo groups materialized
	Alts       int // alternatives enumerated into the memo
	CostedAlts int // alternatives fully costed
	PrunedAlts int // alternatives abandoned by branch-and-bound
	Elapsed    time.Duration
}

// Result is the output of one optimization.
type Result struct {
	Plan    *relalg.Plan
	Cost    float64
	Metrics Metrics
}

type groupKey struct {
	s relalg.RelSet
	p relalg.Prop
}

type memoEntry struct {
	alts      []relalg.Alt
	best      *relalg.Plan
	bestCost  float64
	done      bool    // best is the proven group optimum
	failBound float64 // highest bound under which the search came up empty
}

type optimizer struct {
	m    *cost.Model
	opts relalg.SpaceOptions
	memo map[groupKey]*memoEntry
	met  Metrics
	alts []relalg.Alt // Split's buffer; each memo entry keeps an exact copy
}

// Optimize finds the minimum-cost physical plan for the model's query.
func Optimize(m *cost.Model, opts relalg.SpaceOptions) (*Result, error) {
	start := time.Now()
	o := &optimizer{m: m, opts: opts, memo: map[groupKey]*memoEntry{}}
	plan, ok := o.group(m.Q.AllRels(), relalg.AnyProp, math.Inf(1))
	if !ok {
		return nil, fmt.Errorf("volcano: no plan found for query %s", m.Q.Name)
	}
	o.met.Groups = len(o.memo)
	o.met.Elapsed = time.Since(start)
	return &Result{Plan: plan, Cost: plan.Cost, Metrics: o.met}, nil
}

// group returns the optimal plan for (s, p) whose cost does not exceed
// bound, or ok=false if no such plan exists. On success the returned plan is
// the true optimum of the group (not merely some plan under the bound): the
// running limit below shrinks to the best cost found so far, so any
// alternative abandoned had a proven cost above the eventual optimum.
func (o *optimizer) group(s relalg.RelSet, p relalg.Prop, bound float64) (*relalg.Plan, bool) {
	key := groupKey{s, p}
	e := o.memo[key]
	if e == nil {
		e = &memoEntry{failBound: math.Inf(-1)}
		o.alts = relalg.Split(o.m.Q, o.m, o.opts, s, p, o.alts[:0])
		e.alts = slices.Clone(o.alts)
		o.met.Alts += len(e.alts)
		o.memo[key] = e
	}
	if e.done {
		if e.bestCost <= bound {
			return e.best, true
		}
		return nil, false
	}
	if bound <= e.failBound {
		return nil, false
	}

	best := math.Inf(1)
	var bestPlan *relalg.Plan
	for _, alt := range e.alts {
		limit := math.Min(bound, best)
		local := o.m.LocalCost(&alt, s, p)
		if local > limit {
			o.met.PrunedAlts++
			continue
		}
		node := &relalg.Plan{
			Expr: s, Prop: p, Log: alt.Log, Phy: alt.Phy,
			Rel: alt.Rel, Pred: alt.Pred, IdxCol: alt.IdxCol,
			Card: o.m.Card(s), LocalCost: local,
		}
		total := local
		switch {
		case alt.Leaf():
			// nothing further
		case alt.Unary():
			child, ok := o.group(alt.LExpr, alt.LProp, limit-total)
			if !ok {
				o.met.PrunedAlts++
				continue
			}
			node.Left = child
			total += child.Cost
		default:
			left, ok := o.group(alt.LExpr, alt.LProp, limit-total)
			if !ok {
				o.met.PrunedAlts++
				continue
			}
			total += left.Cost
			right, ok := o.group(alt.RExpr, alt.RProp, limit-total)
			if !ok {
				o.met.PrunedAlts++
				continue
			}
			total += right.Cost
			node.Left, node.Right = left, right
		}
		node.Cost = total
		o.met.CostedAlts++
		if total < best {
			best = total
			bestPlan = node
		}
	}
	if bestPlan != nil {
		e.done = true
		e.best = bestPlan
		e.bestCost = best
		return bestPlan, true
	}
	if bound > e.failBound {
		e.failBound = bound
	}
	return nil, false
}
