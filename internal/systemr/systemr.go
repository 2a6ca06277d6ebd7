// Package systemr implements the paper's second comparison baseline: a
// System-R-style bottom-up dynamic-programming optimizer with interesting
// orders (Selinger et al., SIGMOD 1979). It enumerates connected
// subexpressions in increasing size and keeps, for every
// (expression, property) pair, the cheapest plan. It performs no
// branch-and-bound pruning — the whole space is costed — which matches how
// the paper treats it ("a dynamic programming-based pruning model that is
// difficult to directly compare").
package systemr

import (
	"fmt"

	"time"

	"repro/internal/cost"
	"repro/internal/relalg"
)

// Metrics mirrors volcano.Metrics for side-by-side reporting.
type Metrics struct {
	Groups     int
	Alts       int
	CostedAlts int
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

// Optimize runs the full bottom-up dynamic program.
func Optimize(m *cost.Model, opts relalg.SpaceOptions) (*Result, error) {
	start := time.Now()
	q := m.Q
	n := len(q.Rels)
	table := map[groupKey]*relalg.Plan{}
	met := Metrics{}

	// Connected subsets grouped by size; within one size ascending bitmap
	// order for determinism.
	bySize := make([][]relalg.RelSet, n+1)
	all := uint64(q.AllRels())
	for v := uint64(1); v <= all; v++ {
		s := relalg.RelSet(v)
		if q.Connected(s) {
			bySize[s.Count()] = append(bySize[s.Count()], s)
		}
	}

	// The properties worth materializing for a subexpression: Any always;
	// Sorted on every join column local to the set (candidate interesting
	// orders for parent merge joins); Indexed on singletons for index-NL
	// inners.
	propsOf := func(s relalg.RelSet) []relalg.Prop {
		props := []relalg.Prop{relalg.AnyProp}
		if s.IsSingle() {
			rel := s.SingleMember()
			for _, jp := range q.Joins {
				for _, c := range [2]relalg.ColID{jp.L, jp.R} {
					if c.Rel == rel {
						props = append(props, relalg.Indexed(c))
					}
				}
			}
		}
		for _, jp := range q.Joins {
			for _, c := range [2]relalg.ColID{jp.L, jp.R} {
				if s.Has(c.Rel) {
					props = append(props, relalg.Sorted(c))
				}
			}
		}
		return dedupProps(props)
	}

	var alts []relalg.Alt // Split's buffer, reused by every group
	solve := func(s relalg.RelSet, p relalg.Prop) {
		alts = relalg.Split(q, m, opts, s, p, alts[:0])
		met.Alts += len(alts)
		var best *relalg.Plan
		for _, alt := range alts {
			local := m.LocalCost(&alt, s, p)
			node := &relalg.Plan{
				Expr: s, Prop: p, Log: alt.Log, Phy: alt.Phy,
				Rel: alt.Rel, Pred: alt.Pred, IdxCol: alt.IdxCol,
				Card: m.Card(s), LocalCost: local,
			}
			total := local
			switch {
			case alt.Leaf():
			case alt.Unary():
				child := table[groupKey{alt.LExpr, alt.LProp}]
				if child == nil {
					continue
				}
				node.Left = child
				total += child.Cost
			default:
				left := table[groupKey{alt.LExpr, alt.LProp}]
				right := table[groupKey{alt.RExpr, alt.RProp}]
				if left == nil || right == nil {
					continue
				}
				node.Left, node.Right = left, right
				total += left.Cost + right.Cost
			}
			node.Cost = total
			met.CostedAlts++
			if best == nil || total < best.Cost {
				best = node
			}
		}
		if best != nil {
			table[groupKey{s, p}] = best
			met.Groups++
		}
	}

	for size := 1; size <= n; size++ {
		for _, s := range bySize[size] {
			// Any and Indexed first (no dependency on same-set
			// Sorted), then Sorted (its enforcer uses same-set Any).
			var sorted []relalg.Prop
			for _, p := range propsOf(s) {
				if p.Kind == relalg.PropSorted {
					sorted = append(sorted, p)
					continue
				}
				solve(s, p)
			}
			for _, p := range sorted {
				solve(s, p)
			}
		}
	}

	root := table[groupKey{q.AllRels(), relalg.AnyProp}]
	if root == nil {
		return nil, fmt.Errorf("systemr: no plan found for query %s", q.Name)
	}
	met.Elapsed = time.Since(start)
	return &Result{Plan: root, Cost: root.Cost, Metrics: met}, nil
}

func dedupProps(props []relalg.Prop) []relalg.Prop {
	seen := map[relalg.Prop]bool{}
	out := props[:0]
	for _, p := range props {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
