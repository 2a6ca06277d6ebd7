package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relalg"
)

// This file renders the optimizer's state for humans: the SearchSpace
// relation (the paper's Table 1) and the annotated and-or-graph (Figure 2).

// SearchSpaceRow is one live SearchSpace tuple.
type SearchSpaceRow struct {
	Expr, Prop, Index, LogOp, PhyOp string
	LExpr, LProp, RExpr, RProp      string
	PlanCost                        string
	Best                            bool
}

// SearchSpaceTable returns the live SearchSpace tuples in a deterministic
// order (expression size, then bitmap, then property, then index),
// formatted like the paper's Table 1.
func (o *Optimizer) SearchSpaceTable() []SearchSpaceRow {
	q := o.model.Q
	groups := append([]*group(nil), o.order...)
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i].key, groups[j].key
		if a.expr.Count() != b.expr.Count() {
			return a.expr.Count() > b.expr.Count()
		}
		if a.expr != b.expr {
			return a.expr < b.expr
		}
		return a.prop.String() < b.prop.String()
	})
	var rows []SearchSpaceRow
	for _, g := range groups {
		if !g.alive {
			continue
		}
		best, _ := o.bestEntry(g)
		for i := range g.entries {
			e := &g.entries[i]
			if e.pruned {
				continue
			}
			row := SearchSpaceRow{
				Expr:  q.SetString(g.key.expr),
				Prop:  g.key.prop.String(),
				Index: fmt.Sprintf("%d", e.index+1),
				LogOp: e.alt.Log.String(),
				PhyOp: e.alt.Phy.String(),
				Best:  e == best,
			}
			if !e.alt.Leaf() {
				row.LExpr = q.SetString(e.alt.LExpr)
				row.LProp = e.alt.LProp.String()
				if !e.alt.Unary() {
					row.RExpr = q.SetString(e.alt.RExpr)
					row.RProp = e.alt.RProp.String()
				} else {
					row.RExpr, row.RProp = "-", "-"
				}
			} else {
				row.LExpr, row.LProp, row.RExpr, row.RProp = "-", "-", "-", "-"
			}
			if e.costKnown {
				row.PlanCost = fmt.Sprintf("%.3f", e.cost)
			} else {
				row.PlanCost = "?"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// FormatSearchSpace renders SearchSpaceTable as an aligned text table.
func (o *Optimizer) FormatSearchSpace() string {
	rows := o.SearchSpaceTable()
	header := []string{"*Expr", "*Prop", "*Index", "LogOp", "*PhyOp", "lExpr", "lProp", "rExpr", "rProp", "PlanCost", ""}
	cells := [][]string{header}
	for _, r := range rows {
		mark := ""
		if r.Best {
			mark = "<- best"
		}
		cells = append(cells, []string{r.Expr, r.Prop, r.Index, r.LogOp, r.PhyOp,
			r.LExpr, r.LProp, r.RExpr, r.RProp, r.PlanCost, mark})
	}
	return alignTable(cells)
}

// AndOrGraph renders the current and-or-graph with BestCost on OR nodes and
// LocalCost / PlanCost on AND nodes, in the spirit of the paper's Figure 2.
func (o *Optimizer) AndOrGraph() string {
	q := o.model.Q
	groups := append([]*group(nil), o.order...)
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i].key, groups[j].key
		if a.expr.Count() != b.expr.Count() {
			return a.expr.Count() > b.expr.Count()
		}
		if a.expr != b.expr {
			return a.expr < b.expr
		}
		return a.prop.String() < b.prop.String()
	})
	var b strings.Builder
	for _, g := range groups {
		if !g.alive {
			continue
		}
		fmt.Fprintf(&b, "OR %s %s", q.SetString(g.key.expr), g.key.prop)
		if g.hasBest {
			fmt.Fprintf(&b, "  BestCost=%.3f", g.bestCost)
		}
		if o.mode.Bound && g.bound < infinity {
			fmt.Fprintf(&b, "  Bound=%.3f", g.bound)
		}
		if o.mode.RefCount {
			fmt.Fprintf(&b, "  refs=%d", g.refCount)
		}
		b.WriteByte('\n')
		best, _ := o.bestEntry(g)
		for i := range g.entries {
			e := &g.entries[i]
			status := ""
			if e.pruned {
				status = "  [pruned]"
			} else if e == best {
				status = "  <- best"
			}
			desc := e.alt.Phy.String()
			if !e.alt.Leaf() {
				desc += " " + q.SetString(e.alt.LExpr)
				if !e.alt.Unary() {
					desc += " x " + q.SetString(e.alt.RExpr)
				}
			}
			cost := "?"
			if e.costKnown {
				cost = fmt.Sprintf("%.3f", e.cost)
			}
			fmt.Fprintf(&b, "  AND #%d %-40s Local=%.3f Plan=%s%s\n",
				e.index+1, desc, e.localCost, cost, status)
		}
	}
	return b.String()
}

// alignTable renders rows of cells as a space-aligned text table.
func alignTable(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	width := make([]int, 0)
	for _, r := range rows {
		for i, c := range r {
			if i >= len(width) {
				width = append(width, 0)
			}
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, r := range rows {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DumpGroup renders one group's full internal state (entries, costs,
// floors, pruning flags, parent edges with their bound contributions) for
// debugging.
func (o *Optimizer) DumpGroup(s relalg.RelSet, p relalg.Prop) string {
	g := o.groups[groupKey{s, p}]
	if g == nil {
		return "group not materialized"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "group %s %s alive=%v refs=%d hasBest=%v best=%g bound=%g floor=%g\n",
		o.model.Q.SetString(s), p, g.alive, g.refCount, g.hasBest, g.bestCost, g.bound, g.floor)
	for i := range g.entries {
		e := &g.entries[i]
		fmt.Fprintf(&b, "  #%d %v %s lexpr=%s rexpr=%s local=%g costKnown=%v cost=%g floor=%g pruned=%v expanded=%v refHeld=%v\n",
			e.index, e.alt.Log, e.alt.Phy, o.model.Q.SetString(e.alt.LExpr), o.model.Q.SetString(e.alt.RExpr),
			e.localCost, e.costKnown, e.cost, e.floor(), e.pruned, e.expanded, e.refHeld)
	}
	for _, pr := range g.parents {
		contrib := "-"
		if pr.e.hasContrib[pr.s] {
			contrib = fmt.Sprintf("%g", pr.e.contrib[pr.s])
		}
		fmt.Fprintf(&b, "  parent %s %s #%d side%d pruned=%v cost=%g bound=%g contrib=%s\n",
			o.model.Q.SetString(pr.e.g.key.expr), pr.e.g.key.prop, pr.e.index, pr.s, pr.e.pruned, pr.e.cost, pr.e.g.bound, contrib)
	}
	return b.String()
}

// SpaceEntry is one enumerated SearchSpace tuple in structured form, for
// external consumers (the deltalog oracle re-executes rules R6-R10 over it).
type SpaceEntry struct {
	Expr  relalg.RelSet
	Prop  relalg.Prop
	Index int
	Alt   relalg.Alt
}

// ExportSpace returns every enumerated SearchSpace tuple in deterministic
// (creation) order.
func (o *Optimizer) ExportSpace() []SpaceEntry {
	var out []SpaceEntry
	for _, g := range o.order {
		for i := range g.entries {
			e := &g.entries[i]
			out = append(out, SpaceEntry{
				Expr: g.key.expr, Prop: g.key.prop, Index: e.index, Alt: e.alt,
			})
		}
	}
	return out
}
