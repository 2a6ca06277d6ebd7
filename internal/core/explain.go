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
	var rows []SearchSpaceRow
	for _, g := range o.sortedGroups() {
		if !g.alive {
			continue
		}
		best, _ := o.bestEntry(g)
		for i := g.lo; i < g.hi; i++ {
			e := &o.entries[i]
			if e.pruned {
				continue
			}
			row := SearchSpaceRow{
				Expr:  q.SetString(g.key.expr),
				Prop:  g.key.prop.String(),
				Index: fmt.Sprintf("%d", i-g.lo+1),
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

// sortedGroups returns the groups in display order: expression size
// (largest first), then bitmap, then property.
func (o *Optimizer) sortedGroups() []*group {
	groups := make([]*group, len(o.groups))
	for i := range o.groups {
		groups[i] = &o.groups[i]
	}
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
	return groups
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
	var b strings.Builder
	for _, g := range o.sortedGroups() {
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
		for i := g.lo; i < g.hi; i++ {
			e := &o.entries[i]
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
				i-g.lo+1, desc, e.localCost, cost, status)
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
//
// Reached by: the deltalog oracle (TestOracleMatchesCore in
// internal/deltalog), which re-derives BestCost from this space.
func (o *Optimizer) ExportSpace() []SpaceEntry {
	out := make([]SpaceEntry, len(o.entries))
	for i, e := range o.entries {
		g := &o.groups[e.g]
		out[i] = SpaceEntry{Expr: g.key.expr, Prop: g.key.prop, Index: int(e.id - g.lo), Alt: e.alt}
	}
	return out
}
