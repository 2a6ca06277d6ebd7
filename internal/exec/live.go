package exec

import (
	"fmt"
	"slices"

	"repro/internal/relalg"
)

// Column liveness. An operator's output schema lists exactly the columns
// read at or above it, so a column dies after its last reader instead of
// riding to the plan root. Who reads a column of a subexpression s depends
// only on the query and on s, never on the plan shape around it: the
// aggregation on top of the root reads its inputs (a query without one
// returns every column, so there everything is live and schemas are the full
// table widths), and a join or filter predicate is evaluated at the one join
// that first brings its two sides together — above s exactly when its other
// side lies outside s. PlanSchema and the compiler both derive schemas from
// live, so a cached subtree result and a compiled subtree cannot disagree
// about which columns they carry.

// live reports whether col, a column of a relation in s, is read above a
// plan node that produces s.
func (c *Compiler) live(col relalg.ColID, s relalg.RelSet) bool {
	a := c.Q.Agg
	if a == nil || slices.Contains(a.GroupBy, col) || slices.Contains(a.Sums, col) ||
		slices.Contains(a.CountDistinct, col) {
		return true
	}
	for _, jp := range c.Q.Joins {
		if (jp.L == col && !s.Has(jp.R.Rel)) || (jp.R == col && !s.Has(jp.L.Rel)) {
			return true
		}
	}
	for _, f := range c.Q.Filters {
		if (f.L == col && !s.Has(f.R.Rel)) || (f.R == col && !s.Has(f.L.Rel)) {
			return true
		}
	}
	return false
}

// scanSchema is the output schema of scan node p, in table order: the
// relation's live columns. A sorted or index scan carries no more — nothing
// the executor runs reads an order.
func (c *Compiler) scanSchema(p *relalg.Plan) ([]relalg.ColID, error) {
	t, err := c.Cat.Table(c.Q.Rels[p.Rel].Table)
	if err != nil {
		return nil, err
	}
	var schema []relalg.ColID
	for off := range t.ColNames {
		if col := (relalg.ColID{Rel: p.Rel, Off: off}); c.live(col, p.Expr) {
			schema = append(schema, col)
		}
	}
	return schema, nil
}

// joinSchema is the output schema of join p over child schemas ls (build /
// left) and rs (probe / right): the input columns still live above p, left
// side first. lOut and rOut are their positions in ls and rs — the gather
// lists of the join's emitter; columns only this join reads (its keys and
// residual operands) appear in neither.
func (c *Compiler) joinSchema(p *relalg.Plan, ls, rs []relalg.ColID) (schema []relalg.ColID, lOut, rOut []int) {
	for i, col := range ls {
		if c.live(col, p.Expr) {
			schema = append(schema, col)
			lOut = append(lOut, i)
		}
	}
	for i, col := range rs {
		if c.live(col, p.Expr) {
			schema = append(schema, col)
			rOut = append(rOut, i)
		}
	}
	return schema, lOut, rOut
}

// counted reports whether join p runs in counting mode: instead of copying a
// probe row once per matching build row it emits the row once, with the match
// count in Batch.Mult (the count-join of eager aggregation). That is sound
// exactly when the copies would be identical and their consumer takes a count
// in their place:
//
//   - p's build side is dead — no column of ls, its build-side schema, is
//     live above p — and no residual filter of p reads one (a filter crossing
//     p compares a build column with a probe column per pair, so the matches
//     of one probe row are no longer alike);
//   - weighted: p's consumer reads Mult. The aggregation on top of the root
//     does, and so does the probe side of a counting join, so a spine of dead
//     build sides composes; an enforcer passes its consumer's need through.
//     Everything else — a build-side drain, a result-cache spool, the root
//     of a query without aggregation — needs the rows and p enumerates.
//
// Counting changes no cardinality: the span shims sum Mult, so RunStats and
// all feedback derived from it are those of the enumerating join.
func (c *Compiler) counted(p *relalg.Plan, ls []relalg.ColID, weighted bool) bool {
	if !weighted {
		return false
	}
	for _, col := range ls {
		if c.live(col, p.Expr) {
			return false
		}
	}
	for _, f := range c.Q.Filters {
		if (relalg.JoinPred{L: f.L, R: f.R}).Crosses(p.Left.Expr, p.Right.Expr) {
			return false
		}
	}
	return true
}

// PlanSchema returns the output schema (the ColID of every output column, in
// order) of the operator tree the compiler builds for p, without building it.
func (c *Compiler) PlanSchema(p *relalg.Plan) ([]relalg.ColID, error) {
	switch p.Log {
	case relalg.LogScan:
		return c.scanSchema(p)
	case relalg.LogEnforce:
		return c.PlanSchema(p.Left)
	case relalg.LogJoin:
		ls, err := c.PlanSchema(p.Left)
		if err != nil {
			return nil, err
		}
		rs, err := c.PlanSchema(p.Right)
		if err != nil {
			return nil, err
		}
		schema, _, _ := c.joinSchema(p, ls, rs)
		return schema, nil
	}
	return nil, fmt.Errorf("exec: unknown logical operator %v", p.Log)
}
