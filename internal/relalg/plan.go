package relalg

import (
	"fmt"
	"strings"
)

// Plan is a physical plan tree: the output of every optimizer. Each node
// corresponds to one chosen SearchSpace alternative, annotated with the cost
// model's estimates at optimization time.
type Plan struct {
	Expr RelSet
	Prop Prop
	Log  LogOp
	Phy  PhyOp

	Rel    int   // scans
	Pred   int   // joins: primary predicate index into Query.Joins
	IdxCol ColID // index scans

	Left, Right *Plan // Right nil for unary, both nil for leaves

	Card      float64 // estimated output cardinality
	LocalCost float64 // estimated cost of this operator alone
	Cost      float64 // cumulative: LocalCost + children costs
}

// Signature returns a compact canonical string identifying the plan's
// structure (operators, join order, access paths) without cost annotations.
// Two plans with equal signatures are the same physical plan; the AQP layer
// uses it to detect plan switches.
func (p *Plan) Signature() string {
	if p == nil {
		return "-"
	}
	switch p.Log {
	case LogScan:
		if p.Phy == PhyIndexScan {
			return fmt.Sprintf("ix%d.%d", p.Rel, p.IdxCol.Off)
		}
		return fmt.Sprintf("ts%d", p.Rel)
	case LogEnforce:
		return fmt.Sprintf("sort[%s](%s)", p.Prop, p.Left.Signature())
	default:
		return fmt.Sprintf("%s(%s,%s)", p.Phy, p.Left.Signature(), p.Right.Signature())
	}
}

// WriteLabel writes the node's line label, resolving names through the
// query: its operator, relation and key or join predicate. Explain and
// EXPLAIN ANALYZE (exec.RunStats.Format) both start a node's line with it.
func (p *Plan) WriteLabel(q *Query, b *strings.Builder) {
	switch p.Log {
	case LogScan:
		name := "?"
		if q != nil && p.Rel < len(q.Rels) {
			name = q.Rels[p.Rel].Alias
		}
		if p.Phy == PhyIndexScan {
			fmt.Fprintf(b, "IndexScan %s key=%s", name, q.ColString(p.IdxCol))
		} else {
			fmt.Fprintf(b, "TableScan %s", name)
		}
	case LogEnforce:
		fmt.Fprintf(b, "Sort %s", p.Prop)
	default:
		op := map[PhyOp]string{
			PhyHashJoin:    "HashJoin",
			PhyMergeJoin:   "MergeJoin",
			PhyIndexNLJoin: "IndexNLJoin",
		}[p.Phy]
		pred := ""
		if q != nil && p.Pred < len(q.Joins) {
			jp := q.Joins[p.Pred]
			pred = fmt.Sprintf(" on %s=%s", q.ColString(jp.L), q.ColString(jp.R))
		}
		fmt.Fprintf(b, "%s%s", op, pred)
	}
}

// Explain renders the plan as an indented operator tree with cost and
// cardinality estimates, resolving names through the query.
func (p *Plan) Explain(q *Query) string {
	var b strings.Builder
	p.explain(q, &b, 0)
	return b.String()
}

func (p *Plan) explain(q *Query, b *strings.Builder, depth int) {
	if p == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	p.WriteLabel(q, b)
	fmt.Fprintf(b, "  [card=%.1f local=%.3f cost=%.3f]\n", p.Card, p.LocalCost, p.Cost)
	p.Left.explain(q, b, depth+1)
	p.Right.explain(q, b, depth+1)
}
