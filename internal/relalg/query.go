package relalg

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// CmpOp is a comparison operator used in selection and (non-equi) join
// predicates.
type CmpOp uint8

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (o CmpOp) String() string {
	switch o {
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	}
	return "?"
}

// Eval applies the comparison to two int64 values.
func (o CmpOp) Eval(a, b int64) bool {
	switch o {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

// ScanPred is a local selection predicate "col op literal" pushed into the
// scan of its relation.
type ScanPred struct {
	Col ColID
	Op  CmpOp
	Val int64
}

// JoinPred is an equi-join predicate L = R between columns of two distinct
// relations. Non-equi conditions between relations are expressed as
// FilterPreds and applied as residual filters at the join that first brings
// both sides together.
type JoinPred struct {
	L, R ColID
}

// Touches reports whether the predicate references relation i.
func (p JoinPred) Touches(i int) bool { return p.L.Rel == i || p.R.Rel == i }

// Crosses reports whether the predicate connects the two disjoint sets,
// regardless of direction.
func (p JoinPred) Crosses(l, r RelSet) bool {
	return (l.Has(p.L.Rel) && r.Has(p.R.Rel)) || (r.Has(p.L.Rel) && l.Has(p.R.Rel))
}

// FilterPred is a residual comparison between columns of two relations,
// optionally with a constant offset on the right side: "L op R + Off"
// (e.g. Linear Road's "r2_seg < r3_seg" and "r2_seg > r3_seg - 10"). It
// does not participate in join enumeration; it is applied, and its
// selectivity charged, at the first join whose output contains both
// columns.
type FilterPred struct {
	L, R ColID
	Op   CmpOp
	Off  int64
	// Sel is the estimated selectivity of the filter (0, 1].
	Sel float64
}

// RelRef names one occurrence of a base table in the FROM list.
type RelRef struct {
	Alias string // unique within the query
	Table string // catalog table name
}

// AggSpec describes the (optional) aggregation applied on top of the join
// result. It does not participate in plan enumeration (its cost is identical
// for every join order) but is executed by internal/exec.
type AggSpec struct {
	GroupBy  []ColID
	Sums     []ColID // SUM(col) aggregates
	CountAll bool    // COUNT(*)
	// CountDistinct columns, e.g. Linear Road's COUNT(DISTINCT r5_xpos).
	CountDistinct []ColID
}

// Query is a single-block select-project-join(-aggregate) query: the input
// to every optimizer in this repository. The paper's workload (TPC-H Q1, Q3,
// Q5, Q5S, Q6, Q10, Q8Join, Q8JoinS and Linear Road SegTollS) is expressed
// in this form by internal/tpch and internal/linearroad.
type Query struct {
	Name    string
	Rels    []RelRef
	Scans   []ScanPred
	Joins   []JoinPred
	Filters []FilterPred
	Agg     *AggSpec

	// nbr is the join graph as masks: nbr[i] holds every relation some
	// join predicate connects to relation i. It is built on first use and
	// published atomically: concurrent first calls may build it
	// redundantly (the result is deterministic) but never race. Validate
	// prewarms it so validated queries do no lazy work.
	nbr atomic.Pointer[[]RelSet]
}

// Validate checks structural sanity: relation ordinals in range, aliases
// unique, predicates well-formed. Optimizers call it once up front. It also
// precomputes each relation's neighbour mask so that a validated Query is
// immutable and safe for concurrent read-only use — the serving layer
// shares one Query instance between the cached optimizer and every
// concurrently executing session.
func (q *Query) Validate() error {
	if len(q.Rels) == 0 {
		return fmt.Errorf("query %s: no relations", q.Name)
	}
	if len(q.Rels) > 64 {
		return fmt.Errorf("query %s: %d relations exceeds RelSet capacity", q.Name, len(q.Rels))
	}
	seen := map[string]bool{}
	for _, r := range q.Rels {
		if seen[r.Alias] {
			return fmt.Errorf("query %s: duplicate alias %q", q.Name, r.Alias)
		}
		seen[r.Alias] = true
	}
	checkCol := func(c ColID, what string) error {
		if c.Rel < 0 || c.Rel >= len(q.Rels) || c.Off < 0 {
			return fmt.Errorf("query %s: %s references invalid column %+v", q.Name, what, c)
		}
		return nil
	}
	for _, p := range q.Scans {
		if err := checkCol(p.Col, "scan predicate"); err != nil {
			return err
		}
	}
	for _, p := range q.Joins {
		if err := checkCol(p.L, "join predicate"); err != nil {
			return err
		}
		if err := checkCol(p.R, "join predicate"); err != nil {
			return err
		}
		if p.L.Rel == p.R.Rel {
			return fmt.Errorf("query %s: join predicate within one relation %+v", q.Name, p)
		}
	}
	for _, p := range q.Filters {
		if err := checkCol(p.L, "filter predicate"); err != nil {
			return err
		}
		if err := checkCol(p.R, "filter predicate"); err != nil {
			return err
		}
		// A filter is applied at the join that brings its two sides
		// together; one within a single relation would never be applied.
		if p.L.Rel == p.R.Rel {
			return fmt.Errorf("query %s: filter predicate within one relation %+v", q.Name, p)
		}
		if p.Sel <= 0 || p.Sel > 1 {
			return fmt.Errorf("query %s: filter selectivity %v out of (0,1]", q.Name, p.Sel)
		}
	}
	q.neighbours()
	return nil
}

// AllRels returns the set of every relation in the query.
func (q *Query) AllRels() RelSet {
	return RelSet(1)<<uint(len(q.Rels)) - 1
}

// ScanPredsOf returns the local selection predicates of relation i.
func (q *Query) ScanPredsOf(i int) []ScanPred {
	var out []ScanPred
	for _, p := range q.Scans {
		if p.Col.Rel == i {
			out = append(out, p)
		}
	}
	return out
}

func (q *Query) neighbours() []RelSet {
	if p := q.nbr.Load(); p != nil {
		return *p
	}
	nbr := make([]RelSet, len(q.Rels))
	for _, p := range q.Joins {
		nbr[p.L.Rel] = nbr[p.L.Rel].Add(p.R.Rel)
		nbr[p.R.Rel] = nbr[p.R.Rel].Add(p.L.Rel)
	}
	q.nbr.Store(&nbr)
	return nbr
}

// Connected reports whether the relations of s form a connected subgraph of
// the join graph: a flood from s's lowest member over the neighbour masks
// reaches all of s. Singleton sets are connected. The shared enumerator only
// generates connected subexpressions (no Cartesian products), as System R
// does.
func (q *Query) Connected(s RelSet) bool {
	nbr := q.neighbours()
	reached := s & -s
	for todo := reached; todo != 0; {
		i := bits.TrailingZeros64(uint64(todo))
		next := nbr[i] & s &^ reached
		reached |= next
		todo = todo&(todo-1) | next
	}
	return reached == s && !s.Empty()
}

// SetString renders a relation set with aliases, e.g. "(C,O,L)", matching
// the paper's Figure 2 notation.
func (q *Query) SetString(s RelSet) string {
	var b strings.Builder
	b.WriteByte('(')
	first := true
	s.EachMember(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(q.Rels[i].Alias)
	})
	b.WriteByte(')')
	return b.String()
}

// ColString renders a column with its alias, e.g. "O.c1".
func (q *Query) ColString(c ColID) string {
	if c.Rel >= 0 && c.Rel < len(q.Rels) {
		return fmt.Sprintf("%s.c%d", q.Rels[c.Rel].Alias, c.Off)
	}
	return fmt.Sprintf("r%d.c%d", c.Rel, c.Off)
}
