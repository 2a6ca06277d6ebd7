package relalg

import "fmt"

// LogOp is a logical operator: the paper's LogOp attribute of SearchSpace.
type LogOp uint8

const (
	// LogScan reads a base relation, applying that relation's local
	// selection predicates (the paper's "tablescans with selection
	// predicates applied").
	LogScan LogOp = iota
	// LogJoin combines two subexpressions on their connecting predicates.
	LogJoin
	// LogEnforce is a property enforcer: it does not change the logical
	// expression, only its physical properties (a Sort node).
	LogEnforce
)

func (o LogOp) String() string {
	switch o {
	case LogScan:
		return "scan"
	case LogJoin:
		return "join"
	case LogEnforce:
		return "enforce"
	}
	return fmt.Sprintf("LogOp(%d)", uint8(o))
}

// PhyOp is a physical operator: the paper's PhyOp attribute of SearchSpace.
type PhyOp uint8

const (
	// PhyTableScan is a sequential ("local") scan of a base relation.
	PhyTableScan PhyOp = iota
	// PhyIndexScan reads a base relation through one of its indexes,
	// producing output sorted by (and indexed on) the key column.
	PhyIndexScan
	// PhyHashJoin is a pipelined hash join: build on the left input,
	// probe with the right input. It imposes no input properties.
	PhyHashJoin
	// PhyMergeJoin is a sort-merge join: both inputs must be sorted on
	// the join columns; the output is sorted on them too.
	PhyMergeJoin
	// PhyIndexNLJoin is an index nested-loops join. Following the paper's
	// Table 1, the LEFT child is the inner (a single base relation with
	// an index on the join column, demanded with an Indexed property) and
	// the RIGHT child is the outer.
	PhyIndexNLJoin
	// PhySort is the sort enforcer that turns an Any-property plan into a
	// Sorted-property plan for the same expression.
	PhySort
)

func (o PhyOp) String() string {
	switch o {
	case PhyTableScan:
		return "tablescan"
	case PhyIndexScan:
		return "indexscan"
	case PhyHashJoin:
		return "hashjoin"
	case PhyMergeJoin:
		return "mergejoin"
	case PhyIndexNLJoin:
		return "indexnljoin"
	case PhySort:
		return "sort"
	}
	return fmt.Sprintf("PhyOp(%d)", uint8(o))
}

// PropKind classifies plan output properties.
type PropKind uint8

const (
	// PropAny places no requirement on (or makes no promise about) the
	// physical organization of the data.
	PropAny PropKind = iota
	// PropSorted requires/promises the rows sorted by a column — the
	// classic "interesting order" of System R.
	PropSorted
	// PropIndexed requires/promises random access by key on a column; it
	// is only satisfiable by an index scan of a base relation and is
	// demanded by the inner side of an index nested-loops join, exactly
	// as in the paper's Table 1 ("index on L_orderkey").
	PropIndexed
)

// ColID names a column of the query by (relation ordinal, column offset in
// that relation's base table). It is comparable and used as a map key.
type ColID struct {
	Rel int // index into Query.Rels
	Off int // column offset within the base table's row
}

// Prop is a physical property: the paper's Prop attribute. The zero value is
// PropAny.
type Prop struct {
	Kind PropKind
	Col  ColID // meaningful for PropSorted and PropIndexed
}

// AnyProp is the "no requirement" property.
var AnyProp = Prop{Kind: PropAny}

// Sorted returns the property "rows sorted by c".
func Sorted(c ColID) Prop { return Prop{Kind: PropSorted, Col: c} }

// Indexed returns the property "keyed random access on c".
func Indexed(c ColID) Prop { return Prop{Kind: PropIndexed, Col: c} }

func (p Prop) String() string {
	switch p.Kind {
	case PropAny:
		return "-"
	case PropSorted:
		return fmt.Sprintf("sorted(r%d.c%d)", p.Col.Rel, p.Col.Off)
	case PropIndexed:
		return fmt.Sprintf("indexed(r%d.c%d)", p.Col.Rel, p.Col.Off)
	}
	return "?"
}
