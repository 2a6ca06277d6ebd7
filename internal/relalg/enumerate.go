package relalg

import "slices"

// This file implements the shared plan-space enumerator: the paper's
// Fn_split built-in (plus Fn_isleaf, which is RelSet.IsSingle). Given an
// (expression, property) pair it produces the full list of alternative
// "AND nodes" — SearchSpace tuples — for that "OR node". All three optimizer
// architectures call this same function, so they explore identical spaces.

// SchemaInfo supplies the physical-design facts the enumerator needs about
// base tables. internal/cost.Model implements it from the catalog.
type SchemaInfo interface {
	// IndexCols returns the column offsets (within the base table of
	// query relation rel) that carry an index, in ascending order.
	IndexCols(rel int) []int
	// SortedCol returns the column offset the base table of relation rel
	// is physically sorted by, or -1 if none.
	SortedCol(rel int) int
}

// SpaceOptions selects which physical alternatives the enumerator generates.
// DefaultSpace is the full space of the paper's evaluation (pipelined hash
// join, sort-merge join, index nested-loops join, sort enforcers, bushy
// trees): the figures, the baselines and the oracle optimize in it.
// ServedSpace is what internal/exec runs as priced, the space the server's
// plan cache optimizes in. LeftDeepOnly restricts to left-linear
// expressions, the System-R variant the paper mentions in footnote 1; it is
// exercised by the ablation benchmarks. NoIndexScan drops the index scan
// that competes with the table scan as an access path under Any; index
// scans that deliver a required order or an index-NL inner are untouched
// (only MergeJoin and IndexNL demand them), and the zero value keeps it.
type SpaceOptions struct {
	HashJoin     bool
	MergeJoin    bool
	IndexNL      bool
	SortEnforcer bool
	LeftDeepOnly bool
	NoIndexScan  bool
}

// DefaultSpace returns the full plan space configuration (the paper's
// Table 1).
func DefaultSpace() SpaceOptions {
	return SpaceOptions{HashJoin: true, MergeJoin: true, IndexNL: true, SortEnforcer: true}
}

// ServedSpace returns the space internal/exec runs as priced: hash joins
// over table scans. The executor runs merge and index-NL joins on the hash
// join, compiles sort enforcers to their child and reads an index scan as a
// plain scan, so in the full space those alternatives differ from the ones
// kept here only in a price the executor does not pay.
func ServedSpace() SpaceOptions {
	return SpaceOptions{HashJoin: true, NoIndexScan: true}
}

// Alt is one alternative plan for a group: a SearchSpace tuple minus the
// (Expr, Prop, Index) key, which the caller supplies. For scans only Rel is
// meaningful; for joins Pred indexes q.Joins and names the primary equi-join
// predicate (residual cross predicates are applied as filters); for the sort
// enforcer only the left child is used.
type Alt struct {
	Log    LogOp
	Phy    PhyOp
	Rel    int   // scans: relation ordinal
	Pred   int   // joins: index into Query.Joins of the primary predicate
	IdxCol ColID // index scans: the key column

	LExpr RelSet
	LProp Prop
	RExpr RelSet
	RProp Prop
}

// Unary reports whether the alternative has exactly one child group.
func (a Alt) Unary() bool { return a.Log == LogEnforce }

// Leaf reports whether the alternative has no child groups.
func (a Alt) Leaf() bool { return a.Log == LogScan }

// Split appends the alternatives for the group (s, p) to alts and returns
// the extended slice, so a caller that reuses alts enumerates without
// allocating. The order is deterministic: partitions by descending left
// bitmap, operators in a fixed order, so every optimizer assigns identical
// Index values and metrics are comparable across architectures.
func Split(q *Query, schema SchemaInfo, opts SpaceOptions, s RelSet, p Prop, alts []Alt) []Alt {
	if s.IsSingle() {
		return splitLeaf(q, schema, opts, s.SingleMember(), p, alts)
	}
	// Visit the ordered partitions (L, R) whose halves are both connected,
	// each unordered one twice (once per orientation), which is what we
	// want: hash join is asymmetric (build left / probe right) and index NL
	// requires the inner on the left (paper Table 1). Walking the sorted
	// halves backwards gives the descending left order.
	var stack [64]RelSet
	low := s & -s
	lefts := connectedHalves(q, q.neighbours(), s, low, low, stack[:0])
	slices.Sort(lefts)
	var buf [8]int // the join predicates crossing one partition
	for k := len(lefts) - 1; k >= 0; k-- {
		l := lefts[k]
		r := s.Without(l)
		if opts.LeftDeepOnly && !r.IsSingle() {
			continue
		}
		cross := buf[:0]
		for pi, jp := range q.Joins {
			if jp.Crosses(l, r) {
				cross = append(cross, pi)
			}
		}
		if len(cross) == 0 {
			continue // no Cartesian products
		}
		primary := cross[0]
		if opts.HashJoin && p.Kind == PropAny {
			alts = append(alts, Alt{
				Log: LogJoin, Phy: PhyHashJoin, Pred: primary,
				LExpr: l, LProp: AnyProp, RExpr: r, RProp: AnyProp,
			})
		}
		if opts.MergeJoin {
			for _, pi := range cross {
				jp := q.Joins[pi]
				lcol, rcol := jp.L, jp.R
				if !l.Has(lcol.Rel) {
					lcol, rcol = rcol, lcol
				}
				// The merge output is sorted on both equated
				// columns; it belongs in the Any group and in
				// the Sorted groups of either column.
				if p.Kind == PropAny || (p.Kind == PropSorted && (p.Col == lcol || p.Col == rcol)) {
					alts = append(alts, Alt{
						Log: LogJoin, Phy: PhyMergeJoin, Pred: pi,
						LExpr: l, LProp: Sorted(lcol), RExpr: r, RProp: Sorted(rcol),
					})
				}
			}
		}
		if opts.IndexNL && p.Kind == PropAny && l.IsSingle() {
			inner := l.SingleMember()
			idxCols := schema.IndexCols(inner)
			for _, pi := range cross {
				jp := q.Joins[pi]
				innerCol := jp.L
				if innerCol.Rel != inner {
					innerCol = jp.R
				}
				if innerCol.Rel != inner || !hasInt(idxCols, innerCol.Off) {
					continue
				}
				alts = append(alts, Alt{
					Log: LogJoin, Phy: PhyIndexNLJoin, Pred: pi,
					LExpr: l, LProp: Indexed(innerCol), RExpr: r, RProp: AnyProp,
				})
			}
		}
	}
	if opts.SortEnforcer && p.Kind == PropSorted {
		alts = append(alts, Alt{
			Log: LogEnforce, Phy: PhySort,
			LExpr: s, LProp: AnyProp,
		})
	}
	return alts
}

// connectedHalves appends l and s \ l when the latter is connected, then
// grows l, a connected set holding s's lowest relation, by every non-empty
// subset of its neighbours in s outside the excluded set x ⊇ l: the
// connected-subgraph enumeration of DPccp (Moerkotte & Neumann, VLDB 2006),
// which reaches each connected superset once and no disconnected one.
func connectedHalves(q *Query, nbr []RelSet, s, l, x RelSet, out []RelSet) []RelSet {
	if r := s &^ l; r != 0 && q.Connected(r) {
		out = append(out, l, r)
	}
	var n RelSet
	l.EachMember(func(i int) { n |= nbr[i] })
	n &= s &^ x
	for sub := n; sub != 0; sub = (sub - 1) & n {
		out = connectedHalves(q, nbr, s, l|sub, x|n, out)
	}
	return out
}

func splitLeaf(q *Query, schema SchemaInfo, opts SpaceOptions, rel int, p Prop, alts []Alt) []Alt {
	idxCols := schema.IndexCols(rel)
	switch p.Kind {
	case PropAny:
		alts = append(alts, Alt{Log: LogScan, Phy: PhyTableScan, Rel: rel})
		// Access-path selection: an index scan competes under Any when
		// a local predicate on the key column can restrict it.
		if col, ok := scanPredOn(q, rel, idxCols); ok && !opts.NoIndexScan {
			alts = append(alts, Alt{Log: LogScan, Phy: PhyIndexScan, Rel: rel, IdxCol: col})
		}
	case PropSorted:
		if p.Col.Rel != rel {
			break
		}
		if schema.SortedCol(rel) == p.Col.Off {
			alts = append(alts, Alt{Log: LogScan, Phy: PhyTableScan, Rel: rel})
		}
		if hasInt(idxCols, p.Col.Off) {
			alts = append(alts, Alt{Log: LogScan, Phy: PhyIndexScan, Rel: rel, IdxCol: p.Col})
		}
		if opts.SortEnforcer {
			alts = append(alts, Alt{Log: LogEnforce, Phy: PhySort,
				LExpr: Single(rel), LProp: AnyProp})
		}
	case PropIndexed:
		if p.Col.Rel == rel && hasInt(idxCols, p.Col.Off) {
			alts = append(alts, Alt{Log: LogScan, Phy: PhyIndexScan, Rel: rel, IdxCol: p.Col})
		}
	}
	return alts
}

// scanPredOn returns the column of relation rel's first local predicate
// that lands on one of cols.
func scanPredOn(q *Query, rel int, cols []int) (ColID, bool) {
	for _, pr := range q.Scans {
		if pr.Col.Rel == rel && hasInt(cols, pr.Col.Off) {
			return pr.Col, true
		}
	}
	return ColID{}, false
}

func hasInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
