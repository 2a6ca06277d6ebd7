package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// liveCatalog holds two tables R and S of (a, b, c, d), each large enough
// for the parallel scan and fused pipeline paths: a is a join key with a few
// matches per value, b a low-cardinality selection / grouping column.
func liveCatalog() *catalog.Catalog {
	r := stats.NewRand(23)
	cat := catalog.New()
	for _, name := range []string{"R", "S"} {
		tb := catalog.NewTable(name, "a", "b", "c", "d")
		for i := 0; i < minParallelRows+900; i++ {
			tb.Append([]int64{r.Int64n(2000), r.Int64n(8), r.Int64n(50), int64(i)})
		}
		cat.Add(tb)
	}
	cat.AnalyzeAll(8)
	return cat
}

func liveScan(rel int) *relalg.Plan {
	return &relalg.Plan{Expr: relalg.Single(rel), Log: relalg.LogScan, Phy: relalg.PhyTableScan,
		Rel: rel, Card: minParallelRows}
}

func liveJoin(phy relalg.PhyOp, l, r *relalg.Plan) *relalg.Plan {
	return &relalg.Plan{Expr: l.Expr.Union(r.Expr), Log: relalg.LogJoin, Phy: phy,
		Left: l, Right: r, Card: 4 * minParallelRows}
}

// TestLivenessEdgeCases runs the schemas column liveness makes unusual — no
// column at all, a relation reduced to its join key, a sort column nothing
// above reads, a selection on a column the scan does not emit below a join
// with a cross-relation filter — against the reference evaluator at every
// parallelism, with and without a spill budget, and pins the widths the
// compiler plans and the widths blocking consumers materialize.
func TestLivenessEdgeCases(t *testing.T) {
	cat := liveCatalog()
	col := func(rel, off int) relalg.ColID { return relalg.ColID{Rel: rel, Off: off} }
	rels := []relalg.RelRef{{Alias: "r", Table: "R"}, {Alias: "s", Table: "S"}}
	onA := []relalg.JoinPred{{L: col(0, 0), R: col(1, 0)}}
	sel := []relalg.ScanPred{{Col: col(0, 1), Op: relalg.CmpLE, Val: 3}}
	sBySum := &relalg.AggSpec{GroupBy: []relalg.ColID{col(1, 1)}, Sums: []relalg.ColID{col(1, 2)}}
	// r.b is read by r's selection only, r.c by the filter at the join only.
	deadSel := &relalg.Query{Rels: rels, Scans: sel, Joins: onA, Agg: sBySum,
		Filters: []relalg.FilterPred{{L: col(0, 2), R: col(1, 2), Op: relalg.CmpLT, Off: 5, Sel: 0.5}}}

	sortedR := liveScan(0)
	sortedR.Prop = relalg.Sorted(col(0, 0))
	sortedS := &relalg.Plan{Expr: relalg.Single(1), Prop: relalg.Sorted(col(1, 0)),
		Log: relalg.LogEnforce, Phy: relalg.PhySort, Left: liveScan(1), Card: minParallelRows}
	indexR := liveScan(0)
	indexR.Phy, indexR.IdxCol = relalg.PhyIndexScan, col(0, 1)
	sortedScanS := liveScan(1)
	sortedScanS.Prop = relalg.Sorted(col(1, 0))

	cases := []struct {
		name  string
		q     *relalg.Query
		plan  *relalg.Plan
		width int // of the plan root
		left  int // of the root's left input (joins only)
	}{
		{"count over a filtered scan carries no column",
			&relalg.Query{Rels: rels[:1], Scans: sel, Agg: &relalg.AggSpec{CountAll: true}},
			liveScan(0), 0, 0},
		{"index scan keeps its key for itself",
			&relalg.Query{Rels: rels[:1], Scans: sel, Agg: &relalg.AggSpec{CountAll: true}},
			indexR, 1, 0},
		{"hash join build side is its key alone",
			&relalg.Query{Rels: rels, Joins: onA, Agg: sBySum},
			liveJoin(relalg.PhyHashJoin, liveScan(0), liveScan(1)), 2, 1},
		{"index key is a selection column read by nothing else",
			&relalg.Query{Rels: rels, Scans: sel, Joins: onA, Agg: sBySum},
			liveJoin(relalg.PhyHashJoin, indexR, liveScan(1)), 2, 2},
		{"index nested loops over a key-only inner",
			&relalg.Query{Rels: rels, Scans: sel, Joins: onA, Agg: sBySum},
			liveJoin(relalg.PhyIndexNLJoin, liveScan(0), liveScan(1)), 2, 1},
		{"merge join sort column dies at the join",
			&relalg.Query{Rels: rels, Joins: onA, Agg: &relalg.AggSpec{
				GroupBy: []relalg.ColID{col(0, 1)}, Sums: []relalg.ColID{col(1, 2)}, CountAll: true}},
			liveJoin(relalg.PhyMergeJoin, sortedR, sortedS), 2, 2},
		{"join with no live output column",
			&relalg.Query{Rels: rels, Joins: onA, Agg: &relalg.AggSpec{CountAll: true}},
			liveJoin(relalg.PhyHashJoin, liveScan(0), liveScan(1)), 0, 1},
		{"hash build under a selection on a column it does not emit",
			deadSel, liveJoin(relalg.PhyHashJoin, liveScan(0), liveScan(1)), 2, 2},
		{"hash probe under a selection on a column it does not emit",
			deadSel, liveJoin(relalg.PhyHashJoin, liveScan(1), liveScan(0)), 2, 3},
		{"sorted merge input under a selection on a column it does not emit",
			deadSel, liveJoin(relalg.PhyMergeJoin, sortedR, sortedScanS), 2, 2},
		{"index inner under a selection on a column it does not emit",
			deadSel, liveJoin(relalg.PhyIndexNLJoin, liveScan(0), liveScan(1)), 2, 2},
	}
	for _, tc := range cases {
		if err := tc.q.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		widths := &Compiler{Q: tc.q, Cat: cat}
		if schema, err := widths.PlanSchema(tc.plan); err != nil || len(schema) != tc.width {
			t.Fatalf("%s: root schema %v (err %v), want %d columns", tc.name, schema, err, tc.width)
		}
		if tc.plan.Log == relalg.LogJoin && tc.plan.Phy != relalg.PhyIndexNLJoin {
			if schema, err := widths.PlanSchema(tc.plan.Left); err != nil || len(schema) != tc.left {
				t.Fatalf("%s: left schema %v (err %v), want %d columns", tc.name, schema, err, tc.left)
			}
		}
		ref := testkit.NewReference(tc.q, cat)
		want := testkit.Canonical(ref.Rows(), nil)
		// What a blocking consumer (join build, sort) drains from an input
		// is exactly the input's schema: the joins split residual operand
		// offsets at the materialized build width. The parallel drain paths
		// only run at Parallelism > 1.
		for _, par := range []int{1, 2, 4} {
			for _, in := range []*relalg.Plan{tc.plan.Left, tc.plan.Right} {
				if in == nil {
					continue
				}
				comp := &Compiler{Q: tc.q, Cat: cat, Parallelism: par}
				schema, err := comp.PlanSchema(in)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				v, _, err := comp.compileVec(in, &RunStats{Cards: map[relalg.RelSet]*int64{}})
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				data, err := drainVecCols(v)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if data.width() != len(schema) || int64(data.n) != ref.Card(in.Expr) {
					t.Fatalf("%s (par=%d): drained %v as %d columns x %d rows; schema has %d columns, reference %d rows",
						tc.name, par, in.Expr, data.width(), data.n, len(schema), ref.Card(in.Expr))
				}
			}
		}
		for _, budget := range []int64{0, 24 << 10} {
			for _, par := range []int{1, 2, 4} {
				comp := &Compiler{Q: tc.q, Cat: cat, Parallelism: par, MemBudgetBytes: budget}
				checkAgainstReference(t, fmt.Sprintf("%s (par=%d budget=%d)", tc.name, par, budget),
					comp, ref, want, tc.plan)
				if parts, _, _ := comp.Mem.SpillStats(); budget > 0 && tc.plan.Phy == relalg.PhyHashJoin && parts == 0 {
					t.Fatalf("%s (par=%d): hash join never spilled under a %d-byte budget", tc.name, par, budget)
				}
			}
		}
	}
}

// TestBatchLenWithoutColumns: a batch that carries no column still carries
// rows — Len comes from N and Sel alone.
func TestBatchLenWithoutColumns(t *testing.T) {
	if b := (&Batch{N: 7}); b.Len() != 7 || b.Width() != 0 {
		t.Fatalf("dense zero-width batch: len %d width %d", b.Len(), b.Width())
	}
	if b := (&Batch{N: 7, Sel: []int{1, 4}}); b.Len() != 2 {
		t.Fatalf("selected zero-width batch: len %d", b.Len())
	}
}
