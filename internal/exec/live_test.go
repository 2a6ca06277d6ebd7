package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/relalg"
	"repro/internal/rescache"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// liveCatalog holds three tables R, S and T of (a, b, c, d), each several
// batches long: a is a join key with a few matches per value, b a
// low-cardinality selection / grouping column.
func liveCatalog() *catalog.Catalog {
	r := stats.NewRand(23)
	cat := catalog.New()
	for _, name := range []string{"R", "S", "T"} {
		tb := catalog.NewTable(name, "a", "b", "c", "d")
		for i := 0; i < 4*BatchSize+900; i++ {
			tb.Append([]int64{r.Int64n(2000), r.Int64n(8), r.Int64n(50), int64(i)})
		}
		cat.Add(tb)
	}
	cat.AnalyzeAll(8)
	return cat
}

func liveScan(rel int) *relalg.Plan {
	return &relalg.Plan{Expr: relalg.Single(rel), Log: relalg.LogScan, Phy: relalg.PhyTableScan,
		Rel: rel, Card: 4 * BatchSize}
}

func liveJoin(phy relalg.PhyOp, l, r *relalg.Plan) *relalg.Plan {
	return &relalg.Plan{Expr: l.Expr.Union(r.Expr), Log: relalg.LogJoin, Phy: phy,
		Left: l, Right: r, Card: 16 * BatchSize}
}

// liveJoinOn is liveJoin on the query's join predicate pred.
func liveJoinOn(phy relalg.PhyOp, pred int, l, r *relalg.Plan) *relalg.Plan {
	p := liveJoin(phy, l, r)
	p.Pred = pred
	return p
}

// checkCounted holds an execution to the joins expected to count: exactly
// the hash joins over the subexpressions in counts ran in counting mode,
// EXPLAIN ANALYZE marks those and no other, and every counted join still
// reports the reference cardinality as its rows while emitting fewer batches
// than that many rows would fill.
func checkCounted(t *testing.T, label string, q *relalg.Query, plan *relalg.Plan,
	st *RunStats, counts []relalg.RelSet, ref *testkit.Reference) {
	t.Helper()
	want := map[relalg.RelSet]bool{}
	for _, s := range counts {
		want[s] = true
	}
	eachPlanNode(plan, func(p *relalg.Plan) {
		if p.Log != relalg.LogJoin {
			return
		}
		op := st.node(p)
		if counting := op != nil && op.counting; counting != want[p.Expr] {
			t.Fatalf("%s: join %v counted=%v, want %v\n%s", label, p.Expr, counting, want[p.Expr], plan.Explain(q))
		}
		if !want[p.Expr] || op == nil {
			return
		}
		if card := ref.Card(p.Expr); op.sp.Rows != card || op.sp.Batches > card {
			t.Fatalf("%s: counted join %v recorded rows=%d batches=%d, reference cardinality %d",
				label, p.Expr, op.sp.Rows, op.sp.Batches, card)
		}
	})
	if text := st.Format(); strings.Count(text, " counted") != len(counts) {
		t.Fatalf("%s: EXPLAIN ANALYZE marks %d joins counted, want %d:\n%s",
			label, strings.Count(text, " counted"), len(counts), text)
	}
}

// TestLivenessEdgeCases runs the schemas column liveness makes unusual — no
// column at all, a relation reduced to its join key, an index or sort column
// nothing above reads, a selection on a column the scan does not emit below a
// join with a cross-relation filter — and every way a join's build side can
// be dead (Compiler.counted: the join hands its consumer a multiplicity
// instead of copies, or must not) against the reference evaluator, with and
// without a spill budget, profiled and not, and pins the widths the compiler
// plans, the widths blocking consumers materialize and which joins count.
// Every hash-join case with a result-cache spool or probe inside its build
// side runs that way last.
func TestLivenessEdgeCases(t *testing.T) {
	cat := liveCatalog()
	col := func(rel, off int) relalg.ColID { return relalg.ColID{Rel: rel, Off: off} }
	// Two relations r ⋈ s on a for most cases; t joins s on a for the rest.
	rels3 := []relalg.RelRef{{Alias: "r", Table: "R"}, {Alias: "s", Table: "S"}, {Alias: "t", Table: "T"}}
	onA3 := []relalg.JoinPred{{L: col(0, 0), R: col(1, 0)}, {L: col(2, 0), R: col(1, 0)}}
	rels, onA := rels3[:2], onA3[:1]
	rs, rst := relalg.Single(0).Union(relalg.Single(1)), relalg.Single(0).Union(relalg.Single(1)).Union(relalg.Single(2))
	sel := []relalg.ScanPred{{Col: col(0, 1), Op: relalg.CmpLE, Val: 3}}
	sBySum := &relalg.AggSpec{GroupBy: []relalg.ColID{col(1, 1)}, Sums: []relalg.ColID{col(1, 2)}}
	sMix := &relalg.AggSpec{GroupBy: []relalg.ColID{col(1, 1)}, Sums: []relalg.ColID{col(1, 3)},
		CountAll: true, CountDistinct: []relalg.ColID{col(1, 2)}}
	// r.b is read by r's selection only, r.c by the filter at the join only:
	// r is dead above the join, but its matches differ under the filter.
	deadSel := &relalg.Query{Rels: rels, Scans: sel, Joins: onA, Agg: sBySum,
		Filters: []relalg.FilterPred{{L: col(0, 2), R: col(1, 2), Op: relalg.CmpLT, Off: 5, Sel: 0.5}}}

	sortedR := liveScan(0)
	sortedR.Prop = relalg.Sorted(col(0, 0))
	sortedS := &relalg.Plan{Expr: relalg.Single(1), Prop: relalg.Sorted(col(1, 0)),
		Log: relalg.LogEnforce, Phy: relalg.PhySort, Left: liveScan(1), Card: 4 * BatchSize}
	indexR := liveScan(0)
	indexR.Phy, indexR.IdxCol = relalg.PhyIndexScan, col(0, 1)
	sortedScanS := liveScan(1)
	sortedScanS.Prop = relalg.Sorted(col(1, 0))
	sortedT := liveScan(2)
	sortedT.Prop = relalg.Sorted(col(2, 0))
	hashRS := func() *relalg.Plan { return liveJoin(relalg.PhyHashJoin, liveScan(0), liveScan(1)) }
	sortedRS := &relalg.Plan{Expr: rs, Prop: relalg.Sorted(col(1, 0)),
		Log: relalg.LogEnforce, Phy: relalg.PhySort, Left: hashRS(), Card: 16 * BatchSize}

	cases := []struct {
		name  string
		q     *relalg.Query
		plan  *relalg.Plan
		width int // of the plan root
		left  int // of the root's left input (joins only)
		// counts lists the joins that must run in counting mode, by
		// subexpression; every other join must enumerate.
		counts  []relalg.RelSet
		noSpill bool // nothing reaches the hash join's build side
	}{
		{"count over a filtered scan carries no column",
			&relalg.Query{Rels: rels[:1], Scans: sel, Agg: &relalg.AggSpec{CountAll: true}},
			liveScan(0), 0, 0, nil, false},
		{"an index scan carries only live columns",
			&relalg.Query{Rels: rels[:1], Scans: sel, Agg: &relalg.AggSpec{CountAll: true}},
			indexR, 0, 0, nil, false},
		{"hash join build side is its key alone",
			&relalg.Query{Rels: rels, Joins: onA, Agg: sBySum},
			hashRS(), 2, 1, []relalg.RelSet{rs}, false},
		{"index key is a selection column read by nothing else",
			&relalg.Query{Rels: rels, Scans: sel, Joins: onA, Agg: sBySum},
			liveJoin(relalg.PhyHashJoin, indexR, liveScan(1)), 2, 1, []relalg.RelSet{rs}, false},
		{"index nested loops over a key-only inner",
			&relalg.Query{Rels: rels, Scans: sel, Joins: onA, Agg: sBySum},
			liveJoin(relalg.PhyIndexNLJoin, liveScan(0), liveScan(1)), 2, 1, []relalg.RelSet{rs}, false},
		{"merge join sort column dies at the join",
			&relalg.Query{Rels: rels, Joins: onA, Agg: &relalg.AggSpec{
				GroupBy: []relalg.ColID{col(0, 1)}, Sums: []relalg.ColID{col(1, 2)}, CountAll: true}},
			liveJoin(relalg.PhyMergeJoin, sortedR, sortedS), 2, 2, nil, false},
		{"join with no live output column",
			&relalg.Query{Rels: rels, Joins: onA, Agg: &relalg.AggSpec{CountAll: true}},
			hashRS(), 0, 1, []relalg.RelSet{rs}, false},
		{"hash build under a selection on a column it does not emit: dead, but a residual reads it",
			deadSel, hashRS(), 2, 2, nil, false},
		{"hash probe under a selection on a column it does not emit",
			deadSel, liveJoin(relalg.PhyHashJoin, liveScan(1), liveScan(0)), 2, 3, nil, false},
		{"sorted merge input under a selection on a column it does not emit",
			deadSel, liveJoin(relalg.PhyMergeJoin, sortedR, sortedScanS), 2, 2, nil, false},
		{"index inner under a selection on a column it does not emit",
			deadSel, liveJoin(relalg.PhyIndexNLJoin, liveScan(0), liveScan(1)), 2, 2, nil, false},

		// A dead build side with duplicate keys (R holds ~2.5 rows per a).
		{"dead build side under COUNT(DISTINCT)",
			&relalg.Query{Rels: rels, Joins: onA, Agg: &relalg.AggSpec{
				GroupBy: []relalg.ColID{col(1, 1)}, CountDistinct: []relalg.ColID{col(1, 2)}}},
			hashRS(), 2, 1, []relalg.RelSet{rs}, false},
		{"dead build side under COUNT(*), SUM and COUNT(DISTINCT) at once",
			&relalg.Query{Rels: rels, Joins: onA, Agg: sMix},
			hashRS(), 3, 1, []relalg.RelSet{rs}, false},
		{"dead build side that leaves probe rows unmatched",
			&relalg.Query{Rels: rels, Scans: sel, Joins: onA, Agg: sMix},
			hashRS(), 3, 1, []relalg.RelSet{rs}, false},
		{"empty dead build side",
			&relalg.Query{Rels: rels, Scans: []relalg.ScanPred{{Col: col(0, 1), Op: relalg.CmpLT, Val: 0}},
				Joins: onA, Agg: sMix},
			hashRS(), 3, 1, []relalg.RelSet{rs}, true},
		{"two dead build sides in a row on the probe spine",
			&relalg.Query{Rels: rels3, Joins: onA3, Agg: sMix},
			liveJoinOn(relalg.PhyHashJoin, 1, liveScan(2), hashRS()), 3, 1, []relalg.RelSet{rs, rst}, false},
		{"counting join over an enumerating one",
			&relalg.Query{Rels: rels3, Joins: onA3, Agg: &relalg.AggSpec{
				GroupBy: []relalg.ColID{col(0, 1)}, Sums: []relalg.ColID{col(1, 2)}, CountAll: true}},
			liveJoinOn(relalg.PhyHashJoin, 1, liveScan(2), hashRS()), 2, 1, []relalg.RelSet{rst}, false},
		{"dead build side on the probe side of an enumerating join",
			&relalg.Query{Rels: rels3, Joins: onA3, Agg: &relalg.AggSpec{
				GroupBy: []relalg.ColID{col(2, 1)}, Sums: []relalg.ColID{col(1, 2)}, CountAll: true}},
			liveJoinOn(relalg.PhyHashJoin, 1, liveScan(2), hashRS()), 2, 2, nil, false},
		{"dead build side inside a build-side subtree",
			&relalg.Query{Rels: rels3, Joins: onA3, Agg: &relalg.AggSpec{
				GroupBy: []relalg.ColID{col(2, 1)}, CountAll: true}},
			liveJoinOn(relalg.PhyHashJoin, 1, hashRS(), liveScan(2)), 1, 1, []relalg.RelSet{rst}, false},
		{"dead build side under a sort and a merge join",
			&relalg.Query{Rels: rels3, Joins: onA3, Agg: &relalg.AggSpec{
				GroupBy: []relalg.ColID{col(2, 1)}, Sums: []relalg.ColID{col(1, 2)}, CountAll: true}},
			liveJoinOn(relalg.PhyMergeJoin, 1, sortedRS, sortedT), 2, 2, nil, false},
		{"dead build side of a query without aggregation",
			&relalg.Query{Rels: rels, Joins: onA},
			hashRS(), 8, 4, nil, false},
	}
	cachedBuilds := 0
	for _, tc := range cases {
		if err := tc.q.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		widths := &Compiler{Q: tc.q, Cat: cat}
		if schema, err := widths.PlanSchema(tc.plan); err != nil || len(schema) != tc.width {
			t.Fatalf("%s: root schema %v (err %v), want %d columns", tc.name, schema, err, tc.width)
		}
		if tc.plan.Log == relalg.LogJoin {
			if schema, err := widths.PlanSchema(tc.plan.Left); err != nil || len(schema) != tc.left {
				t.Fatalf("%s: left schema %v (err %v), want %d columns", tc.name, schema, err, tc.left)
			}
		}
		ref := testkit.NewReference(tc.q, cat)
		want := testkit.Canonical(ref.Rows(), nil)
		// What a blocking consumer (a join build) drains from an input
		// is exactly the input's schema: the joins split residual operand
		// offsets at the materialized build width.
		for _, in := range []*relalg.Plan{tc.plan.Left, tc.plan.Right} {
			if in == nil {
				continue
			}
			comp := &Compiler{Q: tc.q, Cat: cat}
			schema, err := comp.PlanSchema(in)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			v, _, err := comp.compileVec(in, &RunStats{Cards: map[relalg.RelSet]*int64{}}, false)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			data, err := drainVecCols(v, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			// (An empty materialization has no columns to be wide.)
			if (data.n > 0 && data.width() != len(schema)) || int64(data.n) != ref.Card(in.Expr) {
				t.Fatalf("%s: drained %v as %d columns x %d rows; schema has %d columns, reference %d rows",
					tc.name, in.Expr, data.width(), data.n, len(schema), ref.Card(in.Expr))
			}
		}
		// The small budget spills every join; the roomy one spills nothing.
		const tight, roomy = 24 << 10, 8 << 20
		for _, budget := range []int64{0, tight, roomy} {
			for _, timed := range []bool{false, true} {
				label := fmt.Sprintf("%s (budget=%d timed=%v)", tc.name, budget, timed)
				comp := &Compiler{Q: tc.q, Cat: cat, Mem: budgetTracker(budget)}
				v, st, err := comp.CompileVec(tc.plan)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				st.SetTiming(timed)
				checkExecution(t, label, comp, v, st, ref.Card, want, tc.plan)
				checkCounted(t, label, tc.q, tc.plan, st, tc.counts, ref)
				if parts, _, _ := comp.Mem.SpillStats(); budget == tight && tc.plan.Log == relalg.LogJoin &&
					!tc.noSpill && parts == 0 {
					t.Fatalf("%s: join never spilled", label)
				}
			}
		}
		// A result-cache spool, then probe, inside a hash join's build side.
		var cands []CacheCandidate
		if tc.plan.Phy == relalg.PhyHashJoin {
			for _, cand := range BuildCacheCandidates(tc.q, tc.plan, relalg.NewFingerprinter(tc.q)) {
				if cand.Expr.IsSubset(tc.plan.Left.Expr) {
					cands = append(cands, cand)
				}
			}
		}
		if len(cands) == 0 {
			continue
		}
		cache := rescache.New(64 << 20)
		for run, label := range []string{"spool", "probe"} {
			label = fmt.Sprintf("%s, build side cached, %s run", tc.name, label)
			comp := &Compiler{Q: tc.q, Cat: cat, Cache: cache, CacheCands: cands}
			v, st, err := comp.CompileVec(tc.plan)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkExecution(t, label, comp, v, st, ref.Card, want, tc.plan)
			if m := cache.Metrics(); m.Stores != 1 || m.Hits != int64(run) {
				t.Fatalf("%s: %d stores %d hits; want one stored entry served once", label, m.Stores, m.Hits)
			}
			cachedBuilds++
		}
	}
	t.Logf("%d executions beside a cached build side", cachedBuilds)
	if cachedBuilds == 0 {
		t.Fatal("no case put a result-cache decision inside a build side")
	}
}

// TestCountedJoinIsNeverSpooled: a result-cache entry holds rows, so a join
// the cache spools enumerates even where it could count — the entry a probe
// later serves is the one an uncounted plan would have stored — while a join
// above the spooled subtree still counts.
func TestCountedJoinIsNeverSpooled(t *testing.T) {
	cat := liveCatalog()
	col := func(rel, off int) relalg.ColID { return relalg.ColID{Rel: rel, Off: off} }
	q := &relalg.Query{
		Rels:  []relalg.RelRef{{Alias: "r", Table: "R"}, {Alias: "s", Table: "S"}, {Alias: "t", Table: "T"}},
		Joins: []relalg.JoinPred{{L: col(0, 0), R: col(1, 0)}, {L: col(2, 0), R: col(1, 0)}},
		Agg: &relalg.AggSpec{GroupBy: []relalg.ColID{col(1, 1)}, Sums: []relalg.ColID{col(1, 3)},
			CountAll: true, CountDistinct: []relalg.ColID{col(1, 2)}},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	inner := liveJoin(relalg.PhyHashJoin, liveScan(0), liveScan(1))
	plan := liveJoinOn(relalg.PhyHashJoin, 1, liveScan(2), inner)
	ref := testkit.NewReference(q, cat)
	want := testkit.Canonical(ref.Rows(), nil)
	all := BuildCacheCandidates(q, plan, relalg.NewFingerprinter(q))
	if len(all) != 2 || all[0].Node != plan || all[1].Node != inner {
		t.Fatalf("candidates %+v, want the root join then the inner one", all)
	}
	for _, tc := range []struct {
		name   string
		cands  []CacheCandidate
		counts []relalg.RelSet // during the spool run
	}{
		{"root spooled", all, nil},
		{"inner join spooled", all[1:], []relalg.RelSet{plan.Expr}},
	} {
		cache := rescache.New(64 << 20)
		for run, label := range []string{"spool", "probe"} {
			label = fmt.Sprintf("%s, %s run", tc.name, label)
			comp := &Compiler{Q: q, Cat: cat, Cache: cache, CacheCands: tc.cands}
			st := checkAgainstReference(t, label, comp, ref, want, plan)
			if run == 0 {
				checkCounted(t, label, q, plan, st, tc.counts, ref)
			}
			if m := cache.Metrics(); m.Stores != 1 || m.Hits != int64(run) {
				t.Fatalf("%s: %d stores %d hits, want one entry stored and served once", label, m.Stores, m.Hits)
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
