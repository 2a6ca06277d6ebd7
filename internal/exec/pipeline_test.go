package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// compileFor optimizes q and compiles it at the given parallelism.
func compileFor(t *testing.T, q *relalg.Query, par int) (VecIterator, *RunStats) {
	t.Helper()
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	comp := &Compiler{Q: q, Cat: cat, Parallelism: par}
	v, stats, err := comp.CompileVec(vr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return v, stats
}

// TestCompilePipelineFuses asserts that the compiler fuses the one shape the
// pipeline exists for — an aggregating query, its join chain or its bare scan —
// and nothing else: a query without an aggregation and a serial compilation
// get the serial operator tree.
func TestCompilePipelineFuses(t *testing.T) {
	for _, tc := range []struct {
		q      *relalg.Query
		stages int
	}{
		{tpch.Q5(), 1}, // six-way join + agg
		{tpch.Q1(), 0}, // bare scan + agg (zero-stage pipeline)
	} {
		v, _ := compileFor(t, tc.q, 4)
		pp, ok := v.(*execRoot).in.(*parallelPipelineOp)
		if !ok {
			t.Fatalf("%s: compiled root is %T, want *parallelPipelineOp", tc.q.Name, v.(*execRoot).in)
		}
		if len(pp.stages) != tc.stages {
			t.Errorf("%s: fused %d stages, want %d", tc.q.Name, len(pp.stages), tc.stages)
		}
	}
	for _, tc := range []struct {
		q   *relalg.Query
		par int
	}{{tpch.Q3S(), 4}, {tpch.Q5(), 1}} {
		v, _ := compileFor(t, tc.q, tc.par)
		if _, ok := v.(*execRoot).in.(*parallelPipelineOp); ok {
			t.Fatalf("%s at Parallelism=%d compiled to a parallel pipeline", tc.q.Name, tc.par)
		}
	}
}

// leafOf is a scan leaf over row-major test data that emits every column.
func leafOf(rows [][]int64, arity int, filter ScanFilter) scanLeaf {
	d := transposeRows(rows, arity)
	return leafOfCols(d.cols, d.n, filter)
}

// TestPipelineCascadeMatchesSerial builds a two-stage probe cascade by hand
// and checks it against the nested serial hash joins, including residual
// filters and exact per-stage cardinality counters. The terminal groups by
// every column and counts, so the groups are the joined rows' multiset.
func TestPipelineCascadeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	probe := make([][]int64, 6*morselSize)
	for i := range probe {
		probe[i] = []int64{int64(rng.Intn(200)), int64(rng.Intn(100)), int64(i)}
	}
	buildA := make([][]int64, 150)
	for i := range buildA {
		buildA[i] = []int64{int64(rng.Intn(200)), int64(100 + i)}
	}
	buildB := make([][]int64, 80)
	for i := range buildB {
		buildB[i] = []int64{int64(rng.Intn(100)), int64(1000 + i)}
	}
	filter := ScanFilter{Conds: []ScanCond{{Off: 1, Op: relalg.CmpLT, Val: 90}}}
	// Structured residual over the final joined row
	// [b0, b1, a0, a1, p0, p1, p2]: b1 < p2, true for some pairs only.
	residual := []ColPred{{L: 1, R: 6, Op: relalg.CmpLT}}

	// Serial reference: joinB(joinA(filtered probe)). Stage A joins
	// buildA on probe col 0, stage B joins buildB on probe col 1 (offset
	// shifts by len(buildA row) = 2 after stage A).
	serial := NewVecHashJoin(
		NewVecScanRows(buildB, ScanFilter{}),
		NewVecHashJoin(
			NewVecScanRows(buildA, ScanFilter{}),
			NewVecScanRows(probe, filter),
			[]int{0}, []int{0}, nil, seq(2), seq(3)),
		[]int{0}, []int{3}, residual, seq(2), seq(5))
	joined, err := CountVec(serial)
	if err != nil {
		t.Fatal(err)
	}
	spec := AggSpecExec{GroupBy: seq(7), CountAll: true}
	want, err := DrainVec(NewVecHashAgg(serial, spec))
	if err != nil {
		t.Fatal(err)
	}

	var scanN, aN, bN int64
	stages := []*pipeStage{
		{build: NewVecScanRows(buildA, ScanFilter{}), buildKeys: []int{0},
			probeKeys: []int{0}, buildOut: seq(2), probeOut: seq(3), card: &aN},
		{build: NewVecScanRows(buildB, ScanFilter{}), buildKeys: []int{0},
			probeKeys: []int{3}, residual: residual, buildOut: seq(2), probeOut: seq(5), card: &bN},
	}
	pipe := newParallelPipeline(leafOf(probe, 3, filter), &scanN, stages, spec, 4)
	got, err := DrainVec(pipe)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := rowMultiset(got), rowMultiset(want); g != w {
		t.Fatalf("pipeline multiset differs from serial: %d groups vs %d", len(got), len(want))
	}
	if bN != joined || joined == 0 {
		t.Errorf("final stage counter = %d, want %d", bN, joined)
	}
	wantScan, err := CountVec(NewVecScanRows(probe, filter))
	if err != nil {
		t.Fatal(err)
	}
	if scanN != wantScan {
		t.Errorf("scan counter = %d, want %d", scanN, wantScan)
	}
	wantA, err := CountVec(NewVecHashJoin(NewVecScanRows(buildA, ScanFilter{}),
		NewVecScanRows(probe, filter), []int{0}, []int{0}, nil, seq(2), seq(3)))
	if err != nil {
		t.Fatal(err)
	}
	if aN != wantA {
		t.Errorf("stage A counter = %d, want %d", aN, wantA)
	}
}

// TestPipelineAggMatchesSerial runs the same cascade with a fused
// aggregation terminal against the serial hash-agg-over-join reference.
func TestPipelineAggMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	probe := make([][]int64, 5*morselSize)
	for i := range probe {
		probe[i] = []int64{int64(rng.Intn(50)), int64(rng.Intn(1000))}
	}
	build := make([][]int64, 300)
	for i := range build {
		build[i] = []int64{int64(rng.Intn(50)), int64(i % 7)}
	}
	spec := AggSpecExec{GroupBy: []int{1}, Sums: []int{3}, CountAll: true,
		CountDistinct: []int{0}}

	serial := NewVecHashAgg(NewVecHashJoin(NewVecScanRows(build, ScanFilter{}),
		NewVecScanRows(probe, ScanFilter{}), []int{0}, []int{0}, nil, seq(2), seq(2)), spec)
	want, err := DrainVec(serial)
	if err != nil {
		t.Fatal(err)
	}

	var scanN, joinN int64
	stages := []*pipeStage{{build: NewVecScanRows(build, ScanFilter{}),
		buildKeys: []int{0}, probeKeys: []int{0}, buildOut: seq(2), probeOut: seq(2), card: &joinN}}
	pipe := newParallelPipeline(leafOf(probe, 2, ScanFilter{}), &scanN, stages, spec, 4)
	got, err := DrainVec(pipe)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregated output is deterministically ordered, so compare exactly.
	if g, w := rowMultiset(got), rowMultiset(want); g != w {
		t.Fatalf("fused agg differs from serial: %d groups vs %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("fused agg order differs at group %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestAggTableMerge splits a row stream across worker tables and checks the
// merged result against a single table, covering sums, COUNT(*) and
// COUNT(DISTINCT).
func TestAggTableMerge(t *testing.T) {
	spec := AggSpecExec{GroupBy: []int{0, 1}, Sums: []int{2}, CountAll: true,
		CountDistinct: []int{3}}
	rng := rand.New(rand.NewSource(5))
	rows := make([]Row, 20000)
	for i := range rows {
		rows[i] = Row{int64(rng.Intn(13)), int64(rng.Intn(7)),
			int64(rng.Intn(100)), int64(rng.Intn(9))}
	}
	single := newAggTable(spec)
	for _, r := range rows {
		single.add(r)
	}
	parts := make([]*aggTable, 4)
	for i := range parts {
		parts[i] = newAggTable(spec)
	}
	for i, r := range rows {
		parts[i%4].add(r)
	}
	merged := parts[0]
	for _, p := range parts[1:] {
		merged.mergeFrom(p)
	}
	got, want := merged.rows(), single.rows()
	if len(got) != len(want) {
		t.Fatalf("merged %d groups, single table has %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("group %d: merged %v, single %v", i, got[i], want[i])
		}
	}
}

// TestDistinctSetMatchesMapOracle drives aggTable's flat COUNT(DISTINCT) set —
// one open-addressing set of (set id, value) pairs for every group and column
// — against a Go map of the same pairs: values that are their own edge cases
// (0, -1, the extreme int64s) stored under many set ids, growth across several
// doublings, reset and refill in the kept arrays, and mergeFrom of two and of
// four partial tables, which re-inserts under the merged group's ids.
func TestDistinctSetMatchesMapOracle(t *testing.T) {
	spec := AggSpecExec{GroupBy: []int{0}, CountDistinct: []int{1, 2}}
	rng := rand.New(rand.NewSource(31))
	value := func() int64 {
		if edge := []int64{0, -1, math.MinInt64, math.MaxInt64}; rng.Intn(8) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return int64(rng.Intn(3000))
	}
	type pair = [2]int64 // (group key · 2 + column, value)
	fill := func(tabs []*aggTable, oracle map[pair]struct{}, n int) {
		for i := 0; i < n; i++ {
			r := Row{int64(rng.Intn(40)), value(), value()}
			tabs[i%len(tabs)].add(r)
			oracle[pair{r[0] * 2, r[1]}], oracle[pair{r[0]*2 + 1, r[2]}] = struct{}{}, struct{}{}
		}
	}
	check := func(label string, tab *aggTable, oracle map[pair]struct{}) {
		t.Helper()
		want := map[pair]int64{} // (group key, column) -> distinct values
		for p := range oracle {
			want[pair{p[0] / 2, p[0] % 2}]++
		}
		if tab.dn != len(oracle) {
			t.Fatalf("%s: the set holds %d values, the oracle %d", label, tab.dn, len(oracle))
		}
		for _, r := range tab.rows() {
			if r[1] != want[pair{r[0], 0}] || r[2] != want[pair{r[0], 1}] {
				t.Fatalf("%s: group %d counts %d and %d distinct values, the oracle %d and %d",
					label, r[0], r[1], r[2], want[pair{r[0], 0}], want[pair{r[0], 1}])
			}
		}
	}

	tab, oracle := newAggTable(spec), map[pair]struct{}{}
	fill([]*aggTable{tab}, oracle, 200000)
	check("filled", tab, oracle)
	grown := len(tab.dids)
	if grown < 8*aggInitSlots {
		t.Fatalf("the set grew to %d slots only: the fill no longer crosses several doublings", grown)
	}
	tab.reset()
	oracle = map[pair]struct{}{}
	check("reset", tab, oracle)
	fill([]*aggTable{tab}, oracle, 5000)
	check("refilled", tab, oracle)
	if len(tab.dids) != grown {
		t.Fatalf("reset kept %d of the set's %d slots", len(tab.dids), grown)
	}
	for _, n := range []int{2, 4} {
		parts, oracle := make([]*aggTable, n), map[pair]struct{}{}
		for i := range parts {
			parts[i] = newAggTable(spec)
		}
		fill(parts, oracle, 50000)
		for _, p := range parts[1:] {
			parts[0].mergeFrom(p)
		}
		check(fmt.Sprintf("%d partial tables merged", n), parts[0], oracle)
	}
}

// TestAggTableGlobalGroup covers the zero-width group key (no GROUP BY).
func TestAggTableGlobalGroup(t *testing.T) {
	spec := AggSpecExec{Sums: []int{0}, CountAll: true}
	a, b := newAggTable(spec), newAggTable(spec)
	for i := int64(0); i < 1000; i++ {
		a.add(Row{i})
		b.add(Row{i * 2})
	}
	a.mergeFrom(b)
	out := a.rows()
	if len(out) != 1 {
		t.Fatalf("global aggregate produced %d rows, want 1", len(out))
	}
	if out[0][0] != 999*1000/2*3 || out[0][1] != 2000 {
		t.Fatalf("global aggregate = %v", out[0])
	}
}

// TestBuildJoinTableLinksAndCounts checks the join-table build: every row
// linked once — or, for a counting table, one linked row per distinct key
// carrying the number of rows that share it.
func TestBuildJoinTableLinksAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([][]int64, 3*minParallelRows+777)
	distinct := map[[2]int64]int32{}
	for i := range rows {
		rows[i] = []int64{int64(rng.Intn(5000)), int64(rng.Intn(64)), int64(i)}
		distinct[[2]int64{rows[i][0], rows[i][1]}]++
	}
	data := transposeRows(rows, 3)
	for _, counting := range []bool{false, true} {
		table := buildJoinTable(nil, data, []int{0, 1}, counting)
		linked := 0
		for b := range table.head {
			for ci := table.head[b]; ci != 0; ci = table.next[ci-1] {
				linked++
				if r := rows[ci-1]; counting && table.mult[ci-1] != distinct[[2]int64{r[0], r[1]}] {
					t.Fatalf("row %d linked with multiplicity %d, its key occurs %d times",
						ci-1, table.mult[ci-1], distinct[[2]int64{r[0], r[1]}])
				}
			}
		}
		if want := map[bool]int{false: len(rows), true: len(distinct)}[counting]; linked != want {
			t.Fatalf("counting=%v: %d rows linked, want %d", counting, linked, want)
		}
	}
}
