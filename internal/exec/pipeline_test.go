package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/linearroad"
	"repro/internal/relalg"
	"repro/internal/testkit"
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

// parallelOf returns the parallel aggregation of a compiled tree, nil when it
// has none.
func parallelOf(v VecIterator) *parallelPipelineOp {
	in := v.(*execRoot).in
	if pv, ok := in.(*profVec); ok {
		in = pv.in
	}
	p, _ := in.(*parallelPipelineOp)
	return p
}

// spineShape lists the operator types down v's probe path: from every
// operator to its input, from a join to its probe side.
func spineShape(v reflect.Value) []string {
	var out []string
	for v.IsValid() && !v.IsNil() {
		for v.Kind() == reflect.Interface || v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		out = append(out, v.Type().Name())
		next := v.FieldByName("right")
		if !next.IsValid() {
			next = v.FieldByName("in")
		}
		v = next
	}
	return out
}

// TestCompilePipelineFuses asserts that the compiler runs the one shape the
// parallel aggregation exists for — an aggregating query over its join spine
// or its bare scan — and nothing else: a query without an aggregation and a
// serial compilation get the serial operator tree.
func TestCompilePipelineFuses(t *testing.T) {
	for _, tc := range []struct {
		q     *relalg.Query
		joins int
	}{
		{tpch.Q5(), 1}, // six-way join + agg
		{tpch.Q1(), 0}, // bare scan + agg (no join on the spine)
	} {
		v, _ := compileFor(t, tc.q, 4)
		pp := parallelOf(v)
		if pp == nil {
			t.Fatalf("%s: compiled root is %T, want *parallelPipelineOp", tc.q.Name, v.(*execRoot).in)
		}
		shape := spineShape(reflect.ValueOf(pp.spine))
		if joins := strings.Count(strings.Join(shape, " "), "vecHashJoinOp"); joins != tc.joins {
			t.Errorf("%s: spine %v, want %d joins over a scan", tc.q.Name, shape, tc.joins)
		}
	}
	for _, tc := range []struct {
		q   *relalg.Query
		par int
	}{{tpch.Q3S(), 4}, {tpch.Q5(), 1}} {
		v, _ := compileFor(t, tc.q, tc.par)
		if parallelOf(v) != nil {
			t.Fatalf("%s at Parallelism=%d compiled to a parallel aggregation", tc.q.Name, tc.par)
		}
	}
}

// rowsCatalog holds one table per entry of tabs, columns named c0, c1, ….
func rowsCatalog(tabs map[string][][]int64) *catalog.Catalog {
	cat := catalog.New()
	for name, rows := range tabs {
		cols := make([]string, len(rows[0]))
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d", i)
		}
		tb := catalog.NewTable(name, cols...)
		for _, r := range rows {
			tb.Append(r)
		}
		cat.Add(tb)
	}
	return cat
}

// drainParallel compiles plan at par workers, asserts that it runs as a
// parallel aggregation on more than one worker, and drains it.
func drainParallel(t *testing.T, q *relalg.Query, cat *catalog.Catalog, plan *relalg.Plan, par int) ([]Row, *RunStats) {
	t.Helper()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	v, st, err := (&Compiler{Q: q, Cat: cat, Parallelism: par}).CompileVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	pipe := parallelOf(v)
	if pipe == nil {
		t.Fatalf("compiled root is %T, want a parallel aggregation", v.(*execRoot).in)
	}
	rows, err := DrainVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.workers < 2 {
		t.Fatalf("%d worker ran, want more than one", pipe.workers)
	}
	return rows, st
}

// TestPipelineCascadeMatchesSerial compiles a two-join probe spine at four
// workers and checks it against the nested serial hash joins built by hand,
// including a residual filter and the exact cardinality of every spine
// operator. The aggregation groups by every column and counts, so the groups
// are the joined rows' multiset.
func TestPipelineCascadeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	probe := make([][]int64, 6*BatchSize)
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
	want, err := DrainVec(NewVecHashAgg(serial, AggSpecExec{GroupBy: seq(7), CountAll: true}))
	if err != nil {
		t.Fatal(err)
	}
	wantScan, err := CountVec(NewVecScanRows(probe, filter))
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := CountVec(NewVecHashJoin(NewVecScanRows(buildA, ScanFilter{}),
		NewVecScanRows(probe, filter), []int{0}, []int{0}, nil, seq(2), seq(3)))
	if err != nil {
		t.Fatal(err)
	}

	// The same joins as a query over p, a and b, grouped by every column of
	// the joined row in the hand-built order.
	col := func(rel, off int) relalg.ColID { return relalg.ColID{Rel: rel, Off: off} }
	q := &relalg.Query{
		Rels:    []relalg.RelRef{{Alias: "p", Table: "P"}, {Alias: "a", Table: "A"}, {Alias: "b", Table: "B"}},
		Scans:   []relalg.ScanPred{{Col: col(0, 1), Op: relalg.CmpLT, Val: 90}},
		Joins:   []relalg.JoinPred{{L: col(1, 0), R: col(0, 0)}, {L: col(2, 0), R: col(0, 1)}},
		Filters: []relalg.FilterPred{{L: col(2, 1), R: col(0, 2), Op: relalg.CmpLT, Sel: 0.5}},
		Agg: &relalg.AggSpec{CountAll: true, GroupBy: []relalg.ColID{
			col(2, 0), col(2, 1), col(1, 0), col(1, 1), col(0, 0), col(0, 1), col(0, 2)}},
	}
	scanP := liveScan(0)
	joinA := liveJoinOn(relalg.PhyHashJoin, 0, liveScan(1), scanP)
	joinB := liveJoinOn(relalg.PhyHashJoin, 1, liveScan(2), joinA)
	got, st := drainParallel(t, q, rowsCatalog(map[string][][]int64{"P": probe, "A": buildA, "B": buildB}), joinB, 4)
	if g, w := rowMultiset(got), rowMultiset(want); g != w {
		t.Fatalf("parallel multiset differs from serial: %d groups vs %d", len(got), len(want))
	}
	card := func(p *relalg.Plan) int64 { n, _ := st.Card(p.Expr); return n }
	if card(joinB) != joined || joined == 0 {
		t.Errorf("join B counter = %d, want %d", card(joinB), joined)
	}
	if card(scanP) != wantScan {
		t.Errorf("scan counter = %d, want %d", card(scanP), wantScan)
	}
	if card(joinA) != wantA {
		t.Errorf("join A counter = %d, want %d", card(joinA), wantA)
	}
}

// TestPipelineAggMatchesSerial runs a one-join spine under SUM, COUNT(*) and
// COUNT(DISTINCT) at four workers against the serial hash-agg-over-join
// reference built by hand.
func TestPipelineAggMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	probe := make([][]int64, 5*BatchSize)
	for i := range probe {
		probe[i] = []int64{int64(rng.Intn(50)), int64(rng.Intn(1000))}
	}
	build := make([][]int64, 300)
	for i := range build {
		build[i] = []int64{int64(rng.Intn(50)), int64(i % 7)}
	}
	spec := AggSpecExec{GroupBy: []int{1}, Sums: []int{3}, CountAll: true,
		CountDistinct: []int{0}}

	serial := NewVecHashJoin(NewVecScanRows(build, ScanFilter{}),
		NewVecScanRows(probe, ScanFilter{}), []int{0}, []int{0}, nil, seq(2), seq(2))
	joined, err := CountVec(serial)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DrainVec(NewVecHashAgg(serial, spec))
	if err != nil {
		t.Fatal(err)
	}

	col := func(rel, off int) relalg.ColID { return relalg.ColID{Rel: rel, Off: off} }
	q := &relalg.Query{
		Rels:  []relalg.RelRef{{Alias: "p", Table: "P"}, {Alias: "d", Table: "D"}},
		Joins: []relalg.JoinPred{{L: col(1, 0), R: col(0, 0)}},
		Agg: &relalg.AggSpec{GroupBy: []relalg.ColID{col(1, 1)}, Sums: []relalg.ColID{col(0, 1)},
			CountAll: true, CountDistinct: []relalg.ColID{col(1, 0)}},
	}
	join := liveJoinOn(relalg.PhyHashJoin, 0, liveScan(1), liveScan(0))
	got, st := drainParallel(t, q, rowsCatalog(map[string][][]int64{"P": probe, "D": build}), join, 4)
	// Aggregated output is deterministically ordered, so compare exactly.
	if g, w := rowMultiset(got), rowMultiset(want); g != w {
		t.Fatalf("parallel agg differs from serial: %d groups vs %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("parallel agg order differs at group %d: %v vs %v", i, got[i], want[i])
		}
	}
	if n, _ := st.Card(join.Expr); n != joined {
		t.Errorf("join counter = %d, want %d", n, joined)
	}
}

// growProbe appends the rows of the table plan's probe spine ends in to it
// until it holds enough for more than one worker. The plan stays as it was
// optimized.
func growProbe(t *testing.T, q *relalg.Query, cat *catalog.Catalog, plan *relalg.Plan) {
	t.Helper()
	for plan.Log == relalg.LogJoin {
		plan = plan.Right
	}
	if plan.Log != relalg.LogScan {
		return
	}
	tab := cat.MustTable(q.Rels[plan.Rel].Table)
	cols, n := tab.ColumnSnapshot()
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, len(cols))
		for c, col := range cols {
			rows[i][c] = col[i]
		}
	}
	for have := n; n > 0 && have < minParallelRows; have += n {
		if err := tab.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelWorkersRunTheSerialOperators: a parallel aggregation is P copies
// of the serial tree's probe spine. Every aggregating workload query — the five
// TPC-H ones and SegTollS — runs one at P ∈ {2, 4}, on P workers once its probe
// table is large enough, and then each worker's spine holds exactly the
// operator types of the serial spine, rows and RunStats equal the serial
// execution's and testkit.Reference's, and EXPLAIN ANALYZE renders the same
// nodes with the same rows, columns and batches: the same counters and shims,
// only copied.
func TestParallelWorkersRunTheSerialOperators(t *testing.T) {
	win := linearroad.NewWindows()
	win.Ingest(linearroad.NewGen(2, 60).Slice(0, 40))
	win.Materialize()
	tp := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	type workload struct {
		q   *relalg.Query
		cat *catalog.Catalog
	}
	work := []workload{{linearroad.SegTollS(), win.Catalog()}}
	for _, q := range tpch.Queries() {
		work = append(work, workload{q, tp})
	}
	times := regexp.MustCompile(` time=[^\]]*`)
	analyze := func(prof *PlanProfile, q *relalg.Query, plan *relalg.Plan, st *RunStats) string {
		_, body, _ := strings.Cut(prof.Format(q, plan, st), "\n") // the header names the parallelism
		return times.ReplaceAllString(body, "")
	}
	for _, w := range work {
		if w.q.Agg == nil {
			continue
		}
		m, err := cost.NewModel(w.q, w.cat, cost.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", w.q.Name, err)
		}
		vr, err := volcano.Optimize(m, relalg.DefaultSpace())
		if err != nil {
			t.Fatalf("%s: %v", w.q.Name, err)
		}
		plan := vr.Plan
		growProbe(t, w.q, w.cat, plan)
		serialProf := NewPlanProfile()
		sv, sst, err := (&Compiler{Q: w.q, Cat: w.cat, Parallelism: 1, Prof: serialProf}).CompileVec(plan)
		if err != nil {
			t.Fatalf("%s: %v", w.q.Name, err)
		}
		serialSpine := spineShape(reflect.ValueOf(sv.(*execRoot).in.(*profVec).in.(*vecHashAggOp).in))
		serialRows, err := DrainVec(sv)
		if err != nil {
			t.Fatalf("%s: %v", w.q.Name, err)
		}
		serialText := analyze(serialProf, w.q, plan, sst)
		// The serial execution against the reference; the parallel ones
		// against the serial one.
		ref := testkit.NewReference(w.q, w.cat)
		if testkit.Canonical(serialRows, nil) != testkit.Canonical(ref.Rows(), nil) {
			t.Fatalf("%s: serial result multiset differs from the reference", w.q.Name)
		}
		for set, n := range sst.Snapshot() {
			if want := ref.Card(set); n != want {
				t.Fatalf("%s: serial cardinality of %v = %d, reference %d", w.q.Name, set, n, want)
			}
		}
		for _, par := range []int{2, 4} {
			label := fmt.Sprintf("%s (par=%d)", w.q.Name, par)
			prof := NewPlanProfile()
			comp := &Compiler{Q: w.q, Cat: w.cat, Parallelism: par, Prof: prof}
			v, st, err := comp.CompileVec(plan)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			pipe := parallelOf(v)
			if pipe == nil {
				t.Fatalf("%s: compiled root is %T, want a parallel aggregation", label, v.(*execRoot).in)
			}
			rows, err := DrainVec(v)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if pipe.workers != par {
				t.Fatalf("%s: %d workers over %d probe rows", label, pipe.workers, pipe.scan.leaf.data.n)
			}
			for i, pw := range pipe.ws[:pipe.workers] {
				if got := spineShape(reflect.ValueOf(pw.spine)); !slices.Equal(got, serialSpine) {
					t.Fatalf("%s: worker %d runs %v, the serial spine is %v", label, i, got, serialSpine)
				}
			}
			if !reflect.DeepEqual(rows, serialRows) {
				t.Fatalf("%s: %d rows, %d serially, or other ones", label, len(rows), len(serialRows))
			}
			statsEqual(t, label, st.Snapshot(), sst.Snapshot())
			if got := analyze(prof, w.q, plan, st); got != serialText {
				t.Fatalf("%s: EXPLAIN ANALYZE differs from the serial rendering:\n%s\nserial:\n%s", label, got, serialText)
			}
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
