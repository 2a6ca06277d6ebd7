package exec

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// ---- spill differential: TPC-H under a tight budget ----

// tightBudget forces grace-hash spilling on every TPC-H join and aggregation
// at SF 0.002 while leaving enough headroom for clean per-partition loads.
const tightBudget = 96 << 10

// TestTPCHSpillDifferential executes every TPC-H workload query with an
// unbounded baseline and then under a tight memory budget, asserting
// identical result multisets and identical RunStats feedback cardinalities —
// the spill-mode extension of TestTPCHReferenceDifferential. It does so for
// the default space's plan and for the merge-only plan (Volcano over merge
// joins and sort enforcers), whose joins run on the hash join and spill like
// any other: its overage must equal the default plan's. It additionally
// asserts that the sweep really spilled (the differential is meaningless
// otherwise; CI greps for its run) and that, whenever no operator was forced
// past the budget, tracked peak memory stayed under it.
func TestTPCHSpillDifferential(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	var totalSpilled int64
	for name, q := range tpch.Queries() {
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var overage [2]int64
		for i, space := range []relalg.SpaceOptions{relalg.DefaultSpace(), {MergeJoin: true, SortEnforcer: true}} {
			label := name + [2]string{" (default space)", " (merge only)"}[i]
			vr, err := volcano.Optimize(m, space)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			mem := spillDifferential(t, label, q, cat, vr.Plan)
			parts, _, _ := mem.SpillStats()
			totalSpilled += parts
			overage[i] = mem.Overage()
		}
		if overage[0] != overage[1] {
			t.Fatalf("%s: the merge-only plan records overage %d, the default plan %d", name, overage[1], overage[0])
		}
	}
	if totalSpilled == 0 {
		t.Fatal("budget sweep never spilled: the differential exercised nothing")
	}
}

// spillDifferential runs plan unbounded and under tightBudget, holds the two
// to one result multiset and one set of RunStats cardinalities, and returns
// the budgeted run's tracker.
func spillDifferential(t *testing.T, label string, q *relalg.Query, cat *catalog.Catalog, plan *relalg.Plan) *MemTracker {
	t.Helper()
	base := &Compiler{Q: q, Cat: cat}
	v, baseStats, err := base.CompileVec(plan)
	if err != nil {
		t.Fatalf("%s: compile unbounded: %v", label, err)
	}
	baseRows, err := DrainVec(v)
	if err != nil {
		t.Fatalf("%s: unbounded path: %v", label, err)
	}
	want := rowMultiset(baseRows)

	comp := &Compiler{Q: q, Cat: cat, Mem: NewMemTracker(tightBudget)}
	v, stats, err := comp.CompileVec(plan)
	if err != nil {
		t.Fatalf("%s: compile budgeted: %v", label, err)
	}
	gotRows, err := DrainVec(v)
	if err != nil {
		t.Fatalf("%s: budgeted path: %v", label, err)
	}
	if got := rowMultiset(gotRows); got != want {
		t.Fatalf("%s (budget=%d): result multiset differs: %d budgeted rows vs %d unbounded",
			label, tightBudget, len(gotRows), len(baseRows))
	}
	if len(stats.Cards) != len(baseStats.Cards) {
		t.Fatalf("%s: stats cover %d exprs, unbounded %d", label, len(stats.Cards), len(baseStats.Cards))
	}
	for set, n := range baseStats.Cards {
		got, ok := stats.Card(set)
		if !ok || got != *n {
			t.Fatalf("%s: cardinality of %v = %d, unbounded %d", label, set, got, *n)
		}
	}
	if parts, bytes, _ := comp.Mem.SpillStats(); comp.Mem.Overage() == 0 && comp.Mem.Peak() > tightBudget {
		t.Fatalf("%s: peak %d exceeds budget %d with zero overage (%d partitions, %d bytes spilled)",
			label, comp.Mem.Peak(), tightBudget, parts, bytes)
	}
	return comp.Mem
}

// ---- deterministic synthetic spill tests ----

func spillJoinInputs(buildN, probeN, keyMod int) (build, probe [][]int64) {
	rng := rand.New(rand.NewSource(3))
	build = make([][]int64, buildN)
	for i := range build {
		build[i] = []int64{int64(i % keyMod), rng.Int63n(1000)}
	}
	probe = make([][]int64, probeN)
	for i := range probe {
		probe[i] = []int64{int64(i % keyMod), int64(10000 + i)}
	}
	return build, probe
}

func runTrackedJoin(t *testing.T, build, probe [][]int64, budget int64) ([]Row, *MemTracker) {
	t.Helper()
	j := NewVecHashJoin(NewVecScanRows(build, ScanFilter{}), NewVecScanRows(probe, ScanFilter{}),
		[]int{0}, []int{0}, nil, seq(2), seq(2))
	tr := NewMemTracker(budget)
	j.(*vecHashJoinOp).mem = tr.Child()
	out, err := DrainVec(j)
	if err != nil {
		t.Fatalf("budget=%d: %v", budget, err)
	}
	return out, tr
}

// spillJoinCase is one join TestSpillJoinMatchesUnbounded runs unbounded and
// under a budget. Rows are row-major; the first keys columns are the key on
// both sides. spills: the budget makes the join write partitions; recurses:
// a partition is split again one level deeper.
type spillJoinCase struct {
	name             string
	build, probe     [][]int64
	keys             int
	residual         []ColPred
	counting         bool // the join counts, over a probe weighted by its column 2 (multIter)
	budget           int64
	spills, recurses bool
}

// spillJoinCases builds the cases TestSpillJoinMatchesUnbounded runs from
// fixed seeds; the recursing and the skewed joins have tests of their own.
func spillJoinCases() []spillJoinCase {
	uniBuild, uniProbe := spillJoinInputs(65536, 512, 1000)
	rng := rand.New(rand.NewSource(4))
	wide := func(n int) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{rng.Int63n(40), rng.Int63n(25), rng.Int63n(1000)}
		}
		return rows
	}
	weighted := make([][]int64, len(uniProbe))
	for i, r := range uniProbe {
		weighted[i] = []int64{r[0], r[1], 1 + int64(i%3)}
	}
	small, _ := spillJoinInputs(2048, 0, 1000)
	mid, midProbe := spillJoinInputs(3000, 600, 1000)
	return []spillJoinCase{
		{name: "two-column key and a residual", build: wide(30000), probe: wide(3000), keys: 2,
			residual: []ColPred{{L: 2, R: 5, Op: relalg.CmpLT, Off: 500}},
			budget:   48 << 10, spills: true, recurses: true},
		{name: "counting over a weighted probe", build: uniBuild, probe: weighted, keys: 1, counting: true,
			budget: 32 << 10, spills: true, recurses: true},
		{name: "empty build side", probe: uniProbe, keys: 1, budget: 32 << 10},
		{name: "empty probe side", build: uniBuild, keys: 1, budget: 32 << 10, spills: true},
		// Its first batch's columns and table (16 + 12 bytes a row, 8 KiB of
		// heads) already overflow; each level-0 partition fits.
		{name: "first build batch overflows", build: small, probe: uniProbe, keys: 1,
			budget: 16 << 10, spills: true},
		// 48 000 bytes of columns fit, the table over them does not.
		{name: "columns fit, table does not", build: mid, probe: midProbe, keys: 1,
			budget: 64 << 10, spills: true},
	}
}

// run drains the case's join under budget (0 = unbounded) into a multiset:
// each output row and its weight, the batch's multiplicity or 1.
func (c spillJoinCase) run(t *testing.T, budget int64) (map[string]int64, *MemTracker) {
	t.Helper()
	var probe VecIterator = NewVecScanRows(c.probe, ScanFilter{})
	lOut, rOut := seq(2), seq(2)
	if c.keys == 2 {
		lOut, rOut = seq(3), seq(3)
	}
	if c.counting {
		probe, lOut, rOut = &multIter{probe, 2}, nil, seq(3)
	}
	j := NewVecHashJoin(NewVecScanRows(c.build, ScanFilter{}), probe, seq(c.keys), seq(c.keys), c.residual,
		lOut, rOut).(*vecHashJoinOp)
	j.counting = c.counting
	tr := NewMemTracker(budget)
	j.mem = tr.Child()
	if err := j.Open(); err != nil {
		t.Fatalf("%s, budget %d: %v", c.name, budget, err)
	}
	got := map[string]int64{}
	for {
		b, err := j.Next()
		if err != nil {
			t.Fatalf("%s, budget %d: %v", c.name, budget, err)
		}
		if b == nil {
			break
		}
		live := b.Sel
		if live == nil {
			live = seq(b.N)
		}
		for _, i := range live {
			row := make([]int64, len(b.Cols))
			for c, col := range b.Cols {
				row[c] = col[i]
			}
			w := int64(1)
			if b.Mult != nil {
				w = b.Mult[i]
			}
			got[fmt.Sprint(row)] += w
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Used() != 0 {
		t.Fatalf("%s, budget %d: %d bytes still charged after Close", c.name, budget, tr.Used())
	}
	return got, tr
}

// check joins the case unbounded and under its budget and requires the
// output multiset, weighted by Batch.Mult for a counting join, to equal the
// unbounded join's, the spill to have the case's shape, and the tracked peak
// to stay within the budget with nothing Force-charged. It returns the
// unbounded join's multiset.
func (c spillJoinCase) check(t *testing.T) map[string]int64 {
	t.Helper()
	want, _ := c.run(t, 0)
	got, tr := c.run(t, c.budget)
	if !maps.Equal(got, want) {
		t.Fatalf("%s: spilled join emits %d distinct rows, the unbounded join %d, and they differ",
			c.name, len(got), len(want))
	}
	if len(want) == 0 && c.build != nil && c.probe != nil {
		t.Fatalf("%s: no output: the case tests nothing", c.name)
	}
	parts, bytes, recs := tr.SpillStats()
	if spilled := parts > 0 && bytes > 0; spilled != c.spills || (recs > 0) != c.recurses {
		t.Fatalf("%s: %d partitions, %d bytes, %d recursions under a %d-byte budget; want spilling %v, recursing %v",
			c.name, parts, bytes, recs, c.budget, c.spills, c.recurses)
	}
	if over := tr.Overage(); over != 0 || tr.Peak() > c.budget {
		t.Fatalf("%s: tracked peak %d, overage %d under a %d-byte budget", c.name, tr.Peak(), over, c.budget)
	}
	t.Logf("%s: %d partitions, %d bytes spilled, %d recursions, peak %d", c.name, parts, bytes, recs, tr.Peak())
	return want
}

// TestSpillJoinMatchesUnbounded joins each case under a budget small enough
// to spill it — recursively, or from its first build batch — and checks it
// against the unbounded join; run also requires the tracker to be back at 0
// bytes after Close.
func TestSpillJoinMatchesUnbounded(t *testing.T) {
	for _, c := range spillJoinCases() {
		c.check(t)
	}
}

// TestSpillJoinForcedRecursion drives a uniform-key join through recursive
// repartitioning: the build side exceeds the budget even after the level-0
// split, so every partition recurses one level before fitting. Every
// reservation on this path can be honored, so the tracked peak stays under
// the budget with zero overage.
func TestSpillJoinForcedRecursion(t *testing.T) {
	build, probe := spillJoinInputs(65536, 512, 1000)
	spillJoinCase{name: "uniform key, recursing", build: build, probe: probe, keys: 1,
		budget: 32 << 10, spills: true, recurses: true}.check(t)
}

// TestSpillJoinSkewChunkFallback joins a build side where every row carries
// the same key. Its 4096 rows are one run of one hash at level 0, and their
// columns alone fill the budget: no level would split them, so the join goes
// straight to build chunks × probe re-reads without recursing, and still
// emits each matching pair exactly once within budget.
func TestSpillJoinSkewChunkFallback(t *testing.T) {
	build := make([][]int64, 4096)
	for i := range build {
		build[i] = []int64{42, int64(i)}
	}
	probe := [][]int64{{42, 1, 3}, {42, 2, 1}, {7, 3, 2}}
	want := spillJoinCase{name: "one skewed key, in chunks", build: build, probe: probe, keys: 1,
		budget: 64 << 10, spills: true}.check(t)
	if len(want) != 2*len(build) {
		t.Fatalf("unbounded skew join produced %d rows, want %d", len(want), 2*len(build))
	}
	spillJoinCase{name: "one skewed key, counting in chunks", build: build, probe: probe, keys: 1, counting: true,
		budget: 48 << 10, spills: true}.check(t)
}

// multIter hands on its input's batches weighted by one of their columns: row
// i stands for Cols[col][i] copies, as a counting hash join's output does.
type multIter struct {
	VecIterator
	col int
}

func (m *multIter) Next() (*Batch, error) {
	b, err := m.VecIterator.Next()
	if b != nil {
		b.Mult = b.Cols[m.col]
	}
	return b, err
}

// spillAggCase is one aggregation TestSpillAggMatchesUnbounded runs unbounded
// and under a budget. spills: the budget makes it write partitions; forced: a
// merge recurses to maxSpillLevel and is Force-charged there; single: every
// run holds one hash, so its merge is Force-charged without recursing. A
// case that does none of these is Force-charged in memory (COUNT(DISTINCT)).
type spillAggCase struct {
	name                   string
	input                  [][]int64
	spec                   AggSpecExec
	weighted               bool // column 3 holds each row's multiplicity
	budget                 int64
	spills, forced, single bool
}

// spillAggCases builds the cases from fixed seeds.
func spillAggCases() []spillAggCase {
	// rows returns n rows whose column c is uniform in [0, domains[c]).
	rows := func(seed int64, n int, domains ...int64) [][]int64 {
		rng := rand.New(rand.NewSource(seed))
		input := make([][]int64, n)
		for i := range input {
			input[i] = make([]int64, len(domains))
			for c, d := range domains {
				input[i][c] = rng.Int63n(d)
			}
		}
		return input
	}
	weighted := rows(9, 60000, 8000, 4, 100, 3)
	for _, r := range weighted {
		r[3]++
	}
	return []spillAggCase{
		{name: "two-column key", input: rows(9, 60000, 8000, 4, 100),
			spec:   AggSpecExec{GroupBy: []int{0, 1}, Sums: []int{2}, CountAll: true},
			budget: 128 << 10, spills: true},
		{name: "key neither a prefix nor in order", input: rows(10, 60000, 100, 100, 300, 1000),
			spec:   AggSpecExec{GroupBy: []int{2, 0}, Sums: []int{1, 3}, CountAll: true},
			budget: 128 << 10, spills: true},
		{name: "weighted input", input: weighted, weighted: true,
			spec:   AggSpecExec{GroupBy: []int{0, 1}, Sums: []int{2}, CountAll: true},
			budget: 128 << 10, spills: true},
		{name: "recursing to maxSpillLevel", input: rows(11, 5000, 64, 100),
			spec:   AggSpecExec{GroupBy: []int{0}, Sums: []int{1}, CountAll: true},
			budget: 1 << 10, spills: true, forced: true},
		{name: "one group, one hash, folded in memory", input: rows(12, 5000, 100),
			spec:   AggSpecExec{Sums: []int{0}, CountAll: true},
			budget: 1 << 10, spills: true, single: true},
		{name: "COUNT(DISTINCT) never spills", input: rows(13, 20000, 500, 50),
			spec:   AggSpecExec{GroupBy: []int{0}, CountAll: true, CountDistinct: []int{1}},
			budget: 16 << 10},
	}
}

// run drains the case's aggregation under budget (0 = unbounded).
func (c spillAggCase) run(budget int64) ([]Row, *MemTracker, error) {
	in := NewVecScanRows(c.input, ScanFilter{})
	if c.weighted {
		in = &multIter{in, 3}
	}
	a := NewVecHashAgg(in, c.spec)
	tr := NewMemTracker(budget)
	a.(*vecHashAggOp).mem = tr.Child()
	out, err := DrainVec(a)
	return out, tr, err
}

// TestSpillAggMatchesUnbounded aggregates each case under a budget small
// enough to dump partials several times — for the forced cases, to recurse
// down to maxSpillLevel — and requires the ordered output, not just the
// multiset, to equal the unbounded operator's: spilled aggregation merges
// partials per partition and restores the deterministic global order with
// one final sort.
func TestSpillAggMatchesUnbounded(t *testing.T) {
	for _, c := range spillAggCases() {
		want, _, err := c.run(0)
		if err != nil {
			t.Fatalf("%s, unbounded: %v", c.name, err)
		}
		got, tr, err := c.run(c.budget)
		if err != nil {
			t.Fatalf("%s, budget %d: %v", c.name, c.budget, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: spilled agg emitted %d groups, want %d", c.name, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: row %d differs: %v vs unbounded %v", c.name, i, got[i], want[i])
			}
		}
		parts, bytes, recs := tr.SpillStats()
		if spilled := parts > 0 && bytes > 0; spilled != c.spills {
			t.Fatalf("%s: %d partitions (%d bytes) spilled under a %d-byte budget, want spilling %v",
				c.name, parts, bytes, c.budget, c.spills)
		}
		// The final output columns are Force-charged alone (the consumer needs
		// them materialized); overage past theirs is a table that could not
		// spill.
		outOver := max(0, colBytes(len(want[0]), len(want))-c.budget)
		switch over := tr.Overage(); {
		case c.single && (recs > 0 || over <= outOver):
			t.Fatalf("%s: %d recursions, overage %d (the output's %d): the one-hash run was not folded Force-charged",
				c.name, recs, over, outOver)
		case c.forced && (recs < maxSpillLevel || over <= outOver):
			t.Fatalf("%s: %d recursions, overage %d (the output's %d): no merge reached maxSpillLevel's Force",
				c.name, recs, over, outOver)
		case !c.forced && !c.single && c.spills && over > outOver:
			t.Fatalf("%s: overage %d exceeds the final output's %d", c.name, over, outOver)
		case !c.spills && (recs > 0 || over <= outOver):
			t.Fatalf("%s: %d recursions, overage %d (the output's %d): the table was not Force-charged in memory",
				c.name, recs, over, outOver)
		}
	}
}

// TestCountDistinctChargesItsValues: the tracked footprint of a COUNT(DISTINCT)
// aggregation grows with the values its sets hold, not only with its groups.
// These are the plans that cannot spill, so what they Force-charge is all the
// memory ceiling ever learns about them.
func TestCountDistinctChargesItsValues(t *testing.T) {
	const groups, n = 4, 20000
	peak := func(distinct int) int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{int64(i % groups), int64(i % distinct)}
		}
		agg := NewVecHashAgg(NewVecScanRows(rows, ScanFilter{}),
			AggSpecExec{GroupBy: []int{0}, CountDistinct: []int{1}}).(*vecHashAggOp)
		root := NewMemTracker(0)
		agg.mem = root.Child()
		out, err := DrainVec(agg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range out {
			if len(out) != groups || r[1] != int64(distinct/groups) {
				t.Fatalf("%d values over %d groups: result %v", distinct, groups, out)
			}
		}
		if root.Used() != 0 {
			t.Fatalf("%d bytes still charged after Close", root.Used())
		}
		return root.Peak()
	}
	// The one flat set is charged as held, 12 bytes a slot: the 256 it starts
	// with hold 8 values, 8000 take 16384 (doubling at three quarters full).
	few, many := peak(8), peak(8000)
	if many-few != (16384-256)*12 {
		t.Fatalf("tracked peak %d B with 8 distinct values, %d B with 8000: want %d B between them, the set's slots as held",
			few, many, (16384-256)*12)
	}
}

// TestMemTrackerBasics pins the Reserve/Force/Release semantics the spill
// operators rely on.
func TestMemTrackerBasics(t *testing.T) {
	root := NewMemTracker(100)
	a, b := root.Child(), root.Child()
	if !a.Reserve(60) || !b.Reserve(40) {
		t.Fatal("reservations within the budget must succeed")
	}
	if b.Reserve(1) {
		t.Fatal("reservation past the budget must fail")
	}
	if root.Used() != 100 || root.Peak() != 100 {
		t.Fatalf("used=%d peak=%d, want 100/100", root.Used(), root.Peak())
	}
	b.Force(10)
	if root.Overage() != 10 {
		t.Fatalf("overage = %d, want 10", root.Overage())
	}
	a.ReleaseAll()
	b.ReleaseAll()
	if root.Used() != 0 {
		t.Fatalf("used = %d after ReleaseAll, want 0", root.Used())
	}
	if root.Peak() != 110 {
		t.Fatalf("peak = %d, want 110", root.Peak())
	}
	var nilTr *MemTracker
	if !nilTr.Reserve(1<<40) || nilTr.Bounded() {
		t.Fatal("nil tracker must be unbounded")
	}
	nilTr.Force(1)
	nilTr.Release(1)
	nilTr.ReleaseAll()
}

// ---- spill benchmarks (CI smoke) ----

func benchSpillJoin(b *testing.B, budget int64) {
	build, probe := spillJoinInputs(100000, 20000, 5000)
	b.ResetTimer()
	var peak int64
	for i := 0; i < b.N; i++ {
		j := NewVecHashJoin(NewVecScanRows(build, ScanFilter{}), NewVecScanRows(probe, ScanFilter{}),
			[]int{0}, []int{0}, nil, seq(2), seq(2))
		tr := NewMemTracker(budget)
		j.(*vecHashJoinOp).mem = tr.Child()
		n, err := CountVec(j)
		if err != nil {
			b.Fatal(err)
		}
		_ = n
		peak = tr.Peak()
	}
	b.ReportMetric(float64(peak), "peak-bytes")
}

func BenchmarkSpillJoin(b *testing.B) {
	b.Run("unbounded", func(b *testing.B) { benchSpillJoin(b, 0) })
	b.Run("spill", func(b *testing.B) { benchSpillJoin(b, 256<<10) })
}

func benchSpillAgg(b *testing.B, budget int64) {
	rng := rand.New(rand.NewSource(5))
	input := make([][]int64, 200000)
	for i := range input {
		input[i] = []int64{int64(rng.Intn(30000)), rng.Int63n(100)}
	}
	spec := AggSpecExec{GroupBy: []int{0}, Sums: []int{1}, CountAll: true}
	b.ResetTimer()
	var peak int64
	for i := 0; i < b.N; i++ {
		a := NewVecHashAgg(NewVecScanRows(input, ScanFilter{}), spec)
		tr := NewMemTracker(budget)
		a.(*vecHashAggOp).mem = tr.Child()
		if _, err := CountVec(a); err != nil {
			b.Fatal(err)
		}
		peak = tr.Peak()
	}
	b.ReportMetric(float64(peak), "peak-bytes")
}

func BenchmarkSpillAgg(b *testing.B) {
	b.Run("unbounded", func(b *testing.B) { benchSpillAgg(b, 0) })
	b.Run("spill", func(b *testing.B) { benchSpillAgg(b, 512<<10) })
}
