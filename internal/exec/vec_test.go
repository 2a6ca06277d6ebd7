package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/testkit"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// transposeRows converts arity-wide row-major data into columnar form. The
// columns share one exact-size backing array.
func transposeRows[R ~[]int64](rows []R, arity int) colData {
	d := colData{cols: flatCols(arity, len(rows)), n: len(rows)}
	for r, row := range rows {
		for c := range d.cols {
			d.cols[c][r] = row[c]
		}
	}
	return d
}

// NewVecScanRows is NewVecScan over row-major input, transposed once at
// construction — the test-convenience path.
func NewVecScanRows(rows [][]int64, filter ScanFilter) VecIterator {
	var arity int
	if len(rows) > 0 {
		arity = len(rows[0])
	}
	d := transposeRows(rows, arity)
	return NewVecScan(d.cols, d.n, filter)
}

// ---- vectorized operator unit tests ----

func TestVecScanBatchesAndSelection(t *testing.T) {
	n := 3*BatchSize + 17
	data := make([][]int64, n)
	for i := range data {
		data[i] = []int64{int64(i), int64(i % 2)}
	}
	v := NewVecScanRows(data, ScanFilter{Conds: []ScanCond{{Off: 1, Op: relalg.CmpEQ, Val: 0}}})
	if err := v.Open(); err != nil {
		t.Fatal(err)
	}
	var total, batches int
	for {
		b, err := v.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
		if b.N > BatchSize {
			t.Fatalf("batch of %d rows exceeds capacity %d", b.N, BatchSize)
		}
		for k := 0; k < b.Len(); k++ {
			idx := k
			if b.Sel != nil {
				idx = b.Sel[k]
			}
			if b.Cols[1][idx] != 0 {
				t.Fatalf("selection vector leaked filtered row %d", b.Cols[0][idx])
			}
		}
		total += b.Len()
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if want := (n + 1) / 2; total != want {
		t.Fatalf("selected %d rows, want %d", total, want)
	}
	if batches != 4 {
		t.Fatalf("got %d batches, want 4", batches)
	}
}

func TestVecHashJoinSpansBatches(t *testing.T) {
	// Every probe row matches every build row: 60 * 60 = 3600 outputs,
	// forcing multiple output batch flushes.
	build := make([][]int64, 60)
	probe := make([][]int64, 60)
	for i := range build {
		build[i] = []int64{1, int64(i)}
		probe[i] = []int64{1, int64(100 + i)}
	}
	v := NewVecHashJoin(NewVecScanRows(build, ScanFilter{}), NewVecScanRows(probe, ScanFilter{}), []int{0}, []int{0}, nil, seq(2), seq(2))
	out, err := DrainVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3600 {
		t.Fatalf("got %d join rows, want 3600", len(out))
	}
	for _, r := range out {
		if len(r) != 4 || r[0] != 1 || r[2] != 1 {
			t.Fatalf("bad join row %v", r)
		}
	}
}

// ---- error-path tests ----

type failingIter struct{ closeErr error }

func (f *failingIter) Open() error           { return nil }
func (f *failingIter) Next() (*Batch, error) { return nil, errors.New("next failed") }
func (f *failingIter) Close() error          { return f.closeErr }

func TestDrainJoinsCloseError(t *testing.T) {
	closeErr := errors.New("close failed")
	_, err := DrainVec(&failingIter{closeErr: closeErr})
	if err == nil || !strings.Contains(err.Error(), "next failed") {
		t.Fatalf("DrainVec error = %v, want next error", err)
	}
	if !errors.Is(err, closeErr) {
		t.Fatalf("DrainVec error %v does not join the Close error", err)
	}
	if _, err := CountVec(&failingIter{closeErr: closeErr}); !errors.Is(err, closeErr) {
		t.Fatalf("CountVec error %v does not join the Close error", err)
	}
	// A sink's error ends the drain the same way: after the first batch, the
	// tree closed and its Close error joined, the rows before it counted.
	sinkErr := errors.New("sink failed")
	scan := &closeErrIter{NewVecScan([][]int64{make([]int64, 3*BatchSize)}, 3*BatchSize, ScanFilter{}), closeErr}
	batches := 0
	n, err := Drain(scan, func(*Batch) error {
		if batches++; batches == 2 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) || !errors.Is(err, closeErr) || n != BatchSize || batches != 2 {
		t.Fatalf("Drain into a sink failing on batch 2: %d rows, %d batches, error %v", n, batches, err)
	}
}

// closeErrIter is its iterator with a Close that fails.
type closeErrIter struct {
	VecIterator
	closeErr error
}

func (c *closeErrIter) Close() error { return errors.Join(c.VecIterator.Close(), c.closeErr) }

// weightedIter emits one batch of n single-column rows, each standing for
// three: what a counting hash join hands its consumer.
type weightedIter struct {
	n    int
	done bool
}

func (w *weightedIter) Open() error { w.done = false; return nil }
func (w *weightedIter) Next() (*Batch, error) {
	if w.done {
		return nil, nil
	}
	w.done = true
	b := &Batch{Cols: [][]int64{make([]int64, w.n)}, N: w.n, Mult: make([]int64, w.n)}
	for i := range b.Mult {
		b.Cols[0][i], b.Mult[i] = int64(i), 3
	}
	return b, nil
}
func (w *weightedIter) Close() error { return nil }

// TestWeightedBatchEscapes: a weighted batch reaching anything that does not
// read Batch.Mult is a compiler bug and must end the query with an error,
// never with a result that silently counts each weighted row once.
func TestWeightedBatchEscapes(t *testing.T) {
	scan := func() VecIterator { return scanOf([]int64{1}, []int64{2}) }
	bounded := NewVecHashJoin(&weightedIter{n: 4}, scan(), []int{0}, []int{0}, nil, nil, seq(1)).(*vecHashJoinOp)
	bounded.mem = NewMemTracker(1 << 20).Child()
	spilled := NewVecHashJoin(&weightedIter{n: 4}, scan(), []int{0}, []int{0}, nil, nil, seq(1)).(*vecHashJoinOp)
	spilled.mem = NewMemTracker(8).Child()
	spilledProbe := NewVecHashJoin(scan(), &weightedIter{n: 4}, []int{0}, []int{0}, nil, seq(1), seq(1)).(*vecHashJoinOp)
	spilledProbe.mem = NewMemTracker(8).Child()
	for name, v := range map[string]VecIterator{
		"result":                      &weightedIter{n: 4},
		"hash join build":             NewVecHashJoin(&weightedIter{n: 4}, scan(), []int{0}, []int{0}, nil, nil, seq(1)),
		"hash join build, bounded":    bounded,
		"hash join build, spilling":   spilled,
		"enumerating hash join probe": NewVecHashJoin(scan(), &weightedIter{n: 4}, []int{0}, []int{0}, nil, seq(1), seq(1)),
		"enumerating probe, spilling": spilledProbe,
		"result-cache spool":          &spoolOp{in: &weightedIter{n: 4}, maxBytes: 1 << 20},
	} {
		if _, err := DrainVec(v); err == nil || !strings.Contains(err.Error(), "multiplicities") {
			t.Errorf("%s: DrainVec error = %v, want the weighted-batch error", name, err)
		}
		if _, err := CountVec(v); err == nil || !strings.Contains(err.Error(), "multiplicities") {
			t.Errorf("%s: CountVec error = %v, want the weighted-batch error", name, err)
		}
	}
	// The span shim and the aggregation do read it.
	op := &spanOp{in: &weightedIter{n: 4}, st: &RunStats{}}
	agg := NewVecHashAgg(op, AggSpecExec{CountAll: true, Sums: []int{0}})
	if out, err := DrainVec(agg); err != nil || op.sp.Rows != 12 || len(out) != 1 || out[0][0] != 3*(0+1+2+3) || out[0][1] != 12 {
		t.Fatalf("shim saw %d rows, aggregate %v (err %v); want 12 rows, SUM 18, COUNT 12", op.sp.Rows, out, err)
	}
}

// failingOpen is a build side whose Open fails.
type failingOpen struct{ VecIterator }

func (failingOpen) Open() error { return errors.New("open failed") }

// closeRecorder is a probe side that records whether it was closed.
type closeRecorder struct {
	VecIterator
	closed bool
}

func (c *closeRecorder) Close() error { c.closed = true; return c.VecIterator.Close() }

// TestVecHashJoinOpenErrorReleasesProbe: when draining the build side fails
// (its Open errors), the already-opened probe side must be closed
// rather than leaked.
func TestVecHashJoinOpenErrorReleasesProbe(t *testing.T) {
	probe := &closeRecorder{VecIterator: scanOf([]int64{1})}
	j := NewVecHashJoin(failingOpen{scanOf([]int64{1})}, probe, []int{0}, []int{0}, nil, seq(2), seq(1))
	if err := j.Open(); err == nil {
		t.Fatal("a failing build side opened")
	}
	if !probe.closed {
		t.Fatal("the probe side was opened and never closed")
	}
}

func rowMultiset(rows []Row) string { return testkit.Canonical(rows, nil) }

// TestTPCHReferenceDifferential executes every TPC-H workload query and
// asserts that the result multiset and the RunStats feedback cardinality of
// every scan and join operator equal what testkit.Reference computes from the
// logical query alone — the proof that the §5.4 adaptive loop sees correct
// feedback. The reference shares no code with the compiler, so a wrong key
// set or a dropped residual fails here instead of agreeing with itself. The
// tree is then re-opened and counted through CountVec — the aqp.RunSlice
// path — which must count the reference's rows.
func TestTPCHReferenceDifferential(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	for name, q := range tpch.Queries() {
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vr, err := volcano.Optimize(m, relalg.DefaultSpace())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := testkit.NewReference(q, cat)
		want := testkit.Canonical(ref.Rows(), nil)
		comp := &Compiler{Q: q, Cat: cat}
		v, st, err := comp.CompileVec(vr.Plan)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		checkExecution(t, name, comp, v, st, ref.Card, want, vr.Plan)
		if n, err := CountVec(v); err != nil || n != int64(len(ref.Rows())) {
			t.Fatalf("%s: CountVec = %d (err %v), reference count %d", name, n, err, len(ref.Rows()))
		}
	}
}

// TestCompileParallelCountMatches runs a query end to end via CountVec on a
// freshly compiled tree — the aqp.RunSlice code path. The executor is serial;
// the name predates that and is kept so earlier runs compare.
func TestCompileParallelCountMatches(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 11})
	q := tpch.Q3S()
	m, _ := cost.NewModel(q, cat, cost.DefaultParams())
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(testkit.NewReference(q, cat).Rows()))
	comp := &Compiler{Q: q, Cat: cat}
	v, _, err := comp.CompileVec(vr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || want == 0 {
		t.Fatalf("count = %d, reference count = %d", got, want)
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

// drainCompiled compiles plan of q over cat and drains it.
func drainCompiled(t *testing.T, q *relalg.Query, cat *catalog.Catalog, plan *relalg.Plan) ([]Row, *RunStats) {
	t.Helper()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	v, st, err := (&Compiler{Q: q, Cat: cat}).CompileVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DrainVec(v)
	if err != nil {
		t.Fatal(err)
	}
	return rows, st
}

// TestPipelineCascadeMatchesSerial compiles a two-join probe pipeline and
// checks it against the nested hash joins built by hand,
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
	got, st := drainCompiled(t, q, rowsCatalog(map[string][][]int64{"P": probe, "A": buildA, "B": buildB}), joinB)
	if g, w := rowMultiset(got), rowMultiset(want); g != w {
		t.Fatalf("compiled multiset differs from the hand-built joins': %d groups vs %d", len(got), len(want))
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

// TestPipelineAggMatchesSerial compiles a one-join probe pipeline under SUM,
// COUNT(*) and COUNT(DISTINCT) and checks it against the hash-agg-over-join
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
	got, st := drainCompiled(t, q, rowsCatalog(map[string][][]int64{"P": probe, "D": build}), join)
	// Aggregated output is deterministically ordered, so compare exactly.
	if g, w := rowMultiset(got), rowMultiset(want); g != w {
		t.Fatalf("compiled agg differs from the hand-built one: %d groups vs %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("compiled agg order differs at group %d: %v vs %v", i, got[i], want[i])
		}
	}
	if n, _ := st.Card(join.Expr); n != joined {
		t.Errorf("join counter = %d, want %d", n, joined)
	}
}
