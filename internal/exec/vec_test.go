package exec

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/linearroad"
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
}

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
	bounded.mem = NewMemTracker(1 << 20).Child("hashjoin")
	spilled := NewVecHashJoin(&weightedIter{n: 4}, scan(), []int{0}, []int{0}, nil, nil, seq(1)).(*vecHashJoinOp)
	spilled.mem = NewMemTracker(8).Child("hashjoin")
	spilledProbe := NewVecHashJoin(scan(), &weightedIter{n: 4}, []int{0}, []int{0}, nil, seq(1), seq(1)).(*vecHashJoinOp)
	spilledProbe.mem = NewMemTracker(8).Child("hashjoin")
	for name, v := range map[string]VecIterator{
		"result":                      &weightedIter{n: 4},
		"sort":                        NewVecSort(&weightedIter{n: 4}, 0),
		"merge join, left":            NewVecMergeJoin(&weightedIter{n: 4}, scan(), 0, 0, nil, seq(1), seq(1)),
		"merge join, right":           NewVecMergeJoin(scan(), &weightedIter{n: 4}, 0, 0, nil, seq(1), seq(1)),
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
	// The counter and the aggregation do read it.
	var n int64
	agg := NewVecHashAgg(NewVecCounter(&weightedIter{n: 4}, &n), AggSpecExec{CountAll: true, Sums: []int{0}})
	if out, err := DrainVec(agg); err != nil || n != 12 || len(out) != 1 || out[0][0] != 3*(0+1+2+3) || out[0][1] != 12 {
		t.Fatalf("counter saw %d rows, aggregate %v (err %v); want 12 rows, SUM 18, COUNT 12", n, out, err)
	}
}

// unsortedMergeJoin is a build side whose Open fails: a merge join over an
// unsorted input.
func unsortedMergeJoin() VecIterator {
	return NewVecMergeJoin(scanOf([]int64{2}, []int64{1}), scanOf([]int64{1}), 0, 0, nil, seq(1), seq(1))
}

// closeRecorder is a probe side that records whether it was closed.
type closeRecorder struct {
	VecIterator
	closed bool
}

func (c *closeRecorder) Close() error { c.closed = true; return c.VecIterator.Close() }

// TestVecHashJoinOpenErrorReleasesProbe: when draining the build side fails
// (unsorted merge join below), the already-opened probe side must be closed
// rather than leaked.
func TestVecHashJoinOpenErrorReleasesProbe(t *testing.T) {
	probe := &closeRecorder{VecIterator: scanOf([]int64{1})}
	j := NewVecHashJoin(unsortedMergeJoin(), probe, []int{0}, []int{0}, nil, seq(2), seq(1))
	if err := j.Open(); err == nil {
		t.Fatal("unsorted build input accepted")
	}
	if !probe.closed {
		t.Fatal("the probe side was opened and never closed")
	}
}

// settled reports whether the goroutine count is back at base. A worker that
// has released its WaitGroup is still counted until it has finished exiting, so
// a count above base gets a moment to fall; one that stays there is a leak.
func settled(base int) bool {
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() <= base
}

// opShape renders an operator tree as its operator types, children in field
// order.
func opShape(v reflect.Value) string {
	for v.Kind() == reflect.Interface || v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	s := v.Type().Name()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == reflect.TypeFor[VecIterator]() && !f.IsNil() {
			s += "(" + opShape(f) + ")"
		}
	}
	return s
}

// TestNoGoroutineOutlivesOpen pins where the executor is concurrent: inside
// Open and nowhere else. For every workload query at Parallelism 2 and 4 the
// goroutine count is back at its baseline when Open returns and after a Close
// with nothing consumed, and an Open that fails in a build side leaves none
// behind either. A query without an aggregation has no parallel form at all:
// at Parallelism 1 and 4 it compiles to the same operators and returns the
// same rows in the same order, with the same RunStats.
func TestNoGoroutineOutlivesOpen(t *testing.T) {
	win := linearroad.NewWindows()
	win.Ingest(linearroad.NewGen(2, 60).Slice(0, 40))
	win.Materialize()
	tp := tpch.Generate(tpch.Config{ScaleFactor: 0.005, Seed: 7})
	type workload struct {
		q   *relalg.Query
		cat *catalog.Catalog
	}
	work := []workload{{linearroad.SegTollS(), win.Catalog()}}
	for _, q := range tpch.Queries() {
		work = append(work, workload{q, tp})
	}
	for _, w := range work {
		m, err := cost.NewModel(w.q, w.cat, cost.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", w.q.Name, err)
		}
		vr, err := volcano.Optimize(m, relalg.DefaultSpace())
		if err != nil {
			t.Fatalf("%s: %v", w.q.Name, err)
		}
		for _, par := range []int{2, 4} {
			base := runtime.NumGoroutine()
			v, _, err := (&Compiler{Q: w.q, Cat: w.cat, Parallelism: par}).CompileVec(vr.Plan)
			if err != nil {
				t.Fatalf("%s: %v", w.q.Name, err)
			}
			if err := v.Open(); err != nil {
				t.Fatalf("%s (par=%d): %v", w.q.Name, par, err)
			}
			if !settled(base) {
				t.Fatalf("%s (par=%d): %d goroutines after Open returned, %d before it", w.q.Name, par, runtime.NumGoroutine(), base)
			}
			if err := v.Close(); err != nil {
				t.Fatalf("%s (par=%d): %v", w.q.Name, par, err)
			}
			if !settled(base) {
				t.Fatalf("%s (par=%d): %d goroutines after Close, %d before Open", w.q.Name, par, runtime.NumGoroutine(), base)
			}
		}
		if w.q.Agg != nil {
			continue
		}
		serial := &Compiler{Q: w.q, Cat: w.cat, Parallelism: 1}
		v1, st1, err := serial.CompileVec(vr.Plan)
		if err != nil {
			t.Fatalf("%s: %v", w.q.Name, err)
		}
		v4, st4, err := (&Compiler{Q: w.q, Cat: w.cat, Parallelism: 4}).CompileVec(vr.Plan)
		if err != nil {
			t.Fatalf("%s: %v", w.q.Name, err)
		}
		if s1, s4 := opShape(reflect.ValueOf(v1)), opShape(reflect.ValueOf(v4)); s1 != s4 {
			t.Fatalf("%s compiles to different operators:\npar=1 %s\npar=4 %s", w.q.Name, s1, s4)
		}
		rows1, err := DrainVec(v1)
		if err != nil {
			t.Fatalf("%s: %v", w.q.Name, err)
		}
		rows4, err := DrainVec(v4)
		if err != nil {
			t.Fatalf("%s: %v", w.q.Name, err)
		}
		if len(rows1) == 0 || !reflect.DeepEqual(rows1, rows4) {
			t.Fatalf("%s: %d rows at par=1, %d at par=4, or in another order", w.q.Name, len(rows1), len(rows4))
		}
		statsEqual(t, w.q.Name, st4.Snapshot(), st1.Snapshot())
	}

	// A parallel aggregation whose build side fails never starts a worker: the
	// build side of t's join is a merge join of r and s without the sorts it
	// needs.
	col := func(rel, off int) relalg.ColID { return relalg.ColID{Rel: rel, Off: off} }
	q := &relalg.Query{
		Rels:  []relalg.RelRef{{Alias: "r", Table: "R"}, {Alias: "s", Table: "S"}, {Alias: "t", Table: "T"}},
		Joins: []relalg.JoinPred{{L: col(0, 0), R: col(1, 0)}, {L: col(2, 0), R: col(1, 0)}},
		Agg:   &relalg.AggSpec{CountAll: true},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	plan := liveJoinOn(relalg.PhyHashJoin, 1, liveJoin(relalg.PhyMergeJoin, liveScan(0), liveScan(1)), liveScan(2))
	v, _, err := (&Compiler{Q: q, Cat: liveCatalog(), Parallelism: 4}).CompileVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	if parallelOf(v) == nil {
		t.Fatalf("compiled root is %T, want a parallel aggregation", v.(*execRoot).in)
	}
	base := runtime.NumGoroutine()
	if err := v.Open(); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("unsorted build input: Open returned %v", err)
	}
	if !settled(base) {
		t.Fatalf("%d goroutines after a failed Open, %d before it", runtime.NumGoroutine(), base)
	}
}

// ---- differential test: executor vs reference evaluator, TPC-H workload ----

func rowMultiset(rows []Row) string { return testkit.Canonical(rows, nil) }

// TestTPCHReferenceDifferential executes every TPC-H workload query at every
// parallelism level (serial, and with the parallel aggregation at 2 and 4
// workers) and asserts that the result
// multiset and the RunStats feedback cardinality of every scan and join
// operator equal what testkit.Reference computes from the logical query
// alone — the proof that the §5.4 adaptive loop sees correct, byte-identical
// feedback at any parallelism. The reference shares no code with the
// compiler, so a wrong key set or a dropped residual fails here instead of
// agreeing with itself. Run under -race (the CI race shard) this also
// exercises the parallel workers for data races.
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
		for _, par := range []int{1, 2, 4} {
			checkAgainstReference(t, fmt.Sprintf("%s (par=%d)", name, par),
				&Compiler{Q: q, Cat: cat, Parallelism: par}, ref, want, vr.Plan)
		}
	}
}

// TestCompileParallelCountMatches runs a query end to end via CountVec at
// Parallelism 4 — the aqp.RunSlice code path.
func TestCompileParallelCountMatches(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 11})
	q := tpch.Q3S()
	m, _ := cost.NewModel(q, cat, cost.DefaultParams())
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(testkit.NewReference(q, cat).Rows()))
	comp := &Compiler{Q: q, Cat: cat, Parallelism: 4}
	v, _, err := comp.CompileVec(vr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || want == 0 {
		t.Fatalf("parallel count = %d, reference count = %d", got, want)
	}
}
