package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/testkit"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

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

func TestParallelScanMatchesSerial(t *testing.T) {
	n := 10*morselSize + 123
	data := make([][]int64, n)
	for i := range data {
		data[i] = []int64{int64(i), int64(i % 7)}
	}
	filter := ScanFilter{Conds: []ScanCond{{Off: 1, Op: relalg.CmpLT, Val: 3}}}
	serial, err := DrainVec(NewVecScanRows(data, filter))
	if err != nil {
		t.Fatal(err)
	}
	cols := transposeRows(data, 2)
	for _, workers := range []int{2, 4, 13} {
		par, err := DrainVec(NewParallelScan(cols.cols, cols.n, filter, workers))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rowMultiset(par), rowMultiset(serial); got != want {
			t.Fatalf("workers=%d: parallel scan multiset differs from serial", workers)
		}
	}
}

func TestParallelScanEarlyClose(t *testing.T) {
	data := make([][]int64, 50*morselSize)
	for i := range data {
		data[i] = []int64{int64(i)}
	}
	cols := transposeRows(data, 1)
	v := NewParallelScan(cols.cols, cols.n, ScanFilter{}, 4)
	if err := v.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Next(); err != nil {
		t.Fatal(err)
	}
	// Close with most batches unconsumed: workers must unblock and exit.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
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
	v := NewVecHashJoin(NewVecScanRows(build, ScanFilter{}), NewVecScanRows(probe, ScanFilter{}), []int{0}, []int{0}, nil, seq(2), seq(2), 1)
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
	bounded := NewVecHashJoin(&weightedIter{n: 4}, scan(), []int{0}, []int{0}, nil, nil, seq(1), 1).(*vecHashJoinOp)
	bounded.mem = NewMemTracker(1 << 20).Child("hashjoin")
	spilled := NewVecHashJoin(&weightedIter{n: 4}, scan(), []int{0}, []int{0}, nil, nil, seq(1), 1).(*vecHashJoinOp)
	spilled.mem = NewMemTracker(8).Child("hashjoin")
	spilledProbe := NewVecHashJoin(scan(), &weightedIter{n: 4}, []int{0}, []int{0}, nil, seq(1), seq(1), 1).(*vecHashJoinOp)
	spilledProbe.mem = NewMemTracker(8).Child("hashjoin")
	for name, v := range map[string]VecIterator{
		"result":                      &weightedIter{n: 4},
		"sort":                        NewVecSort(&weightedIter{n: 4}, 0),
		"merge join, left":            NewVecMergeJoin(&weightedIter{n: 4}, scan(), 0, 0, nil, seq(1), seq(1)),
		"merge join, right":           NewVecMergeJoin(scan(), &weightedIter{n: 4}, 0, 0, nil, seq(1), seq(1)),
		"hash join build":             NewVecHashJoin(&weightedIter{n: 4}, scan(), []int{0}, []int{0}, nil, nil, seq(1), 1),
		"hash join build, bounded":    bounded,
		"hash join build, spilling":   spilled,
		"enumerating hash join probe": NewVecHashJoin(scan(), &weightedIter{n: 4}, []int{0}, []int{0}, nil, seq(1), seq(1), 1),
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

// TestVecHashJoinOpenErrorReleasesProbe: when draining the build side fails
// (unsorted merge join below), the already-opened probe side — including
// parallel scan workers — must be released rather than leaked.
func TestVecHashJoinOpenErrorReleasesProbe(t *testing.T) {
	probeData := make([][]int64, 8*morselSize)
	for i := range probeData {
		probeData[i] = []int64{int64(i)}
	}
	unsorted := rows([]int64{2}, []int64{1})
	sorted := rows([]int64{1})
	build := NewVecMergeJoin(NewVecScanRows(unsorted, ScanFilter{}), NewVecScanRows(sorted, ScanFilter{}), 0, 0, nil, seq(1), seq(1))
	before := runtime.NumGoroutine()
	probeCols := transposeRows(probeData, 1)
	j := NewVecHashJoin(build, NewParallelScan(probeCols.cols, probeCols.n, ScanFilter{}, 4), []int{0}, []int{0}, nil, seq(2), seq(1), 1)
	if err := j.Open(); err == nil {
		t.Fatal("unsorted build input accepted")
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("probe-side workers leaked: %d goroutines, started with %d",
		runtime.NumGoroutine(), before)
}

// ---- differential test: executor vs reference evaluator, TPC-H workload ----

func rowMultiset(rows []Row) string { return testkit.Canonical(rows, nil) }

// TestTPCHReferenceDifferential executes every TPC-H workload query at every
// parallelism level (serial, and with fused parallel pipelines plus
// morsel-driven scans at 2 and 4 workers) and asserts that the result
// multiset and the RunStats feedback cardinality of every scan and join
// operator equal what testkit.Reference computes from the logical query
// alone — the proof that the §5.4 adaptive loop sees correct, byte-identical
// feedback at any parallelism. The reference shares no code with the
// compiler, so a wrong key set or a dropped residual fails here instead of
// agreeing with itself. Run under -race (the CI race shard) this also
// exercises the pipeline workers, partitioned build, and exchange machinery
// for data races.
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

// TestCompileParallelCountMatches runs a query end to end via CountVec under
// parallel scans — the aqp.RunSlice code path.
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
