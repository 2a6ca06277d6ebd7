package exec

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestSpillDirRedirectsPartitionFiles runs the forced-recursion join with the
// spill directory redirected away from the system default: the run must spill
// and still match the unbounded result, proving the redirected directory was
// actually used and usable. (Partition files are unlinked at creation, so an
// empty directory afterwards is the expected state, not an error.)
func TestSpillDirRedirectsPartitionFiles(t *testing.T) {
	build, probe := spillJoinInputs(65536, 512, 1000)
	want, _ := runTrackedJoin(t, build, probe, 0)

	dir := t.TempDir()
	j := NewVecHashJoin(NewVecScanRows(build, ScanFilter{}), NewVecScanRows(probe, ScanFilter{}),
		[]int{0}, []int{0}, nil, seq(2), seq(2))
	tr := NewMemTracker(32 << 10)
	tr.SetSpillDir(dir)
	j.(*vecHashJoinOp).mem = tr.Child()
	got, err := DrainVec(j)
	if err != nil {
		t.Fatalf("join with redirected spill dir: %v", err)
	}
	if rowMultiset(got) != rowMultiset(want) {
		t.Fatalf("redirected spill join multiset differs: %d rows vs %d unbounded", len(got), len(want))
	}
	if parts, _, _ := tr.SpillStats(); parts == 0 {
		t.Fatal("join never spilled; the redirect was not exercised")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill files leaked into the redirected directory: %v", ents)
	}
}

// failAfter hands on n batches of its input, then fails.
type failAfter struct {
	VecIterator
	n int
}

var errProbeFailed = errors.New("probe child failed")

func (f *failAfter) Next() (*Batch, error) {
	if f.n == 0 {
		return nil, errProbeFailed
	}
	f.n--
	return f.VecIterator.Next()
}

// TestSpillDirErrorSurfacesAsQueryError points the spill directory at a path
// that cannot hold files: the first partition write must fail the query with
// an error — not a panic, not a hang — and the error must name the failure.
// A probe child that fails while the join routes it into partitions must
// surface its own error. Every failed query leaves its tracker at 0 bytes.
func TestSpillDirErrorSurfacesAsQueryError(t *testing.T) {
	build, probe := spillJoinInputs(65536, 512, 1000)
	bogus := filepath.Join(t.TempDir(), "does", "not", "exist")
	run := func(name string, v VecIterator, mem **MemTracker, dir string) error {
		t.Helper()
		tr := NewMemTracker(32 << 10)
		tr.SetSpillDir(dir)
		*mem = tr.Child()
		_, err := DrainVec(v)
		if err == nil {
			t.Fatalf("%s: the failing spill did not surface as a query error", name)
		}
		if tr.Used() != 0 {
			t.Fatalf("%s: %d bytes still charged after the failed query", name, tr.Used())
		}
		return err
	}
	j := NewVecHashJoin(NewVecScanRows(build, ScanFilter{}), NewVecScanRows(probe, ScanFilter{}),
		[]int{0}, []int{0}, nil, seq(2), seq(2)).(*vecHashJoinOp)
	run("join, unwritable directory", j, &j.mem, bogus)

	j = NewVecHashJoin(NewVecScanRows(build, ScanFilter{}), &failAfter{NewVecScanRows(build, ScanFilter{}), 2},
		[]int{0}, []int{0}, nil, seq(2), seq(2)).(*vecHashJoinOp)
	if err := run("join, failing probe child", j, &j.mem, t.TempDir()); !errors.Is(err, errProbeFailed) {
		t.Fatalf("join, failing probe child: error %v, want the probe child's", err)
	}

	// A budgeted aggregation that has to dump partials hits the bad directory
	// too.
	input := make([][]int64, 60000)
	for i := range input {
		input[i] = []int64{int64(i % 8000), int64(i % 4), int64(i % 100)}
	}
	a := NewVecHashAgg(NewVecScanRows(input, ScanFilter{}), AggSpecExec{GroupBy: []int{0, 1}, Sums: []int{2}}).(*vecHashAggOp)
	run("aggregation, unwritable directory", a, &a.mem, bogus)
}

// TestCompilerSpillDirPropagates: the spill directory set on the tracker a
// Compiler carries must reach the child trackers the operators consult.
func TestCompilerSpillDirPropagates(t *testing.T) {
	dir := t.TempDir()
	c := &Compiler{Mem: NewMemTracker(1 << 20)}
	c.Mem.SetSpillDir(dir)
	if got := c.Mem.Child().SpillDir(); got != dir {
		t.Fatalf("child tracker spill dir = %q, want %q", got, dir)
	}
}
