package catalog

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestTableSchemaHelpers(t *testing.T) {
	tb := NewTable("t", "a", "b", "c")
	if off, err := tb.ColIndex("b"); err != nil || off != 1 {
		t.Fatalf("ColIndex = %d, %v", off, err)
	}
	if _, err := tb.ColIndex("zzz"); err == nil {
		t.Fatal("missing column accepted")
	}
	tb.AddIndex("c")
	tb.AddIndex("a")
	tb.AddIndex("c") // idempotent
	if len(tb.Indexes) != 2 || tb.Indexes[0] != 0 || tb.Indexes[1] != 2 {
		t.Fatalf("Indexes = %v", tb.Indexes)
	}
}

func TestAppendArityCheck(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch not caught")
		}
	}()
	tb.Append([]int64{1})
}

func TestAnalyze(t *testing.T) {
	tb := NewTable("t", "k", "v")
	for i := 0; i < 100; i++ {
		tb.Append([]int64{int64(i), int64(i % 5)})
	}
	tb.Analyze(8)
	if tb.NumRows != 100 {
		t.Fatalf("NumRows = %v", tb.NumRows)
	}
	if d := tb.Stats(0).Distinct; math.Abs(d-100) > 1 {
		t.Fatalf("distinct(k) = %v", d)
	}
	if d := tb.Stats(1).Distinct; math.Abs(d-5) > 0.5 {
		t.Fatalf("distinct(v) = %v", d)
	}
	if tb.Stats(0).Min != 0 || tb.Stats(0).Max != 99 {
		t.Fatalf("min/max = %d/%d", tb.Stats(0).Min, tb.Stats(0).Max)
	}
	if tb.Stats(0).Hist == nil {
		t.Fatal("histogram missing")
	}
}

func TestAnalyzeEmptyTable(t *testing.T) {
	tb := NewTable("t", "a")
	tb.Analyze(4)
	if tb.NumRows != 0 || tb.Stats(0).Distinct != 1 {
		t.Fatalf("empty analyze: rows=%v distinct=%v", tb.NumRows, tb.Stats(0).Distinct)
	}
}

func TestSetSyntheticStats(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.SetSyntheticStats(1000, []int64{50, 1000})
	if tb.NumRows != 1000 {
		t.Fatalf("rows = %v", tb.NumRows)
	}
	if tb.Stats(0).Distinct != 50 || tb.Stats(1).Distinct != 1000 {
		t.Fatalf("distincts = %v %v", tb.Stats(0).Distinct, tb.Stats(1).Distinct)
	}
	if tb.Stats(0).Hist == nil || tb.Stats(0).Hist.Total != 1000 {
		t.Fatal("synthetic histogram missing or mis-sized")
	}
}

func TestCatalogRegistry(t *testing.T) {
	c := New()
	c.Add(NewTable("a", "x"))
	c.Add(NewTable("b", "x"))
	c.Add(NewTable("a", "x", "y")) // replace keeps order
	if got := c.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names = %v", got)
	}
	tb, err := c.Table("a")
	if err != nil || len(tb.ColNames) != 2 {
		t.Fatalf("replaced table wrong: %v %v", tb, err)
	}
	if _, err := c.Table("zzz"); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestAnalyzeAll(t *testing.T) {
	c := New()
	tb := NewTable("t", "a")
	tb.Append([]int64{1})
	tb.Append([]int64{2})
	c.Add(tb)
	c.AnalyzeAll(4)
	if tb.NumRows != 2 {
		t.Fatalf("AnalyzeAll did not run: %v", tb.NumRows)
	}
}

func TestDataVersion(t *testing.T) {
	tb := NewTable("t", "a", "b")
	if tb.DataVersion() != 0 {
		t.Fatalf("fresh table at version %d", tb.DataVersion())
	}
	tb.Append([]int64{1, 2})
	v1 := tb.DataVersion()
	if v1 == 0 {
		t.Fatal("Append did not bump the data version")
	}
	// Reads — statistics included — leave the version alone.
	tb.Analyze(4)
	tb.ColumnSnapshot()
	_, _ = tb.ColIndex("a")
	if tb.DataVersion() != v1 {
		t.Fatal("read-only access bumped the data version")
	}
	tb.Append([]int64{3, 4})
	v2 := tb.DataVersion()
	if v2 <= v1 {
		t.Fatal("second Append did not bump the data version")
	}
	tb.ResetSnapshot(&storage.Snapshot{Cols: [][]int64{{5}, {6}}, N: 1})
	if tb.DataVersion() <= v2 {
		t.Fatal("ResetSnapshot did not bump the data version")
	}
	if cols, n := tb.ColumnSnapshot(); n != 1 || cols[0][0] != 5 || cols[1][0] != 6 {
		t.Fatalf("ResetSnapshot left %d rows, cols %v", n, cols)
	}
}

// TestAnalyzeDuringAppend: Analyze reads one captured snapshot, so it needs
// no quiescence from writers. While one goroutine appends fixed-size
// batches, every concurrent Analyze must describe a state that was actually
// published — a whole number of batches, with column statistics over exactly
// those rows — and once the writer is done, Analyze must equal a quiescent
// one over the same data. Run under -race (CI does).
func TestAnalyzeDuringAppend(t *testing.T) {
	const batch, batches = 37, 120
	gen := func(i int) []int64 { return []int64{int64(i), int64(i % 7)} }
	tb := NewTable("t", "k", "v")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < batches; b++ {
			rows := make([][]int64, batch)
			for i := range rows {
				rows[i] = gen(b*batch + i)
			}
			if err := tb.AppendRows(rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		tb.Analyze(8)
		n := int(tb.NumRows)
		if n%batch != 0 || n > batch*batches {
			t.Fatalf("Analyze saw %d rows: not a published snapshot (batches of %d)", n, batch)
		}
		if n == 0 {
			continue
		}
		// k is 0..n-1 in the first n rows: the statistics are over exactly
		// the rows counted, not a longer or shorter prefix.
		if k := tb.Stats(0); k.Min != 0 || k.Max != int64(n-1) || k.Hist.Total != float64(n) {
			t.Fatalf("NumRows %d but k spans [%d, %d] over %v rows", n, k.Min, k.Max, k.Hist.Total)
		}
	}

	quiet := NewTable("t", "k", "v")
	for i := 0; i < batch*batches; i++ {
		quiet.Append(gen(i))
	}
	quiet.Analyze(8)
	tb.Analyze(8)
	for c := range tb.ColNames {
		if got, want := tb.Stats(c), quiet.Stats(c); tb.NumRows != quiet.NumRows || !reflect.DeepEqual(got, want) {
			t.Fatalf("Analyze after concurrent appends differs from a quiescent one:\n%v %+v\n%v %+v",
				tb.NumRows, got, quiet.NumRows, want)
		}
	}
}

// TestBindDirFailureLeavesCatalogUnbound: when a later table's directory does
// not open, BindDir must not leave the earlier tables bound to stores the
// caller never got — their log files open, their generated rows replaced.
func TestBindDirFailureLeavesCatalogUnbound(t *testing.T) {
	build := func(base int64) *Catalog {
		c := New()
		for _, name := range []string{"a", "b"} {
			tb := NewTable(name, "k", "v")
			if err := tb.AppendRows([][]int64{{base, 1}, {base + 1, 2}}); err != nil {
				t.Fatal(err)
			}
			c.Add(tb)
		}
		c.AnalyzeAll(4)
		return c
	}
	dir := t.TempDir()
	seeded := build(10)
	if sum, err := seeded.BindDir(dir, 4); err != nil || sum.Seeded != 2 {
		t.Fatalf("seeding bind: %+v, %v", sum, err)
	}
	if err := seeded.FlushDir(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b", "MANIFEST.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	cat := build(70)
	a := cat.MustTable("a")
	version := a.DataVersion()
	if _, err := cat.BindDir(dir, 4); err == nil {
		t.Fatal("BindDir accepted a corrupt manifest")
	}
	for _, name := range cat.Names() {
		if kind := cat.MustTable(name).Store().Kind(); kind != "mem" {
			t.Errorf("table %s is bound to a %s store after a failed BindDir", name, kind)
		}
	}
	if cols, n := a.ColumnSnapshot(); n != 2 || cols[0][0] != 70 || a.DataVersion() != version {
		t.Errorf("table a serves disk content after a failed BindDir: %d rows, first key %d, version %d (was %d)",
			n, cols[0][0], a.DataVersion(), version)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			t.Errorf("%s is still open after a failed BindDir", target)
		}
	}
}
