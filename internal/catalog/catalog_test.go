package catalog

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

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
	before := map[string]*storage.Store{}
	for _, name := range cat.Names() {
		before[name] = cat.MustTable(name).Store()
	}
	if _, err := cat.BindDir(dir, 4); err == nil {
		t.Fatal("BindDir accepted a corrupt manifest")
	}
	for _, name := range cat.Names() {
		if cat.MustTable(name).Store() != before[name] {
			t.Errorf("table %s is bound to another store after a failed BindDir", name)
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

// boundTable returns a catalog holding the table t(k, v), clustered on k and
// bound to a store in dir: rows with keys [base, base+4) flushed as a
// segment, then a fifth row in the log. Its data version is 2.
func boundTable(t *testing.T, dir string, base int64) (*Catalog, *Table) {
	t.Helper()
	c := New()
	tb := NewTable("t", "k", "v")
	tb.SortedBy = 0
	c.Add(tb)
	if err := tb.AppendRows([][]int64{{base, 1}, {base + 1, 2}, {base + 2, 3}, {base + 3, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BindDir(dir, 4); err != nil {
		t.Fatal(err)
	}
	if err := tb.Store().Flush(tb.DataVersion()); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendRows([][]int64{{base + 4, 5}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.Store().Close() })
	return c, tb
}

// TestPinIsTheContent: a Pin holds exactly while the table's snapshot has
// the recorded epoch and row count — across a flush, which republishes the
// same rows with their zone maps, across Analyze and across an empty
// append, and not after a one-row append, a reset to as many other rows, or
// a bind to a directory flushed at the table's own data version.
func TestPinIsTheContent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(t *testing.T, c *Catalog, tb *Table)
		holds  bool
	}{
		{"flush", func(t *testing.T, c *Catalog, tb *Table) {
			before := tb.Store().Snapshot()
			if err := tb.Store().Flush(tb.DataVersion()); err != nil {
				t.Fatal(err)
			}
			if tb.Store().Snapshot() == before {
				t.Fatal("the flush republished no snapshot")
			}
		}, true},
		{"FlushDir", func(t *testing.T, c *Catalog, tb *Table) {
			if err := c.FlushDir(); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"Analyze", func(t *testing.T, c *Catalog, tb *Table) {
			tb.Analyze(4)
			tb.Stats(0)
		}, true},
		{"empty append", func(t *testing.T, c *Catalog, tb *Table) {
			if err := tb.AppendRows(nil); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"one-row append", func(t *testing.T, c *Catalog, tb *Table) {
			if err := tb.AppendRows([][]int64{{99, 9}}); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"reset with equal N", func(t *testing.T, c *Catalog, tb *Table) {
			_, n := tb.ColumnSnapshot()
			other := &storage.Snapshot{Cols: [][]int64{make([]int64, n), make([]int64, n)}, N: n}
			tb.ResetSnapshot(other)
		}, false},
		{"BindDir at an equal data version", func(t *testing.T, c *Catalog, tb *Table) {
			dir := t.TempDir()
			other, _ := boundTable(t, dir, 100)
			if err := other.FlushDir(); err != nil {
				t.Fatal(err)
			}
			version, old := tb.DataVersion(), tb.Store()
			if _, err := c.BindDir(dir, 4); err != nil {
				t.Fatal(err)
			}
			old.Close()
			if cols, _ := tb.ColumnSnapshot(); cols[0][0] != 100 || tb.DataVersion() != version {
				t.Fatalf("the bind loaded key %d at data version %d; want key 100 at %d", cols[0][0], tb.DataVersion(), version)
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, tb := boundTable(t, t.TempDir(), 0)
			pin := NewPin([]*Table{tb})
			pin.Record()
			if !pin.Holds() {
				t.Fatal("a pin does not hold before any change")
			}
			tc.change(t, c, tb)
			if got := pin.Holds(); got != tc.holds {
				t.Fatalf("after the change the pin holds: %v, want %v", got, tc.holds)
			}
		})
	}
}

// whileLocked runs read with mu held, as AppendRows holds it across its
// store's log write and fsync, and fails unless read returns within a
// second.
func whileLocked(t *testing.T, mu *sync.Mutex, what string, read func()) {
	t.Helper()
	mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		read()
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Errorf("%s waited for the writers' lock", what)
	}
	mu.Unlock()
	<-done
}

// TestTableReadersNeverWait: what an execution reads of a table — its
// store, its column snapshot, a Pin's Record and Holds — never takes the
// lock its writers hold, so no reader waits for an append's fsync.
func TestTableReadersNeverWait(t *testing.T) {
	_, tb := boundTable(t, t.TempDir(), 0)
	pin := NewPin([]*Table{tb})
	whileLocked(t, &tb.mu, "Table.Store", func() { tb.Store() })
	whileLocked(t, &tb.mu, "ColumnSnapshot", func() {
		if _, n := tb.ColumnSnapshot(); n != 5 {
			t.Errorf("ColumnSnapshot under the lock: %d rows, want 5", n)
		}
	})
	whileLocked(t, &tb.mu, "Pin.Record", pin.Record)
	whileLocked(t, &tb.mu, "Pin.Holds", func() {
		if !pin.Holds() {
			t.Error("a pin recorded under the lock does not hold")
		}
	})
}
