package catalog_test

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/linearroad"
	"repro/internal/stats"
	"repro/internal/testkit"
	"repro/internal/tpch"
)

// eager is what Analyze used to compute on the spot: the statistics of one
// column over its first n rows.
func eager(col []int64, n, buckets int) catalog.ColStats {
	if n == 0 {
		return catalog.ColStats{Distinct: 1}
	}
	h := stats.BuildHistogram(col[:n], buckets)
	return catalog.ColStats{Distinct: h.Distinct(), Min: h.Min(), Max: h.Max(), Hist: h}
}

// TestLazyStatsEqualEager: a statistic built on first read is the one an
// eager Analyze would have stored — for every column of the TPC-H catalog
// and of a materialized stream window — and keeps describing the analyzed
// rows when the table has grown since.
func TestLazyStatsEqualEager(t *testing.T) {
	check := func(cat *catalog.Catalog, buckets int) {
		t.Helper()
		for _, name := range cat.Names() {
			tb := cat.MustTable(name)
			cols, n := tb.ColumnSnapshot()
			if tb.Rows() != float64(n) || tb.NumRows != float64(n) {
				t.Fatalf("%s: analyzed %v rows, snapshot has %d", name, tb.Rows(), n)
			}
			for c := range cols {
				if got, want := tb.Stats(c), eager(cols[c], n, buckets); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s.%s: lazy %+v, eager %+v", name, tb.ColNames[c], got, want)
				}
			}
		}
	}
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.005, Seed: 7})
	check(cat, catalog.DefaultHistogramBuckets)

	win := linearroad.NewWindows()
	win.Ingest(linearroad.NewGen(4, 60).Slice(0, 90))
	win.Materialize()
	check(win.Catalog(), 16)

	// Grown since Analyze, one column read before the append and one after:
	// both describe the analyzed rows, not the appended ones.
	orders := cat.MustTable("orders")
	cols, n := orders.ColumnSnapshot()
	orders.Analyze(8)
	before := orders.Stats(0)
	grow := testkit.Row(orders, 0)
	for c := range grow {
		grow[c] = 1 << 40
	}
	if err := orders.AppendRows([][]int64{grow, grow}); err != nil {
		t.Fatal(err)
	}
	if orders.Rows() != float64(n) {
		t.Fatalf("append moved the analyzed row count to %v", orders.Rows())
	}
	if got := orders.Stats(0); !reflect.DeepEqual(got, before) {
		t.Fatalf("a built statistic changed under an append: %+v", got)
	}
	if got, want := orders.Stats(1), eager(cols[1], n, 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("first read after an append: %+v, want the analyzed %d rows' %+v", got, n, want)
	}
	orders.Analyze(8)
	if got := orders.Stats(1); got.Max != 1<<40 || got.Hist.Total != float64(n+2) {
		t.Fatalf("re-Analyze did not pick the appended rows up: %+v", got)
	}

	// Never analyzed: the zero statistics.
	if got := catalog.NewTable("t", "a").Stats(0); !reflect.DeepEqual(got, catalog.ColStats{}) {
		t.Fatalf("never-analyzed table reports %+v", got)
	}
}

// TestLazyStatsDoNotPinSnapshot: a pending statistic remembers a row count,
// not the snapshot it was dated on. Load a table, Analyze it, append one row
// — every column grows by copy — and collect: the heap may hold one copy of
// the data plus growCap's quarter of headroom (measured 1.25x), not the
// superseded arrays beside it (2.25x for an Analyze that keeps the snapshot
// pointer until somebody reads).
func TestLazyStatsDoNotPinSnapshot(t *testing.T) {
	const rows, width = 200_000, 4
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	tb := catalog.NewTable("t", "a", "b", "c", "d")
	func() {
		flat := make([]int64, rows*width)
		batch := make([][]int64, rows)
		for i := range batch {
			batch[i] = flat[i*width : (i+1)*width]
			batch[i][0], batch[i][1] = int64(i), int64(i%97)
		}
		if err := tb.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
	}()
	tb.Analyze(0)
	old, _ := tb.ColumnSnapshot()
	tb.Append(make([]int64, width))
	if now, _ := tb.ColumnSnapshot(); &now[0][0] == &old[0][0] {
		t.Fatal("the append did not grow the columns by copy; the test measures nothing")
	}
	old = nil
	grew, data := heap()-before, int64(8*(rows+1)*width)
	t.Logf("heap grew %d B for %d B of data (%.2fx)", grew, data, float64(grew)/float64(data))
	if grew > data*13/10 {
		t.Fatalf("heap grew %d B for %d B of data: the analyzed snapshot is still held", grew, data)
	}
	if cs := tb.Stats(1); cs.Distinct != 97 || cs.Hist.Total != rows {
		t.Fatalf("statistics after the append: %+v", cs)
	}
}

// TestPlanWhileAnalyzing: planners build cost models over a table while a
// writer appends to it and re-Analyzes. Statistics have one locked owner, so
// this is race-free (run under -race; CI does) and every model sees the
// statistics of some Analyze, whole.
func TestPlanWhileAnalyzing(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 3})
	orders := cat.MustTable("orders")
	q := tpch.Q3S()
	done := make(chan struct{})
	var models atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				m, err := cost.NewModel(q, cat, cost.DefaultParams())
				if err != nil {
					t.Error(err)
					return
				}
				if c := m.Card(q.AllRels()); !(c > 0) {
					t.Errorf("Card = %v", c)
					return
				}
				models.Add(1)
			}
		}()
	}
	batch := [][]int64{testkit.Row(orders, 0), testkit.Row(orders, 1)}
	for i := 0; i < 200 || (models.Load() < 400 && !t.Failed()); i++ {
		if err := orders.AppendRows(batch); err != nil {
			t.Error(err)
			break
		}
		orders.Analyze(0)
	}
	close(done)
	wg.Wait()
	if _, n := orders.ColumnSnapshot(); orders.Rows() != float64(n) {
		t.Fatalf("analyzed %v rows of %d", orders.Rows(), n)
	}
}
