package linearroad

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/storage"
)

type bag map[[NumCols]int64]int

// oracle recomputes the five window contents of SegTollS from the whole
// stream so far, a row at a time. It shares no code with timeWindow/lastN.
func oracle(hist [][]int64, w1Span, w4Span int64) [5]bag {
	out := [5]bag{{}, {}, {}, {}, {}}
	if len(hist) == 0 {
		return out
	}
	now := hist[len(hist)-1][ColTime]
	for _, r := range hist {
		if r[ColTime] > now-w1Span {
			out[0][[NumCols]int64(r)]++
		}
		if r[ColTime] > now-w4Span {
			out[3][[NumCols]int64(r)]++
		}
	}
	lastOf := func(n int, into bag, key func(r []int64) [3]int64) {
		held := map[[3]int64][][]int64{}
		for _, r := range hist {
			k := key(r)
			if held[k] = append(held[k], r); len(held[k]) > n {
				held[k] = held[k][1:]
			}
		}
		for _, rs := range held {
			for _, r := range rs {
				into[[NumCols]int64(r)]++
			}
		}
	}
	lastOf(1, out[1], func(r []int64) [3]int64 { return [3]int64{r[ColExpway], r[ColDir], r[ColSeg]} })
	lastOf(1, out[2], func(r []int64) [3]int64 { return [3]int64{r[ColCarID]} })
	lastOf(4, out[4], func(r []int64) [3]int64 { return [3]int64{r[ColCarID]} })
	return out
}

// published captures the five window tables' current snapshots.
func published(w *Windows) (snaps [5]*storage.Snapshot) {
	for i, name := range WindowTables {
		snaps[i] = w.Catalog().MustTable(name).Store().Snapshot()
	}
	return snaps
}

func bagOf(snap *storage.Snapshot) bag {
	b := bag{}
	for _, r := range rowsOf(snap) {
		b[[NumCols]int64(r)]++
	}
	return b
}

// TestWindowsMatchRowOracle replays a 200-slice seeded stream, with two
// bursts, through column-resident windows and checks every window table
// against the oracle after every slice. A snapshot captured at one slice is
// read again after the next Ingest+Materialize and must not have changed:
// executions (and TestDiskStoreScanConcurrentResetRows) rely on published
// columns being immutable.
func TestWindowsMatchRowOracle(t *testing.T) {
	const w1Span, w4Span = 20, 5
	gen := NewGen(9, 80)
	win := NewWindowsSpans(w1Span, w4Span)
	var hist [][]int64
	var prev [5]*storage.Snapshot
	var prevWant [5]bag
	var boundary, replaced bool
	grown, lastCap := 0, 0
	perCar := map[int64]int{}
	for s := int64(0); s < 200; s++ {
		slice := gen.Slice(s, s+1)
		if s == 60 || s == 140 {
			// A burst: thirty times the reports in one second.
			for k, one := 0, slice; k < 30; k++ {
				slice = append(slice, one...)
			}
		}
		hist = append(hist, slice...)
		win.Ingest(slice)
		win.Materialize()

		want := oracle(hist, w1Span, w4Span)
		snaps := published(win)
		for i, name := range WindowTables {
			if got := bagOf(snaps[i]); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("slice %d: %s holds %d distinct rows, oracle %d", s, name, len(got), len(want[i]))
			}
			if s > 0 && !reflect.DeepEqual(bagOf(prev[i]), prevWant[i]) {
				t.Fatalf("slice %d: the %s snapshot published at slice %d changed under its reader", s, name, s-1)
			}
		}
		prev, prevWant = snaps, want

		// Coverage of the cases the differential is there for.
		for _, r := range slice {
			perCar[r[ColCarID]]++
			replaced = replaced || perCar[r[ColCarID]] > 4
		}
		if len(slice) > 0 {
			for _, r := range hist {
				boundary = boundary || r[ColTime] == slice[0][ColTime]-w1Span
			}
		}
		if c := cap(win.w1.cols[0]); c != lastCap {
			grown, lastCap = grown+1, c
		}
	}
	if !boundary || !replaced || grown < 3 {
		t.Fatalf("stream too tame: row exactly at now-span %v, full last-N key replaced %v, w1 grew %d times", boundary, replaced, grown)
	}
}

// replay ingests and materializes slices [from, to) of a seeded stream and
// returns the time and bytes the Materialize calls took.
func replay(win *Windows, gen *Gen, from, to int64) (d time.Duration, bytes uint64) {
	var before, after runtime.MemStats
	for s := from; s < to; s++ {
		win.Ingest(gen.Slice(s, s+1))
		runtime.ReadMemStats(&before)
		start := time.Now()
		win.Materialize()
		d += time.Since(start)
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	return d, bytes
}

// TestMaterializeAllocCeiling: a steady-state Materialize allocates at most
// 1.25x the bytes it publishes (8 B a value) — the last-N windows' one copy
// per column and a few headers; the time windows are zero-copy. A row-major
// intermediate, a transposition or an eager histogram each add a full copy.
func TestMaterializeAllocCeiling(t *testing.T) {
	gen, win := NewGen(5, 200), NewWindows()
	replay(win, gen, 0, 90)
	_, bytes := replay(win, gen, 90, 91)
	values := 0
	for _, name := range WindowTables {
		cols, n := win.Catalog().MustTable(name).ColumnSnapshot()
		values += n * len(cols)
	}
	t.Logf("Materialize allocated %d B publishing %d values (%.2fx of 8 B a value)", bytes, values, float64(bytes)/float64(8*values))
	if values == 0 || float64(bytes) > 1.25*8*float64(values) {
		t.Fatalf("Materialize allocated %d B to publish %d values", bytes, values)
	}
}

// BenchmarkWindowsMaterialize replays 100 slices of the stream per iteration
// and reports what one slice's Materialize costs.
func BenchmarkWindowsMaterialize(b *testing.B) {
	const slices = 100
	var d time.Duration
	var bytes uint64
	for i := 0; i < b.N; i++ {
		dd, bb := replay(NewWindows(), NewGen(7, 150), 0, slices)
		d, bytes = d+dd, bytes+bb
	}
	n := float64(b.N * slices)
	b.ReportMetric(float64(d.Nanoseconds())/n, "ns/slice")
	b.ReportMetric(float64(bytes)/n, "B/slice")
}
