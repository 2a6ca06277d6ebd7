package exec

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/linearroad"
	"repro/internal/relalg"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// ---- expression kernel unit tests ----

func TestGather(t *testing.T) {
	src := []int64{10, 20, 30, 40, 50}
	dst := make([]int64, 3)
	Gather(dst, src, []int32{4, 0, 2})
	if dst[0] != 50 || dst[1] != 10 || dst[2] != 30 {
		t.Fatalf("Gather = %v", dst)
	}
	// Empty index vector: no writes, no panic.
	Gather(dst[:0], src, nil)
	// Full-batch identity gather.
	full := make([]int64, len(src))
	idx := make([]int32, len(src))
	for i := range idx {
		idx[i] = int32(i)
	}
	Gather(full, src, idx)
	for i := range src {
		if full[i] != src[i] {
			t.Fatalf("identity gather differs at %d", i)
		}
	}
}

// ---- property test: columnar selection vs row-at-a-time evaluation ----

// TestSelColsMatchesRowClosures drives ScanFilter.selRange over random
// row ranges of random column-major chunks with random condition sets and
// checks the selected row set against evaluating every condition with
// CmpOp.Eval one row at a time. Also pins the empty-selection and
// full-batch edges.
func TestSelColsMatchesRowClosures(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Values in [0, 20) and the extremes, so comparisons meet both ends of
	// the int64 range.
	value := func() int64 {
		if v := rng.Intn(24); v < 20 {
			return int64(v)
		}
		return extremes[rng.Intn(len(extremes))]
	}
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(4)
		n := rng.Intn(2 * BatchSize)
		cols := make([][]int64, width)
		for c := range cols {
			cols[c] = make([]int64, n)
			for i := range cols[c] {
				cols[c][i] = value()
			}
		}
		nconds := rng.Intn(4)
		conds := make([]ScanCond, nconds)
		for k := range conds {
			conds[k] = ScanCond{Off: rng.Intn(width),
				Op: allOps[rng.Intn(len(allOps))], Val: value()}
		}
		filter := ScanFilter{Conds: conds}

		lo := rng.Intn(n + 1)
		got := filter.selRange(cols, lo, n, nil)
		want := make([]int, 0, n)
		for i := lo; i < n; i++ {
			keep := true
			for _, c := range conds {
				if !c.Op.Eval(cols[c.Off][i], c.Val) {
					keep = false
					break
				}
			}
			if keep {
				want = append(want, i-lo)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: selected %d rows, row closures keep %d",
				trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: selection[%d] = %d, want %d",
					trial, k, got[k], want[k])
			}
		}
	}

	// Edges: a contradiction selects nothing; a tautology selects all rows
	// in order; the no-condition filter is dense.
	col := []int64{3, 1, 4, 1, 5}
	cols := [][]int64{col}
	empty := ScanFilter{Conds: []ScanCond{
		{Off: 0, Op: relalg.CmpLT, Val: 2},
		{Off: 0, Op: relalg.CmpGT, Val: 2},
	}}.selRange(cols, 0, len(col), nil)
	if len(empty) != 0 {
		t.Fatalf("contradictory filter selected %v", empty)
	}
	full := ScanFilter{Conds: []ScanCond{{Off: 0, Op: relalg.CmpGE, Val: 0}}}.
		selRange(cols, 0, len(col), nil)
	if len(full) != len(col) {
		t.Fatalf("tautological filter selected %d of %d rows", len(full), len(col))
	}
	for i := range full {
		if full[i] != i {
			t.Fatalf("tautological selection out of order: %v", full)
		}
	}
	dense := ScanFilter{}.selRange(cols, 0, len(col), nil)
	if len(dense) != len(col) {
		t.Fatalf("empty filter selected %d rows", len(dense))
	}
}

var (
	allOps   = []relalg.CmpOp{relalg.CmpEQ, relalg.CmpNE, relalg.CmpLT, relalg.CmpLE, relalg.CmpGT, relalg.CmpGE}
	extremes = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
)

// staleBufs returns selection buffers of capacity 0, below n and at least n,
// the last two holding stale indexes a kernel must overwrite or ignore.
func staleBufs(n int) [][]int {
	bufs := [][]int{nil}
	for _, c := range []int{n / 2, n + 3} {
		buf := make([]int, c)
		for i := range buf {
			buf[i] = -7
		}
		bufs = append(bufs, buf[:0])
	}
	return bufs
}

// TestSelectionKernelsMatchScalar checks the branch-free selection kernels —
// condSelDense, condSelRefine and the residual pass filterPairs — against
// CmpOp.Eval one row at a time: every operator, the int64 extremes, all-equal
// and alternating columns, batch sizes around BatchSize, selection buffers of
// every capacity holding stale indexes, and residual operands on each side
// with offsets that wrap.
func TestSelectionKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{0, 1, BatchSize - 1, BatchSize, BatchSize + 1} {
		columns := map[string][]int64{}
		for _, name := range []string{"extremes", "equal", "alternating"} {
			col := make([]int64, n)
			for i := range col {
				switch name {
				case "extremes":
					col[i] = extremes[rng.Intn(len(extremes))]
				case "equal":
					col[i] = -1
				case "alternating":
					col[i] = []int64{math.MinInt64, math.MaxInt64}[i%2]
				}
			}
			columns[name] = col
		}
		for name, col := range columns {
			for _, op := range allOps {
				for _, val := range extremes {
					var want []int
					for i, v := range col {
						if op.Eval(v, val) {
							want = append(want, i)
						}
					}
					for _, buf := range staleBufs(n) {
						got := condSelDense(col, n, op, val, buf)
						if !slices.Equal(got, want) {
							t.Fatalf("condSelDense n=%d %s %v %d (buffer cap %d): %v, want %v", n, name, op, val, cap(buf), got, want)
						}
					}
					// Refine a random ascending subset, held in a buffer with a stale tail.
					var sub, wantRef []int
					for i := range col {
						if rng.Intn(3) > 0 {
							sub = append(sub, i)
							if op.Eval(col[i], val) {
								wantRef = append(wantRef, i)
							}
						}
					}
					in := append(make([]int, 0, len(sub)+5), sub...)
					got := condSelRefine(col, op, val, append(in, -7, -7)[:len(sub)])
					if !slices.Equal(got, wantRef) {
						t.Fatalf("condSelRefine n=%d %s %v %d: %v, want %v", n, name, op, val, got, wantRef)
					}
				}
			}
		}

		// Residuals: two build and two probe columns, pairs drawn with
		// repetition, every side combination, offsets at the extremes.
		build := colData{cols: [][]int64{make([]int64, n+1), make([]int64, n+1)}, n: n + 1}
		probeCols := [][]int64{make([]int64, n+1), make([]int64, n+1)}
		for _, col := range append(slices.Clone(build.cols), probeCols...) {
			for i := range col {
				col[i] = extremes[rng.Intn(len(extremes))]
			}
		}
		pb, pp := make([]int32, n), make([]int32, n)
		for x := range pb {
			pb[x], pp[x] = int32(rng.Intn(n+1)), int32(rng.Intn(n+1))
		}
		value := func(c int, x int) int64 {
			if c < 2 {
				return build.cols[c][pb[x]]
			}
			return probeCols[c-2][pp[x]]
		}
		check := func(preds []ColPred) {
			var want [][2]int32
			for x := range pb {
				keep := true
				for _, p := range preds {
					keep = keep && p.Op.Eval(value(p.L, x), value(p.R, x)+p.Off)
				}
				if keep {
					want = append(want, [2]int32{pb[x], pp[x]})
				}
			}
			gb, gp := filterPairs(preds, &build, probeCols, slices.Clone(pb), slices.Clone(pp))
			if len(gb) != len(want) || len(gp) != len(want) {
				t.Fatalf("filterPairs n=%d %+v: %d pairs, want %d", n, preds, len(gb), len(want))
			}
			for x := range want {
				if [2]int32{gb[x], gp[x]} != want[x] {
					t.Fatalf("filterPairs n=%d %+v: pair %d = (%d, %d), want %v", n, preds, x, gb[x], gp[x], want[x])
				}
			}
		}
		for _, op := range allOps {
			for _, off := range extremes {
				for _, l := range []int{0, 2} { // build, probe
					for _, r := range []int{1, 3} {
						check([]ColPred{{L: l, R: r, Op: op, Off: off}})
					}
				}
			}
		}
		for range 50 {
			preds := make([]ColPred, 1+rng.Intn(3))
			for k := range preds {
				preds[k] = ColPred{L: rng.Intn(4), R: rng.Intn(4), Op: allOps[rng.Intn(len(allOps))],
					Off: extremes[rng.Intn(len(extremes))]}
			}
			check(preds)
		}
	}
}

// TestAddBatchWeighted: a chunk with a multiplicity vector folds into the
// aggregation exactly as the rows it stands for would one by one — COUNT(*)
// and SUM scale, COUNT(DISTINCT) does not — dense and under a selection, for
// one-, two- and three-column group keys.
func TestAddBatchWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := BatchSize
	cols := make([][]int64, 5)
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = int64(rng.Intn(6))
		}
	}
	mult := make([]int64, n)
	var sel []int
	for i := range mult {
		mult[i] = int64(1 + rng.Intn(4))
		if rng.Intn(3) > 0 {
			sel = append(sel, i)
		}
	}
	for gw := 1; gw <= 3; gw++ {
		spec := AggSpecExec{GroupBy: []int{0, 1, 2}[:gw], Sums: []int{3}, CountAll: true, CountDistinct: []int{4}}
		for _, sel := range [][]int{nil, sel} {
			weighted, scalar := newAggTable(spec), newAggTable(spec)
			var scratch aggScratch
			weighted.addBatch(cols, n, sel, mult, &scratch)
			live := sel
			if live == nil {
				live = seq(n)
			}
			row := make(Row, len(cols))
			for _, i := range live {
				for c := range cols {
					row[c] = cols[c][i]
				}
				for k := int64(0); k < mult[i]; k++ {
					scalar.add(row)
				}
			}
			if got, want := rowMultiset(weighted.rows()), rowMultiset(scalar.rows()); got != want {
				t.Fatalf("group width %d, selection %v: weighted chunk gives\n%s\nits rows one by one\n%s", gw, sel != nil, got, want)
			}
			// addBatch also holds a direct map of 4 B a cell over the one
			// batch's key box, which add never builds.
			cells := int64(1)
			for c := range spec.GroupBy {
				lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
				for _, i := range live {
					lo, hi = min(lo, cols[c][i]), max(hi, cols[c][i])
				}
				cells *= hi - lo + 1
			}
			if want := scalar.approxBytes() + 4*cells; weighted.dn != scalar.dn || weighted.approxBytes() != want {
				t.Fatalf("group width %d: %d stored distinct values charged %d B, scalar reference %d charged %d B",
					gw, weighted.dn, weighted.approxBytes(), scalar.dn, want)
			}
		}
	}
}

// ---- steady-state allocation test ----

// TestScanAggSteadyStateAllocs pins the zero-allocation contract of the
// serial columnar scan + aggregation loop — the Q1 benchmark shape at P=1.
// After one warm-up pass has sized the selection buffer, the hash/gid
// scratch, and the group table, re-running the scan and folding every batch
// into the table must not allocate: batches are zero-copy column windows
// and every per-batch buffer is recycled.
func TestScanAggSteadyStateAllocs(t *testing.T) {
	n := 8 * BatchSize
	rng := rand.New(rand.NewSource(17))
	data := colData{cols: make([][]int64, 4), n: n}
	for c := range data.cols {
		data.cols[c] = make([]int64, n)
		for i := range data.cols[c] {
			data.cols[c][i] = int64(rng.Intn(8))
		}
	}
	filter := ScanFilter{Conds: []ScanCond{{Off: 0, Op: relalg.CmpLT, Val: 7}}}
	spec := AggSpecExec{GroupBy: []int{1, 2}, Sums: []int{3}, CountAll: true}
	scan := NewVecScan(data.cols, data.n, filter).(*vecScanOp)
	table := newAggTable(spec)
	var scratch aggScratch
	// Memory accounting rides the same loop: per-batch tracker traffic on
	// both the nil (untracked) and the unbounded-root fast paths must stay
	// allocation-free too.
	tracked := NewMemTracker(0).Child()
	var untracked *MemTracker
	pass := func() {
		if err := scan.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			b, err := scan.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			sz := colBytes(b.Width(), b.Len())
			if !tracked.Reserve(sz) {
				t.Fatal("unbounded tracker refused a reservation")
			}
			tracked.Force(sz)
			untracked.Reserve(sz)
			untracked.Force(sz)
			table.addBatch(b.Cols, b.N, b.Sel, nil, &scratch)
		}
		tracked.ReleaseAll()
		untracked.ReleaseAll()
	}
	pass() // warm-up: sizes sel buffer, scratch, and creates all groups
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("steady-state scan+agg allocates %.1f times per pass, want 0", allocs)
	}
}

// TestExecutionAllocatedBytesCeiling pins what one execution allocates on
// the two join shapes the benchmark runs — a SegTollS slice over the stream
// windows (compiled afresh each time, as a served request is and as
// aqp.RunSlice does on a plan switch; CountVec) and TPC-H Q5 — so an operator
// that starts carrying columns nobody reads fails here instead of waiting for
// the benchmark. The ceilings sit about a quarter above the measured values
// (5.05 MB and 187 kB; with every operator at full table width the same
// executions allocated 27.6 MB and 651 kB).
func TestExecutionAllocatedBytesCeiling(t *testing.T) {
	win := linearroad.NewWindows()
	win.Ingest(linearroad.NewGen(2, 60).Slice(0, 40))
	win.Materialize()
	for _, tc := range []struct {
		name    string
		comp    Compiler
		ceiling uint64
	}{
		{"SegTollS slice", Compiler{Q: linearroad.SegTollS(), Cat: win.Catalog()}, 6170 << 10},
		{"TPC-H Q5", Compiler{Q: tpch.Q5(), Cat: tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})}, 232 << 10},
	} {
		m, err := cost.NewModel(tc.comp.Q, tc.comp.Cat, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		vr, err := volcano.Optimize(m, relalg.DefaultSpace())
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			comp := tc.comp
			v, _, err := comp.CompileVec(vr.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := CountVec(v); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: first-use runtime allocations
		const runs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes allocated per execution", tc.name, per)
		if per > tc.ceiling {
			t.Fatalf("%s allocates %d bytes per execution, ceiling %d: did an operator's width grow?",
				tc.name, per, tc.ceiling)
		}
	}
}

// ---- kernel microbenchmarks ----

// BenchmarkSelColsDense filters one batch to col < 90 over two columns: a
// period-100 ramp (90 % selected) whose outcomes a branch predictor learns,
// and seeded random values selected at 50 %, which it cannot.
func BenchmarkSelColsDense(b *testing.B) {
	n := BatchSize
	for _, tc := range []struct {
		name string
		val  func(rng *rand.Rand, i int) int64
	}{
		{"periodic", func(_ *rand.Rand, i int) int64 { return int64(i % 100) }},
		{"random50", func(rng *rand.Rand, _ int) int64 { return int64(rng.Intn(180)) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(50))
			col := make([]int64, n)
			for i := range col {
				col[i] = tc.val(rng, i)
			}
			cols := [][]int64{col}
			filter := ScanFilter{Conds: []ScanCond{{Off: 0, Op: relalg.CmpLT, Val: 90}}}
			buf := make([]int, 0, n)
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = filter.selRange(cols, 0, n, buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}

// BenchmarkFilterPairs runs one residual, build[0] < probe[0], over a full
// pair buffer of random rows that keeps half the pairs. Each op restores the
// pairs first (two 4 KiB copies), which ns/row includes.
func BenchmarkFilterPairs(b *testing.B) {
	n := BatchSize
	rng := rand.New(rand.NewSource(51))
	build := colData{cols: [][]int64{make([]int64, n)}, n: n}
	probeCols := [][]int64{make([]int64, n)}
	pb, pp := make([]int32, n), make([]int32, n)
	for i := 0; i < n; i++ {
		build.cols[0][i], probeCols[0][i] = rng.Int63n(1000), rng.Int63n(1000)
		pb[i], pp[i] = int32(rng.Intn(n)), int32(rng.Intn(n))
	}
	preds := []ColPred{{L: 0, R: 1, Op: relalg.CmpLT}}
	wb, wp := make([]int32, n), make([]int32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(wb, pb)
		copy(wp, pp)
		filterPairs(preds, &build, probeCols, wb, wp)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

func BenchmarkHashLive2Key(b *testing.B) {
	n := BatchSize
	c0, c1 := make([]int64, n), make([]int64, n)
	for i := range c0 {
		c0[i] = int64(i)
		c1[i] = int64(i % 7)
	}
	cols := [][]int64{c0, c1}
	var dst []uint64
	b.SetBytes(int64(n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = hashLive(dst, cols, []int{0, 1}, n, nil)
	}
}

func BenchmarkGather(b *testing.B) {
	n := BatchSize
	src := make([]int64, n)
	idx := make([]int32, n)
	for i := range src {
		src[i] = int64(i)
		idx[i] = int32((i * 7) % n)
	}
	dst := make([]int64, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gather(dst, src, idx)
	}
}

// TestBuildJoinTableLinksAndCounts checks the join-table build: every row
// linked once — or, for a counting table, one linked row per distinct key
// carrying the number of rows that share it.
func TestBuildJoinTableLinksAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([][]int64, 12*BatchSize+777)
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
