package exec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// add folds one row into the table through the one probe — the
// row-at-a-time reference the addBatch tests compare against; operators call
// addBatch.
func (t *aggTable) add(r Row) {
	cols := make([][]int64, len(r)) // r as a one-row chunk
	for c := range r {
		cols[c] = r[c : c+1]
	}
	g := t.group(hashColsAt(cols, t.spec.GroupBy, 0), cols, t.spec.GroupBy, 0)
	for i, c := range t.spec.Sums {
		t.sums[i][g] += r[c]
	}
	t.counts[g]++
	for i, c := range t.spec.CountDistinct {
		t.addDistinct(g*t.dw+i, r[c])
	}
}

// rows is cols row-major.
func (t *aggTable) rows() []Row {
	d := t.cols(colData{})
	out := make([]Row, d.n)
	for r := range out {
		out[r] = make(Row, d.width())
		for c, col := range d.cols {
			out[r][c] = col[r]
		}
	}
	return out
}

// aggInput is one chunk for addBatch: columns, rows, selection and
// multiplicities as a Batch carries them.
type aggInput struct {
	cols [][]int64
	n    int
	sel  []int
	mult []int64
}

// feed folds in into direct through addBatch and into scalar through add, one
// row and one copy at a time.
func feed(direct, scalar *aggTable, in aggInput, s *aggScratch) {
	direct.addBatch(in.cols, in.n, in.sel, in.mult, s)
	addRows(scalar, in)
}

// addRows folds in into scalar through add, one row and one copy at a time.
func addRows(scalar *aggTable, in aggInput) {
	live := in.sel
	if live == nil {
		live = seq(in.n)
	}
	row := make(Row, len(in.cols))
	for _, i := range live {
		for c := range in.cols {
			row[c] = in.cols[c][i]
		}
		copies := int64(1)
		if in.mult != nil {
			copies = in.mult[i]
		}
		for ; copies > 0; copies-- {
			scalar.add(row)
		}
	}
}

func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// sameGroups requires got and want to hold the same groups under the same ids:
// keys in creation order, their hashes and slots, sums, counts and distinct
// counts.
func sameGroups(t *testing.T, label string, got, want *aggTable) {
	t.Helper()
	type diff struct {
		name string
		at   int
	}
	diffs := []diff{
		{"hashes", firstDiff(got.hashes, want.hashes)},
		{"slots", firstDiff(got.slots, want.slots)},
		{"counts", firstDiff(got.counts, want.counts)},
		{"distinct counts", firstDiff(got.dcounts, want.dcounts)},
	}
	for c := range got.keys {
		diffs = append(diffs, diff{fmt.Sprintf("key column %d", c), firstDiff(got.keys[c], want.keys[c])})
	}
	for s := range got.sums {
		diffs = append(diffs, diff{fmt.Sprintf("SUM %d", s), firstDiff(got.sums[s], want.sums[s])})
	}
	for _, d := range diffs {
		if d.at >= 0 {
			t.Fatalf("%s: addBatch's %s differ from add's at %d (%d groups, add made %d)", label, d.name, d.at, got.n, want.n)
		}
	}
	if got.dn != want.dn {
		t.Fatalf("%s: addBatch stores %d distinct values, add %d", label, got.dn, want.dn)
	}
}

// keyInput builds a chunk of n rows whose key columns take key(c, i) and whose
// two value columns are small random numbers.
func keyInput(rng *rand.Rand, gw, n int, key func(c, i int) int64) aggInput {
	in := aggInput{cols: make([][]int64, gw+2), n: n}
	for c := range in.cols {
		in.cols[c] = make([]int64, n)
		for i := range n {
			if c < gw {
				in.cols[c][i] = key(c, i)
			} else {
				in.cols[c][i] = rng.Int63n(7) - 3
			}
		}
	}
	return in
}

// foldFeed is feed with foldDirect called first, as addBatch calls it: the
// rows it takes are added, addBatch adds the rest, and it returns how many it
// took.
func foldFeed(direct, scalar *aggTable, in aggInput, s *aggScratch) int {
	live := in.sel
	if live == nil {
		live = seq(in.n)
	}
	k := direct.foldDirect(in.cols, live, in.mult, make([]int32, len(live)))
	direct.addBatch(in.cols, in.n, live[k:], in.mult, s)
	addRows(scalar, in)
	return k
}

// TestDirectGroupIdsMatchHashPath drives addBatch — the one pass over a few
// groups, the direct map, widening, and the hash path of a wide table — and
// the scalar add with the same rows, and requires the same groups under the
// same ids after every chunk.
func TestDirectGroupIdsMatchHashPath(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	specOf := func(gw int) AggSpecExec {
		return AggSpecExec{GroupBy: seq(gw), Sums: []int{gw, gw + 1}, CountAll: true, CountDistinct: []int{gw + 1}}
	}

	var s aggScratch
	testFoldDirect(t, rng, &s)

	// Random chunks: 0–3 key columns, with and without Sel and Mult, keys in a
	// window that drifts (widening mid-chunk) and, from chunk 9 on, jumps far
	// enough to make the table wide mid-execution.
	for gw := 0; gw <= 3; gw++ {
		for _, selected := range []bool{false, true} {
			for _, weighted := range []bool{false, true} {
				label := fmt.Sprintf("%d key columns, selection %v, weighted %v", gw, selected, weighted)
				direct, scalar := newAggTable(specOf(gw)), newAggTable(specOf(gw))
				for b := 0; b < 12; b++ {
					base, w := int64(-20+3*b), int64(1+rng.Intn(8))
					far := b >= 9 && rng.Intn(2) == 0
					in := keyInput(rng, gw, rng.Intn(BatchSize+1), func(c, i int) int64 {
						if far && i > 0 && rng.Intn(50) == 0 {
							return 1 << 40
						}
						return base + rng.Int63n(w+int64(i/100))
					})
					if selected {
						in.sel = []int{}
						for i := range in.n {
							if rng.Intn(3) > 0 {
								in.sel = append(in.sel, i)
							}
						}
					}
					if weighted {
						in.mult = make([]int64, in.n)
						for i := range in.mult {
							in.mult[i] = 1 + rng.Int63n(3)
						}
					}
					feed(direct, scalar, in, &s)
					sameGroups(t, fmt.Sprintf("%s, chunk %d", label, b), direct, scalar)
				}
				if gw > 0 && len(direct.direct) == 0 {
					t.Fatalf("%s: the direct map was never built", label)
				}
			}
		}
	}

	// A box widened at row 300 of the second chunk, by a key one past its edge
	// whose unchecked cell would be another group's: rows before it are
	// counted once, the rest through the wider box.
	direct, scalar := newAggTable(specOf(2)), newAggTable(specOf(2))
	small := func(c, i int) int64 { return int64(i >> (2 * c) % 4) } // a 4×4 grid
	feed(direct, scalar, keyInput(rng, 2, 64, small), &s)
	if direct.wide || len(direct.direct) != 16 {
		t.Fatalf("first chunk: box of %d cells (wide %v), want 4×4", len(direct.direct), direct.wide)
	}
	feed(direct, scalar, keyInput(rng, 2, BatchSize, func(c, i int) int64 {
		if i >= 300 {
			return int64(i%3 + 4*c + c*(i%10))
		}
		return small(c, i)
	}), &s)
	sameGroups(t, "widened mid-chunk", direct, scalar)
	if direct.wide || direct.lo[1] != 0 || direct.span[1] < 14 {
		t.Fatalf("widened mid-chunk: box lo %v span %v (wide %v), want column 1 to reach 13", direct.lo, direct.span, direct.wide)
	}

	// The same table outgrows directSlots at row 500 of its third chunk and
	// hashes the rest of that chunk and the next.
	feed(direct, scalar, keyInput(rng, 2, BatchSize, func(c, i int) int64 {
		switch {
		case i == 500 && c == 0:
			return 1 << 20
		case i > 500:
			return small(c, i) - int64(i%3)
		}
		return small(c, i)
	}), &s)
	sameGroups(t, "outgrew directSlots mid-chunk", direct, scalar)
	if !direct.wide {
		t.Fatalf("a key 2^20 from the box left the table direct: lo %v span %v", direct.lo, direct.span)
	}
	feed(direct, scalar, keyInput(rng, 2, BatchSize, func(c, i int) int64 { return int64(i % 37) }), &s)
	sameGroups(t, "wide", direct, scalar)

	// reset after a wide execution: the next one is direct again.
	direct.reset()
	scalar = newAggTable(specOf(2))
	feed(direct, scalar, keyInput(rng, 2, BatchSize, small), &s)
	sameGroups(t, "after reset", direct, scalar)
	if direct.wide || len(direct.direct) != 16 {
		t.Fatalf("after reset: box of %d cells (wide %v), want 4×4", len(direct.direct), direct.wide)
	}

	// Empty chunks, dense and selected, before the first box and after it.
	direct, scalar = newAggTable(specOf(1)), newAggTable(specOf(1))
	for round := range 2 {
		cells := len(direct.direct)
		feed(direct, scalar, aggInput{cols: [][]int64{nil, nil, nil}}, &s)
		in := keyInput(rng, 1, 8, small)
		in.sel = []int{}
		feed(direct, scalar, in, &s)
		sameGroups(t, "empty chunks", direct, scalar)
		if len(direct.direct) != cells {
			t.Fatalf("round %d: empty chunks took the box from %d to %d cells", round, cells, len(direct.direct))
		}
		feed(direct, scalar, keyInput(rng, 1, 8, small), &s)
		sameGroups(t, "after empty chunks", direct, scalar)
	}

	// A key that creeps by one a chunk, up from 0, down from 0, and up to the
	// int64 bounds: the map is rebuilt O(log) times, and the table goes wide
	// once the creep passes directSlots.
	const chunks = 5000
	for _, tc := range []struct {
		name  string
		start int64
		step  int64
	}{{"up", 0, 1}, {"down", 0, -1}, {"up to MaxInt64", math.MaxInt64 - chunks + 1, 1}, {"down to MinInt64", math.MinInt64 + chunks - 1, -1}} {
		direct, scalar := newAggTable(specOf(1)), newAggTable(specOf(1))
		rebuilds, last := 0, ""
		for b := range int64(chunks) {
			feed(direct, scalar, keyInput(rng, 1, 3, func(_, i int) int64 { return tc.start + tc.step*(b-int64(i%2)) }), &s)
			if box := fmt.Sprint(direct.lo, direct.span, len(direct.direct), direct.wide); box != last {
				rebuilds, last = rebuilds+1, box
			}
		}
		sameGroups(t, "creeping "+tc.name, direct, scalar)
		if limit := 2 * bits.Len(chunks); rebuilds > limit || !direct.wide {
			t.Fatalf("creeping %s: %d rebuilds over %d chunks (limit %d), wide %v", tc.name, rebuilds, chunks, limit, direct.wide)
		}
	}

	// Negative keys, and the int64 bounds in one column: a span that overflows
	// is wide, not a small box.
	for _, tc := range []struct {
		name string
		key  func(c, i int) int64
		wide bool
	}{
		{"negative keys", func(c, i int) int64 { return -int64(i%5) - 7*int64(c) }, false},
		{"MinInt64 and MaxInt64", func(c, i int) int64 {
			if c == 1 {
				return extremes[i%len(extremes)]
			}
			return int64(i % 3)
		}, true},
		{"MinInt64 alone", func(c, i int) int64 { return math.MinInt64 + int64(i%2*c) }, false},
	} {
		direct, scalar := newAggTable(specOf(2)), newAggTable(specOf(2))
		feed(direct, scalar, keyInput(rng, 2, BatchSize, tc.key), &s)
		feed(direct, scalar, keyInput(rng, 2, BatchSize, tc.key), &s)
		sameGroups(t, tc.name, direct, scalar)
		if direct.wide != tc.wide {
			t.Fatalf("%s: wide %v, want %v (lo %v span %v)", tc.name, direct.wide, tc.wide, direct.lo, direct.span)
		}
	}
}

// TestDirectGroupIdsMatchHashPath's tables without COUNT(DISTINCT), which
// foldDirect takes while they are direct and hold 1 to fuseGroups groups.
func testFoldDirect(t *testing.T, rng *rand.Rand, s *aggScratch) {
	// Every shape: 0–3 key columns over a 3×2×2 grid (at most 12 groups),
	// 0–3 SUMs, COUNT(*) on and off, selection nil and non-nil. SUM values
	// include the int64 extremes: their sums wrap, exactly in any order.
	for gw := 0; gw <= 3; gw++ {
		for sw := 0; sw <= 3; sw++ {
			for _, countAll := range []bool{false, true} {
				for _, selected := range []bool{false, true} {
					label := fmt.Sprintf("fold: %d key columns, %d SUMs, COUNT(*) %v, selection %v", gw, sw, countAll, selected)
					spec := AggSpecExec{GroupBy: seq(gw), CountAll: countAll}
					for c := range sw {
						spec.Sums = append(spec.Sums, gw+c)
					}
					direct, scalar := newAggTable(spec), newAggTable(spec)
					folded := 0
					for b := 0; b < 6; b++ {
						in := aggInput{cols: make([][]int64, gw+sw), n: 1 + rng.Intn(BatchSize)}
						for c := range in.cols {
							in.cols[c] = make([]int64, in.n)
							for i := range in.cols[c] {
								switch {
								case c < gw:
									in.cols[c][i] = int64(rng.Intn(3 - min(c, 1)))
								case rng.Intn(4) == 0:
									in.cols[c][i] = extremes[rng.Intn(len(extremes))]
								default:
									in.cols[c][i] = rng.Int63n(1000) - 500
								}
							}
						}
						if selected {
							in.sel = []int{}
							for i := range in.n {
								if rng.Intn(8) > 0 {
									in.sel = append(in.sel, i)
								}
							}
						}
						folded += foldFeed(direct, scalar, in, s)
						sameGroups(t, fmt.Sprintf("%s, chunk %d", label, b), direct, scalar)
					}
					if folded == 0 {
						t.Fatalf("%s: foldDirect took no row", label)
					}
				}
			}
		}
	}

	// 1-, 2- and 3-column keys with three SUMs, so the group ids foldDirect
	// stores feed the third SUM's loop. Key column 0 takes 0–14 and 16, the
	// others its low bit: 16 groups in a box of 17 × 2 × 2 cells.
	sixteen := func(i int) int64 { return int64(i%16) + int64(i%16/15) }
	for gw := 1; gw <= 3; gw++ {
		spec := AggSpecExec{GroupBy: seq(gw), Sums: []int{gw, gw + 1, gw + 2}, CountAll: true}
		chunk := func(n int, key func(i int) int64) aggInput {
			in := keyInput(rng, gw, n, func(c, i int) int64 {
				if c > 0 {
					return key(i) & 1
				}
				return key(i)
			})
			third := make([]int64, n)
			for i := range third {
				third[i] = rng.Int63n(1000) - 500
			}
			in.cols = append(in.cols, third)
			return in
		}
		first := func(label string) (*aggTable, *aggTable) {
			direct, scalar := newAggTable(spec), newAggTable(spec)
			if k := foldFeed(direct, scalar, chunk(BatchSize, sixteen), s); k != 0 || direct.n != 16 || len(direct.direct) != 17<<(gw-1) {
				t.Fatalf("%s: first chunk folded %d rows into %d groups, box of %d cells", label, k, direct.n, len(direct.direct))
			}
			return direct, scalar
		}
		// Live lengths around a step of four, all in the box: every row folds.
		for _, n := range []int{1, 2, 3, 5, BatchSize - 1} {
			label := fmt.Sprintf("%d key columns, %d live rows", gw, n)
			direct, scalar := first(label)
			if k := foldFeed(direct, scalar, chunk(n, sixteen), s); k != n {
				t.Fatalf("%s: foldDirect took %d rows", label, k)
			}
			sameGroups(t, label, direct, scalar)
		}
		// The row that stops the fold at each offset of a step.
		for _, tc := range []struct {
			name   string
			key    int64 // key column 0 of the second chunk's stopping row
			groups int   // after the second chunk
			wide   bool
		}{
			{"17th group", 15, 17, false},
			{"key outside the box", 20, 17, false},
			{"wide", 1 << 40, 17, true},
		} {
			for stop := 300; stop < 304; stop++ {
				label := fmt.Sprintf("%d key columns, %s at row %d", gw, tc.name, stop)
				direct, scalar := first(label)
				second := chunk(BatchSize, func(i int) int64 {
					if i == stop {
						return tc.key
					}
					return sixteen(i)
				})
				if k := foldFeed(direct, scalar, second, s); k != stop {
					t.Fatalf("%s: foldDirect took %d rows", label, k)
				}
				sameGroups(t, label, direct, scalar)
				if direct.n != tc.groups || direct.wide != tc.wide {
					t.Fatalf("%s: %d groups, wide %v; want %d, %v", label, direct.n, direct.wide, tc.groups, tc.wide)
				}
				// 17 groups or a wide table: the next chunk takes today's loops.
				if k := foldFeed(direct, scalar, chunk(BatchSize, sixteen), s); k != 0 {
					t.Fatalf("%s: foldDirect took %d rows of a table of %d groups (wide %v)", label, k, direct.n, direct.wide)
				}
				sameGroups(t, label+", next chunk", direct, scalar)
			}
		}
	}

	// Weighted chunks stay on today's loops.
	spec := AggSpecExec{GroupBy: []int{0}, Sums: []int{1, 2}, CountAll: true}
	direct, scalar := newAggTable(spec), newAggTable(spec)
	for b := range 3 {
		in := keyInput(rng, 1, BatchSize, func(_, i int) int64 { return int64(i % 5) })
		in.mult = make([]int64, in.n)
		for i := range in.mult {
			in.mult[i] = 1 + rng.Int63n(3)
		}
		if k := foldFeed(direct, scalar, in, s); k != 0 {
			t.Fatalf("weighted chunk %d: foldDirect took %d rows", b, k)
		}
		sameGroups(t, fmt.Sprintf("weighted chunk %d", b), direct, scalar)
	}
}

// TestDistinctSetMatchesMapOracle drives aggTable's flat COUNT(DISTINCT) set —
// one open-addressing set of (set id, value) pairs for every group and column
// — against a Go map of the same pairs: values that are their own edge cases
// (0, -1, the extreme int64s) stored under many set ids, growth across several
// doublings, and reset and refill in the kept arrays.
func TestDistinctSetMatchesMapOracle(t *testing.T) {
	spec := AggSpecExec{GroupBy: []int{0}, CountDistinct: []int{1, 2}}
	rng := rand.New(rand.NewSource(31))
	value := func() int64 {
		if edge := []int64{0, -1, math.MinInt64, math.MaxInt64}; rng.Intn(8) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return int64(rng.Intn(3000))
	}
	type pair = [2]int64 // (group key · 2 + column, value)
	fill := func(tab *aggTable, oracle map[pair]struct{}, n int) {
		for i := 0; i < n; i++ {
			r := Row{int64(rng.Intn(40)), value(), value()}
			tab.add(r)
			oracle[pair{r[0] * 2, r[1]}], oracle[pair{r[0]*2 + 1, r[2]}] = struct{}{}, struct{}{}
		}
	}
	check := func(label string, tab *aggTable, oracle map[pair]struct{}) {
		t.Helper()
		want := map[pair]int64{} // (group key, column) -> distinct values
		for p := range oracle {
			want[pair{p[0] / 2, p[0] % 2}]++
		}
		if tab.dn != len(oracle) {
			t.Fatalf("%s: the set holds %d values, the oracle %d", label, tab.dn, len(oracle))
		}
		for _, r := range tab.rows() {
			if r[1] != want[pair{r[0], 0}] || r[2] != want[pair{r[0], 1}] {
				t.Fatalf("%s: group %d counts %d and %d distinct values, the oracle %d and %d",
					label, r[0], r[1], r[2], want[pair{r[0], 0}], want[pair{r[0], 1}])
			}
		}
	}

	tab, oracle := newAggTable(spec), map[pair]struct{}{}
	fill(tab, oracle, 200000)
	check("filled", tab, oracle)
	grown := len(tab.dids)
	if grown < 8*aggInitSlots {
		t.Fatalf("the set grew to %d slots only: the fill no longer crosses several doublings", grown)
	}
	tab.reset()
	oracle = map[pair]struct{}{}
	check("reset", tab, oracle)
	fill(tab, oracle, 5000)
	check("refilled", tab, oracle)
	if len(tab.dids) != grown {
		t.Fatalf("reset kept %d of the set's %d slots", len(tab.dids), grown)
	}
}

// TestAggTableGlobalGroup covers the zero-width group key (no GROUP BY).
func TestAggTableGlobalGroup(t *testing.T) {
	spec := AggSpecExec{Sums: []int{0}, CountAll: true}
	a := newAggTable(spec)
	for i := int64(0); i < 1000; i++ {
		a.add(Row{i})
		a.add(Row{i * 2})
	}
	out := a.rows()
	if len(out) != 1 {
		t.Fatalf("global aggregate produced %d rows, want 1", len(out))
	}
	if out[0][0] != 999*1000/2*3 || out[0][1] != 2000 {
		t.Fatalf("global aggregate = %v", out[0])
	}
}

// TestSortedMergesNewGroups: a table that gains groups between its renders,
// as a maintained aggregation does, sorts only the new ones and merges them
// into the order it kept; after every chunk of rows the order must be the
// one a full sort of every group gives, for one- and two-column keys, new
// keys below, between and above the old ones, chunks that add no group, and
// a reset in between.
func TestSortedMergesNewGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, keys := range []int{1, 2} {
		spec := AggSpecExec{GroupBy: seq(keys), CountAll: true}
		tbl, s := newAggTable(spec), &aggScratch{}
		for round := 0; round < 3; round++ {
			tbl.reset()
			for chunk := 0; chunk < 12; chunk++ {
				n := rng.Intn(40)
				if chunk%4 == 3 {
					n = 0
				}
				cols := make([][]int64, keys)
				for c := range cols {
					cols[c] = make([]int64, n)
					for i := range cols[c] {
						cols[c][i] = rng.Int63n(int64(30 + 200*chunk))
					}
				}
				tbl.addBatch(cols, n, nil, nil, s)
				got := slices.Clone(tbl.sorted())
				want := make([]int32, tbl.n)
				for g := range want {
					want[g] = int32(g)
				}
				slices.SortFunc(want, func(a, b int32) int { return cmpKeys(tbl.keys, a, b) })
				if !slices.Equal(got, want) {
					t.Fatalf("%d key columns, round %d, chunk %d: order %v, a full sort %v", keys, round, chunk, got, want)
				}
			}
		}
	}
}
