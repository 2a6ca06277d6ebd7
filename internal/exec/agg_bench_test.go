package exec

import (
	"math/rand"
	"slices"
	"testing"
)

// The keyString baseline: the pre-flat-table aggregation core, kept here as
// TestAggTableMatchesKeyStringBaseline's oracle. It materializes a Row key and
// an 8-bytes-per-column string for every input row, plus a state struct per
// group.

type baselineAggState struct {
	key   Row
	sums  []int64
	count int64
}

type baselineAggTable struct {
	spec   AggSpecExec
	groups map[string]*baselineAggState
}

func (t *baselineAggTable) add(r Row) {
	key := make(Row, len(t.spec.GroupBy))
	for i, c := range t.spec.GroupBy {
		key[i] = r[c]
	}
	b := make([]byte, 0, len(key)*8)
	for _, v := range key {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(v>>uint(s)))
		}
	}
	ks := string(b)
	st := t.groups[ks]
	if st == nil {
		st = &baselineAggState{key: key, sums: make([]int64, len(t.spec.Sums))}
		t.groups[ks] = st
	}
	for i, c := range t.spec.Sums {
		st.sums[i] += r[c]
	}
	st.count++
}

// aggBenchRows builds an aggregation-heavy input: 200k rows over a few
// hundred groups, the shape where per-row key allocation dominates.
func aggBenchRows() []Row {
	rng := rand.New(rand.NewSource(42))
	rows := make([]Row, 200000)
	for i := range rows {
		rows[i] = Row{int64(rng.Intn(25)), int64(rng.Intn(16)),
			int64(rng.Intn(1000)), int64(rng.Intn(1000))}
	}
	return rows
}

// TestAggTableMatchesKeyStringBaseline uses the retained baseline as an
// independent oracle for the flat table: the two implementations share no
// hashing or probing code, so a collision-handling or growth bug in the
// open-addressing table (which the row-vs-vec differential cannot see —
// both paths share the flat table) would surface here.
func TestAggTableMatchesKeyStringBaseline(t *testing.T) {
	rows := aggBenchRows()
	spec := AggSpecExec{GroupBy: []int{0, 1}, Sums: []int{2, 3}, CountAll: true}
	flat := newAggTable(spec)
	base := &baselineAggTable{spec: spec, groups: map[string]*baselineAggState{}}
	for _, r := range rows {
		flat.add(r)
		base.add(r)
	}
	got := flat.rows()
	if len(got) != len(base.groups) {
		t.Fatalf("flat table has %d groups, baseline %d", len(got), len(base.groups))
	}
	want := make([]Row, 0, len(base.groups))
	for _, st := range base.groups {
		row := append(append(Row(nil), st.key...), st.sums...)
		want = append(want, append(row, st.count))
	}
	slices.SortFunc(want, func(a, b Row) int { return slices.Compare(a, b) })
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("group %d: flat %v, baseline %v", i, got[i], want[i])
		}
	}
}

// BenchmarkAggAddBatch times addBatch, the aggregation's only entry from an
// operator, on 1024-row chunks in six shapes: Q1 (two narrow keys, two SUMs,
// COUNT(*), 98 % selected), one group (Q6: one SUM over a selection), one key
// over 5 groups and one SUM (Q5 and the ad-hoc serving statements), SegTollS
// (three narrow keys and a COUNT(DISTINCT)), two keys whose box passes
// directSlots, so the table is wide and hashes, and Q1's shape over 17 groups,
// one past fuseGroups, so it resolves and sums in separate passes. The first
// three take foldDirect's one pass after the first chunk. An op is one
// execution of 16 chunks into a reset table; ns/row is per aggregated (live)
// row.
func BenchmarkAggAddBatch(b *testing.B) {
	for _, tc := range []struct {
		name     string
		spec     AggSpecExec
		domains  []int64 // per column: values are uniform in [0, domain)
		selected int     // percent of rows live; 100 is dense
	}{
		{"q1", AggSpecExec{GroupBy: []int{0, 1}, Sums: []int{2, 3}, CountAll: true}, []int64{3, 2, 50, 1e6}, 98},
		{"one-group", AggSpecExec{Sums: []int{0}}, []int64{1e6}, 14},
		{"one-key", AggSpecExec{GroupBy: []int{0}, Sums: []int{1}, CountAll: true}, []int64{5, 1e6}, 100},
		{"segtolls", AggSpecExec{GroupBy: []int{0, 1, 2}, CountDistinct: []int{3}}, []int64{3, 2, 100, 5000}, 100},
		{"wide", AggSpecExec{GroupBy: []int{0, 1}, Sums: []int{2}, CountAll: true}, []int64{1 << 20, 4, 1e6}, 100},
		{"seventeen-groups", AggSpecExec{GroupBy: []int{0, 1}, Sums: []int{2, 3}, CountAll: true}, []int64{17, 1, 50, 1e6}, 98},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(52))
			chunks, rows := make([]aggInput, 16), 0
			for k := range chunks {
				in := aggInput{cols: make([][]int64, len(tc.domains)), n: BatchSize}
				for c, d := range tc.domains {
					in.cols[c] = make([]int64, BatchSize)
					for i := range in.cols[c] {
						in.cols[c][i] = rng.Int63n(d)
					}
				}
				if tc.selected < 100 {
					for i := range BatchSize {
						if rng.Intn(100) < tc.selected {
							in.sel = append(in.sel, i)
						}
					}
					rows += len(in.sel)
				} else {
					rows += BatchSize
				}
				chunks[k] = in
			}
			t, s := newAggTable(tc.spec), &aggScratch{}
			run := func() {
				t.reset()
				for _, in := range chunks {
					t.addBatch(in.cols, in.n, in.sel, nil, s)
				}
			}
			run() // sizes the table and the scratch
			if t.wide != (tc.name == "wide") {
				b.Fatalf("%s: wide %v", tc.name, t.wide)
			}
			if tc.name == "seventeen-groups" && t.n != 17 {
				b.Fatalf("%s: %d groups", tc.name, t.n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
