package exec

import (
	"math/rand"
	"slices"
	"testing"
)

// The keyString baseline: the pre-flat-table aggregation core, kept here as
// the benchmark comparator. It materializes a Row key and an 8-bytes-per-
// column string for every input row, plus a state struct per group — the
// allocations the flat open-addressing table eliminates.

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

// BenchmarkAggTable compares the flat open-addressing aggregation table
// against the keyString/map baseline it replaced. Run with -benchmem: the
// flat table's allocs/op stay near zero while the baseline allocates
// multiple objects per input row.
func BenchmarkAggTable(b *testing.B) {
	rows := aggBenchRows()
	spec := AggSpecExec{GroupBy: []int{0, 1}, Sums: []int{2, 3}, CountAll: true}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := newAggTable(spec)
			for _, r := range rows {
				t.add(r)
			}
			if t.n == 0 {
				b.Fatal("no groups")
			}
		}
	})
	b.Run("keystring-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := &baselineAggTable{spec: spec, groups: map[string]*baselineAggState{}}
			for _, r := range rows {
				t.add(r)
			}
			if len(t.groups) == 0 {
				b.Fatal("no groups")
			}
		}
	})
}
