package testkit

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/relalg"
	"repro/internal/stats"
)

func TestSyntheticCatalogShape(t *testing.T) {
	r := stats.NewRand(1)
	cat := SyntheticCatalog(r, 4)
	names := cat.Names()
	if len(names) != 4 {
		t.Fatalf("tables = %v", names)
	}
	for _, n := range names {
		tb := cat.MustTable(n)
		if len(tb.ColNames) != ColsPerTable {
			t.Fatalf("%s arity = %d", n, len(tb.ColNames))
		}
		if tb.NumRows < 10 {
			t.Fatalf("%s rows = %v", n, tb.NumRows)
		}
		for c := 0; c < ColsPerTable; c++ {
			if cs := tb.Stats(c); cs.Distinct < 1 || cs.Hist == nil {
				t.Fatalf("%s col %d stats missing", n, c)
			}
		}
	}
}

func TestRandomQueryConnectedAndValid(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		r := stats.NewRand(seed)
		cat := SyntheticCatalog(r, 3)
		n := 2 + r.Intn(6)
		q := RandomQuery(r, cat, n)
		if err := q.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !q.Connected(q.AllRels()) {
			t.Fatalf("seed %d: query disconnected", seed)
		}
		if len(q.Joins) < n-1 {
			t.Fatalf("seed %d: too few join predicates", seed)
		}
	}
}

func TestRandomConnectedSubset(t *testing.T) {
	r := stats.NewRand(2)
	cat := SyntheticCatalog(r, 3)
	q := RandomQuery(r, cat, 6)
	for i := 0; i < 50; i++ {
		s := RandomConnectedSubset(r, q, 2)
		if s.Count() < 2 || !q.Connected(s) {
			t.Fatalf("bad subset %v", s)
		}
	}
}

// referenceFixture is a hand-written three-table database and query whose
// every intermediate result is worked out in the comments, pinning the oracle
// the executor differentials trust.
//
//	A(a0,a1,a2)   B(b0,b1,b2)    C(c0,c1)
//	A0 1 10 5     B0 1 10 100    C0 100  4
//	A1 1 20 6     B1 1 10 101    C1 101  9
//	A2 2 10 7     B2 1 20 102    C2 102  6
//	A3 3 30 8     B3 2 99 103    C3 104  8
//	              B4 3 30 104    C4 104 20
//
// A ⋈ B on the compound key (a0=b0, a1=b1): A0B0 A0B1 A1B2 A3B4 — A2 meets B3
// on a0 alone and must not join. B ⋈ C on b2=c0: B0C0 B1C1 B2C2 B4C3 B4C4.
// All three: A0B0C0 A0B1C1 A1B2C2 A3B4C3 A3B4C4, of which the filter
// a2 < c1 + 1 drops A0B0C0 (5 < 5); with Off 0 it would also drop A1B2C2 and
// A3B4C3.
func referenceFixture(scans ...relalg.ScanPred) (*relalg.Query, *catalog.Catalog) {
	cat := catalog.New()
	load := func(name string, cols []string, rows ...[]int64) {
		t := catalog.NewTable(name, cols...)
		for _, r := range rows {
			t.Append(r)
		}
		cat.Add(t)
	}
	load("A", []string{"a0", "a1", "a2"}, []int64{1, 10, 5}, []int64{1, 20, 6}, []int64{2, 10, 7}, []int64{3, 30, 8})
	load("B", []string{"b0", "b1", "b2"}, []int64{1, 10, 100}, []int64{1, 10, 101}, []int64{1, 20, 102}, []int64{2, 99, 103}, []int64{3, 30, 104})
	load("C", []string{"c0", "c1"}, []int64{100, 4}, []int64{101, 9}, []int64{102, 6}, []int64{104, 8}, []int64{104, 20})
	col := func(rel, off int) relalg.ColID { return relalg.ColID{Rel: rel, Off: off} }
	q := &relalg.Query{
		Name:  "fixture",
		Rels:  []relalg.RelRef{{Alias: "A", Table: "A"}, {Alias: "B", Table: "B"}, {Alias: "C", Table: "C"}},
		Scans: scans,
		Joins: []relalg.JoinPred{
			{L: col(0, 0), R: col(1, 0)}, {L: col(1, 1), R: col(0, 1)}, {L: col(1, 2), R: col(2, 0)},
		},
		Filters: []relalg.FilterPred{{L: col(0, 2), R: col(2, 1), Op: relalg.CmpLT, Off: 1, Sel: 0.5}},
	}
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return q, cat
}

func TestReferenceJoinFilterAndCards(t *testing.T) {
	q, cat := referenceFixture()
	ref := NewReference(q, cat)
	want := [][]int64{
		{1, 10, 5, 1, 10, 101, 101, 9},
		{1, 20, 6, 1, 20, 102, 102, 6},
		{3, 30, 8, 3, 30, 104, 104, 8},
		{3, 30, 8, 3, 30, 104, 104, 20},
	}
	if got := Canonical(ref.Rows(), nil); got != Canonical(want, nil) {
		t.Fatalf("rows =\n%s\nwant\n%s", got, Canonical(want, nil))
	}
	for _, tc := range []struct {
		set  relalg.RelSet
		card int64
	}{
		{relalg.Single(0), 4}, {relalg.Single(2), 5},
		{relalg.Single(0).Add(1), 4}, // compound key: 8 if only a0=b0 were applied
		{relalg.Single(1).Add(2), 5}, // no filter: its A side is absent
		{q.AllRels(), 4},
	} {
		if got := ref.Card(tc.set); got != tc.card {
			t.Errorf("Card(%v) = %d, want %d", tc.set, got, tc.card)
		}
	}
}

// TestReferenceEveryCmpOp restricts C by "c1 <op> 8" and checks both the
// scan and the full-join cardinality: the surviving C rows and, of the four
// result rows (on C1, C2, C3, C4), those that keep their C side.
func TestReferenceEveryCmpOp(t *testing.T) {
	for _, tc := range []struct {
		op         relalg.CmpOp
		scan, full int64
	}{
		{relalg.CmpEQ, 1, 1}, // C3
		{relalg.CmpNE, 4, 3}, // C0 C1 C2 C4
		{relalg.CmpLT, 2, 1}, // C0 C2
		{relalg.CmpLE, 3, 2}, // C0 C2 C3
		{relalg.CmpGT, 2, 2}, // C1 C4
		{relalg.CmpGE, 3, 3}, // C1 C3 C4
	} {
		q, cat := referenceFixture(relalg.ScanPred{Col: relalg.ColID{Rel: 2, Off: 1}, Op: tc.op, Val: 8})
		ref := NewReference(q, cat)
		if got := ref.Card(relalg.Single(2)); got != tc.scan {
			t.Errorf("c1 %v 8: scan card %d, want %d", tc.op, got, tc.scan)
		}
		if got := ref.Card(q.AllRels()); got != tc.full {
			t.Errorf("c1 %v 8: join card %d, want %d", tc.op, got, tc.full)
		}
	}
}

func TestReferenceAggregates(t *testing.T) {
	q, cat := referenceFixture()
	// GROUP BY a0: SUM(c1), COUNT(*), COUNT(DISTINCT b2).
	q.Agg = &relalg.AggSpec{
		GroupBy: []relalg.ColID{{Rel: 0, Off: 0}}, Sums: []relalg.ColID{{Rel: 2, Off: 1}},
		CountAll: true, CountDistinct: []relalg.ColID{{Rel: 1, Off: 2}},
	}
	want := [][]int64{
		{1, 9 + 6, 2, 2},  // A0B1C1, A1B2C2: b2 in {101, 102}
		{3, 8 + 20, 2, 1}, // A3B4C3, A3B4C4: b2 = 104 twice
	}
	if got := Canonical(NewReference(q, cat).Rows(), nil); got != Canonical(want, nil) {
		t.Fatalf("aggregate rows =\n%s\nwant\n%s", got, Canonical(want, nil))
	}
}

// TestCanonicalPermutesPlanOrder: rows laid out in a plan's (C, A, B) order
// render like the same rows in (relation, offset) order, duplicates kept.
func TestCanonicalPermutesPlanOrder(t *testing.T) {
	schema := []relalg.ColID{{Rel: 2, Off: 0}, {Rel: 0, Off: 1}, {Rel: 0, Off: 0}, {Rel: 1, Off: 0}}
	planOrder := [][]int64{{30, 2, 1, 20}, {-30, 5, 4, 50}, {30, 2, 1, 20}}
	canonOrder := [][]int64{{4, 5, 50, -30}, {1, 2, 20, 30}, {1, 2, 20, 30}}
	if got, want := Canonical(planOrder, schema), Canonical(canonOrder, nil); got != want {
		t.Fatalf("canonical =\n%s\nwant\n%s", got, want)
	}
}
