package relalg

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRelSetBasics(t *testing.T) {
	s := Single(0).Add(3).Add(5)
	if s.Count() != 3 || !s.Has(3) || s.Has(1) {
		t.Fatalf("set ops wrong: %v", s)
	}
	if got := s.Members(); len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Members = %v", got)
	}
	if !Single(3).IsSubset(s) || s.IsSubset(Single(3)) {
		t.Fatal("IsSubset wrong")
	}
	if s.Without(Single(3)) != Single(0).Add(5) {
		t.Fatal("Without wrong")
	}
	if !Single(4).IsSingle() || s.IsSingle() || RelSet(0).IsSingle() {
		t.Fatal("IsSingle wrong")
	}
	if Single(4).SingleMember() != 4 {
		t.Fatal("SingleMember wrong")
	}
	if s.String() != "{0,3,5}" {
		t.Fatalf("String = %q", s.String())
	}
}

// TestRelSetProperties are testing/quick algebraic laws of the bitset.
func TestRelSetProperties(t *testing.T) {
	type pair struct{ A, B uint16 }
	laws := map[string]func(p pair) bool{
		"union commutative": func(p pair) bool {
			a, b := RelSet(p.A), RelSet(p.B)
			return a.Union(b) == b.Union(a)
		},
		"intersect within both": func(p pair) bool {
			a, b := RelSet(p.A), RelSet(p.B)
			i := a & b
			return i.IsSubset(a) && i.IsSubset(b)
		},
		"without disjoint": func(p pair) bool {
			a, b := RelSet(p.A), RelSet(p.B)
			return (a.Without(b) & b).Empty()
		},
		"count additive": func(p pair) bool {
			a, b := RelSet(p.A), RelSet(p.B)
			return a.Union(b).Count() == a.Count()+b.Count()-(a&b).Count()
		},
	}
	for name, law := range laws {
		if err := quick.Check(law, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestProperSubsetsEnumeration(t *testing.T) {
	s := RelSet(0b1011)
	seen := map[RelSet]bool{}
	s.ProperSubsets(func(sub RelSet) {
		if sub.Empty() || sub == s {
			t.Fatalf("ProperSubsets yielded %v", sub)
		}
		if !sub.IsSubset(s) {
			t.Fatalf("non-subset %v", sub)
		}
		if seen[sub] {
			t.Fatalf("duplicate %v", sub)
		}
		seen[sub] = true
	})
	// 2^3 - 2 non-empty proper subsets of a 3-element set... s has 3 bits:
	// {0,1,3}; proper non-empty subsets: 2^3-2 = 6.
	if len(seen) != 6 {
		t.Fatalf("enumerated %d subsets, want 6", len(seen))
	}
}

func chainQuery(n int) *Query {
	q := &Query{Name: "chain"}
	for i := 0; i < n; i++ {
		q.Rels = append(q.Rels, RelRef{Alias: string(rune('A' + i)), Table: "t"})
	}
	for i := 1; i < n; i++ {
		q.Joins = append(q.Joins, JoinPred{
			L: ColID{Rel: i - 1, Off: 0}, R: ColID{Rel: i, Off: 0},
		})
	}
	return q
}

func TestConnected(t *testing.T) {
	q := chainQuery(4) // A-B-C-D
	cases := []struct {
		set  RelSet
		want bool
	}{
		{Single(0), true},
		{Single(0).Add(1), true},
		{Single(0).Add(2), false}, // A and C not adjacent
		{Single(0).Add(1).Add(2).Add(3), true},
		{Single(1).Add(3), false},
	}
	for _, c := range cases {
		if got := q.Connected(c.set); got != c.want {
			t.Errorf("Connected(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

func TestCrossAndInternalPreds(t *testing.T) {
	q := chainQuery(3) // A-B-C
	if nbr := q.neighbours(); len(nbr) != 3 || nbr[0] != Single(1) || nbr[1] != Single(0).Add(2) || nbr[2] != Single(1) {
		t.Fatalf("neighbour masks = %v", nbr)
	}
	a, bc := Single(0), Single(1).Add(2)
	if !q.Joins[0].Crosses(a, bc) || !q.Joins[0].Crosses(bc, a) || q.Joins[1].Crosses(a, bc) {
		t.Fatal("Crosses(A, BC) must hold for A-B only, in either orientation")
	}
	if q.Joins[0].Crosses(a, Single(2)) || q.Joins[1].Crosses(a, Single(2)) {
		t.Fatal("Crosses holds between non-adjacent A and C")
	}
	if alts := Split(q, fakeSchema{}, DefaultSpace(), a.Add(2), AnyProp, nil); len(alts) != 0 {
		t.Fatalf("Split of non-adjacent A, C = %+v, want no Cartesian product", alts)
	}
	// A set's internal predicates are those with both relations in it: the
	// fingerprint of BC renders the B-C join, that of AC none.
	f := NewFingerprinter(q)
	if fp := f.Fingerprint(bc); !strings.Contains(fp, "|J:0.0=1.0|") {
		t.Fatalf("Fingerprint(BC) = %q, want the B-C join", fp)
	}
	if fp := f.Fingerprint(a.Add(2)); !strings.Contains(fp, "|J:|") {
		t.Fatalf("Fingerprint(AC) = %q, want no join", fp)
	}
}

func TestValidateRejectsBadQueries(t *testing.T) {
	bad := []*Query{
		{Name: "empty"},
		{Name: "dup", Rels: []RelRef{{Alias: "A"}, {Alias: "A"}}},
		{Name: "badcol", Rels: []RelRef{{Alias: "A"}},
			Scans: []ScanPred{{Col: ColID{Rel: 5, Off: 0}}}},
		{Name: "selfjoinpred", Rels: []RelRef{{Alias: "A"}, {Alias: "B"}},
			Joins: []JoinPred{{L: ColID{Rel: 0, Off: 0}, R: ColID{Rel: 0, Off: 1}}}},
		{Name: "selffilterpred", Rels: []RelRef{{Alias: "A"}, {Alias: "B"}},
			Filters: []FilterPred{{L: ColID{Rel: 0, Off: 0}, R: ColID{Rel: 0, Off: 1}, Sel: 0.5}}},
		{Name: "badsel", Rels: []RelRef{{Alias: "A"}, {Alias: "B"}},
			Filters: []FilterPred{{L: ColID{Rel: 0, Off: 0}, R: ColID{Rel: 1, Off: 0}, Sel: 0}}},
	}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("query %s should fail validation", q.Name)
		}
	}
}

func TestCmpOpEval(t *testing.T) {
	cases := []struct {
		op   CmpOp
		a, b int64
		want bool
	}{
		{CmpEQ, 3, 3, true}, {CmpEQ, 3, 4, false},
		{CmpNE, 3, 4, true}, {CmpLT, 3, 4, true}, {CmpLT, 4, 4, false},
		{CmpLE, 4, 4, true}, {CmpGT, 5, 4, true}, {CmpGE, 4, 4, true},
		{CmpGE, 3, 4, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %v", c.op, c.a, c.b, got)
		}
	}
}

type fakeSchema struct {
	idx    map[int][]int
	sorted map[int]int
}

func (f fakeSchema) IndexCols(rel int) []int { return f.idx[rel] }
func (f fakeSchema) SortedCol(rel int) int {
	if c, ok := f.sorted[rel]; ok {
		return c
	}
	return -1
}

// TestSplitWellFormed checks structural invariants of the enumerator on a
// chain query: children partition the set, are connected, properties are
// only demanded where satisfiable, and the enumeration is deterministic.
func TestSplitWellFormed(t *testing.T) {
	q := chainQuery(4)
	schema := fakeSchema{idx: map[int][]int{0: {0}, 2: {0}}}
	opts := DefaultSpace()
	all := q.AllRels()
	alts := Split(q, schema, opts, all, AnyProp, nil)
	if len(alts) == 0 {
		t.Fatal("no alternatives for the root")
	}
	for _, a := range alts {
		if a.Leaf() {
			t.Fatal("leaf alternative for a 4-relation set")
		}
		if a.Unary() {
			t.Fatal("enforcer in an Any group")
		}
		if a.LExpr.Union(a.RExpr) != all || !(a.LExpr & a.RExpr).Empty() {
			t.Fatalf("children do not partition: %v %v", a.LExpr, a.RExpr)
		}
		if !q.Connected(a.LExpr) || !q.Connected(a.RExpr) {
			t.Fatalf("disconnected child: %v %v", a.LExpr, a.RExpr)
		}
		if a.Phy == PhyIndexNLJoin {
			if !a.LExpr.IsSingle() {
				t.Fatal("index NL inner must be a single relation")
			}
			if a.LProp.Kind != PropIndexed {
				t.Fatal("index NL inner must demand Indexed")
			}
		}
		if a.Phy == PhyMergeJoin {
			if a.LProp.Kind != PropSorted || a.RProp.Kind != PropSorted {
				t.Fatal("merge join children must demand Sorted")
			}
		}
	}
	again := Split(q, schema, opts, all, AnyProp, nil)
	if len(again) != len(alts) {
		t.Fatal("Split not deterministic")
	}
	for i := range alts {
		if alts[i] != again[i] {
			t.Fatal("Split order not deterministic")
		}
	}
}

func TestSplitProps(t *testing.T) {
	q := chainQuery(2)
	schema := fakeSchema{idx: map[int][]int{0: {0}}}
	opts := DefaultSpace()

	// Indexed group satisfiable only with an index.
	if alts := Split(q, schema, opts, Single(0), Indexed(ColID{Rel: 0, Off: 0}), nil); len(alts) != 1 || alts[0].Phy != PhyIndexScan {
		t.Fatalf("indexed leaf alts = %+v", alts)
	}
	if alts := Split(q, schema, opts, Single(1), Indexed(ColID{Rel: 1, Off: 0}), nil); len(alts) != 0 {
		t.Fatalf("unsatisfiable indexed group got %+v", alts)
	}
	// Sorted group always has the enforcer; index scan if available.
	alts := Split(q, schema, opts, Single(0), Sorted(ColID{Rel: 0, Off: 0}), nil)
	var haveSort, haveIx bool
	for _, a := range alts {
		if a.Phy == PhySort {
			haveSort = true
		}
		if a.Phy == PhyIndexScan {
			haveIx = true
		}
	}
	if !haveSort || !haveIx {
		t.Fatalf("sorted leaf alts = %+v", alts)
	}
	// LeftDeepOnly restricts right children to single relations.
	ld := opts
	ld.LeftDeepOnly = true
	q4 := chainQuery(4)
	for _, a := range Split(q4, schema, ld, q4.AllRels(), AnyProp, nil) {
		if !a.RExpr.IsSingle() {
			t.Fatalf("left-deep violation: right = %v", a.RExpr)
		}
	}
}

func TestPlanHelpers(t *testing.T) {
	leaf := func(rel int) *Plan {
		return &Plan{Expr: Single(rel), Log: LogScan, Phy: PhyTableScan, Rel: rel}
	}
	join := &Plan{
		Expr: Single(0).Add(1), Log: LogJoin, Phy: PhyHashJoin,
		Left: leaf(0), Right: leaf(1),
	}
	if join.Signature() != "hashjoin(ts0,ts1)" {
		t.Fatalf("Signature = %q", join.Signature())
	}
}
