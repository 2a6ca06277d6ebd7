package cost

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/testkit"
)

func testModel(t *testing.T, seed uint64, nRels int) *Model {
	t.Helper()
	r := stats.NewRand(seed)
	cat := testkit.SyntheticCatalog(r, 3)
	q := testkit.RandomQuery(r, cat, nRels)
	m, err := NewModel(q, cat, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCardBasics(t *testing.T) {
	m := testModel(t, 1, 4)
	all := m.Q.AllRels()
	if c := m.Card(all); c <= 0 {
		t.Fatalf("Card(all) = %v", c)
	}
	// Product form: card of a union with a fresh join predicate's
	// selectivity applied never exceeds the product of parts.
	for _, jp := range m.Q.Joins {
		l, r := relalg.Single(jp.L.Rel), relalg.Single(jp.R.Rel)
		u := l.Union(r)
		if m.Card(u) > m.Card(l)*m.Card(r)+1e-9 {
			t.Fatalf("join did not reduce cardinality: %v > %v*%v",
				m.Card(u), m.Card(l), m.Card(r))
		}
	}
}

func TestCardFactorOverrides(t *testing.T) {
	m := testModel(t, 2, 4)
	all := m.Q.AllRels()
	s := relalg.Single(m.Q.Joins[0].L.Rel).Add(m.Q.Joins[0].R.Rel)
	base := m.Card(all)
	sub := m.Card(s)

	m.SetCardFactor(s, 4)
	if got := m.Card(s); math.Abs(got-4*sub) > 1e-6*sub {
		t.Fatalf("Card(s) with factor 4 = %v, want %v", got, 4*sub)
	}
	if got := m.Card(all); math.Abs(got-4*base) > 1e-6*base {
		t.Fatalf("Card(all) must inherit the factor: %v want %v", got, 4*base)
	}
	// A disjoint-from-s expression is unaffected.
	var other relalg.RelSet
	for i := range m.Q.Rels {
		if !s.Has(i) {
			other = relalg.Single(i)
			break
		}
	}
	if !other.Empty() {
		before := m.CardBase(other)
		if got := m.Card(other); math.Abs(got-before) > 1e-9*before {
			t.Fatalf("unrelated expression affected: %v vs %v", got, before)
		}
	}
	if m.CardFactor(s) != 4 {
		t.Fatal("CardFactor lookup wrong")
	}
	m.SetCardFactor(s, 1) // removal
	if got := m.Card(all); math.Abs(got-base) > 1e-6*base {
		t.Fatalf("factor removal did not restore: %v want %v", got, base)
	}
	if m.CardFactor(s) != 1 {
		t.Fatal("factor not removed")
	}
}

// TestCardMemoTracksOverrides checks the lifetime memo against the
// definition: after any sequence of installs, updates and removals, a warm
// model answers every expression bit-identically to a fresh model that was
// handed the surviving overrides in another order, and CardBase never moves.
func TestCardMemoTracksOverrides(t *testing.T) {
	m := testModel(t, 5, 5)
	r := stats.NewRand(99)
	all := m.Q.AllRels()
	var sets []relalg.RelSet
	for s := relalg.RelSet(1); s <= all; s++ {
		sets = append(sets, s)
	}
	base := map[relalg.RelSet]float64{}
	for _, s := range sets {
		m.Card(s) // warm the memo before any override exists
		base[s] = m.CardBase(s)
	}
	live := map[relalg.RelSet]float64{}
	factors := []float64{0.125, 0.5, 1, 3, 8}
	for step := 0; step < 200; step++ {
		s := sets[r.Intn(len(sets))]
		f := factors[r.Intn(len(factors))]
		m.SetCardFactor(s, f)
		delete(live, s)
		if f != 1 {
			live[s] = f
		}
		fresh, err := NewModel(m.Q, m.Cat, m.P)
		if err != nil {
			t.Fatal(err)
		}
		for i := len(sets) - 1; i >= 0; i-- { // descending: the memo installs ascending
			if f, ok := live[sets[i]]; ok {
				fresh.SetCardFactor(sets[i], f)
			}
		}
		for _, q := range sets {
			if got, want := m.Card(q), fresh.Card(q); got != want {
				t.Fatalf("step %d: Card(%v) = %v on the warm model, %v on a fresh one", step, q, got, want)
			}
			if got := m.CardBase(q); got != base[q] {
				t.Fatalf("step %d: CardBase(%v) moved: %v, was %v", step, q, got, base[q])
			}
		}
	}
}

func TestEpochBumpsOnOverrides(t *testing.T) {
	m := testModel(t, 3, 3)
	e0 := m.Epoch
	m.SetCardFactor(m.Q.AllRels(), 2)
	if m.Epoch == e0 {
		t.Fatal("epoch not bumped by card factor")
	}
	e1 := m.Epoch
	m.SetScanCostFactor(0, 2)
	if m.Epoch == e1 {
		t.Fatal("epoch not bumped by scan factor")
	}
}

func TestScanCostFactorScalesScans(t *testing.T) {
	m := testModel(t, 4, 3)
	alt := relalg.Alt{Log: relalg.LogScan, Phy: relalg.PhyTableScan, Rel: 0}
	before := m.LocalCost(alt, relalg.Single(0), relalg.AnyProp)
	m.SetScanCostFactor(0, 8)
	after := m.LocalCost(alt, relalg.Single(0), relalg.AnyProp)
	if math.Abs(after-8*before) > 1e-6*before {
		t.Fatalf("scan factor: %v -> %v, want x8", before, after)
	}
}

func TestScanAffects(t *testing.T) {
	scan := relalg.Alt{Log: relalg.LogScan, Phy: relalg.PhyTableScan, Rel: 2}
	if !ScanAffects(scan, 2) || ScanAffects(scan, 1) {
		t.Fatal("ScanAffects scan wrong")
	}
	inl := relalg.Alt{Log: relalg.LogJoin, Phy: relalg.PhyIndexNLJoin,
		LExpr: relalg.Single(1), RExpr: relalg.Single(0).Add(2)}
	if !ScanAffects(inl, 1) || ScanAffects(inl, 0) {
		t.Fatal("ScanAffects index-NL wrong")
	}
	hash := relalg.Alt{Log: relalg.LogJoin, Phy: relalg.PhyHashJoin,
		LExpr: relalg.Single(1), RExpr: relalg.Single(0)}
	if ScanAffects(hash, 1) {
		t.Fatal("hash join must not depend on scan factors")
	}
}

func TestCardDependsOn(t *testing.T) {
	a := relalg.Single(0).Add(1)
	if !CardDependsOn(a.Add(2), a) || CardDependsOn(relalg.Single(0).Add(2), a) {
		t.Fatal("CardDependsOn wrong")
	}
}

// TestLocalCostsPositive: every alternative of every group in random
// queries has a strictly positive finite local cost.
func TestLocalCostsPositive(t *testing.T) {
	prop := func(seed uint64) bool {
		r := stats.NewRand(seed)
		cat := testkit.SyntheticCatalog(r, 3)
		q := testkit.RandomQuery(r, cat, 2+r.Intn(4))
		m, err := NewModel(q, cat, DefaultParams())
		if err != nil {
			return false
		}
		all := q.AllRels()
		var check func(s relalg.RelSet, p relalg.Prop) bool
		seen := map[string]bool{}
		check = func(s relalg.RelSet, p relalg.Prop) bool {
			key := s.String() + p.String()
			if seen[key] {
				return true
			}
			seen[key] = true
			for _, alt := range relalg.Split(q, m, relalg.DefaultSpace(), s, p) {
				c := m.LocalCost(alt, s, p)
				if !(c > 0) || math.IsInf(c, 0) || math.IsNaN(c) {
					return false
				}
				if !alt.Leaf() {
					if !check(alt.LExpr, alt.LProp) {
						return false
					}
					if !alt.Unary() && !check(alt.RExpr, alt.RProp) {
						return false
					}
				}
			}
			return true
		}
		return check(all, relalg.AnyProp)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestModelRejectsUnknownTable(t *testing.T) {
	r := stats.NewRand(1)
	cat := testkit.SyntheticCatalog(r, 2)
	q := &relalg.Query{Name: "bad", Rels: []relalg.RelRef{{Alias: "A", Table: "nope"}}}
	if _, err := NewModel(q, cat, DefaultParams()); err == nil {
		t.Fatal("unknown table accepted")
	}
}
