package tpch

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/systemr"
	"repro/internal/volcano"
)

func tinyConfig() Config {
	return Config{ScaleFactor: 0.001, Seed: 42}
}

func TestGenerateSizesScale(t *testing.T) {
	cat := Generate(tinyConfig())
	if n := cat.MustTable("region").NumRows; n != 5 {
		t.Fatalf("region rows = %v", n)
	}
	if n := cat.MustTable("nation").NumRows; n != 25 {
		t.Fatalf("nation rows = %v", n)
	}
	orders := cat.MustTable("orders").NumRows
	if orders < 1000 || orders > 2000 {
		t.Fatalf("orders rows = %v, want ~1500 at SF 0.001", orders)
	}
	li := cat.MustTable("lineitem").NumRows
	if li < 3*orders || li > 8*orders {
		t.Fatalf("lineitem/orders ratio off: %v / %v", li, orders)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(tinyConfig())
	b := Generate(tinyConfig())
	ca, na := a.MustTable("lineitem").ColumnSnapshot()
	cb, nb := b.MustTable("lineitem").ColumnSnapshot()
	if na != nb {
		t.Fatal("row counts differ across runs")
	}
	for c := range ca {
		for i := 0; i < na; i++ {
			if ca[c][i] != cb[c][i] {
				t.Fatalf("row %d col %d differs", i, c)
			}
		}
	}
}

func TestSkewConcentratesKeys(t *testing.T) {
	uniform := Generate(Config{ScaleFactor: 0.002, Seed: 1, Skew: 0})
	skewed := Generate(Config{ScaleFactor: 0.002, Seed: 1, Skew: 0.9})
	count := func(cat *catalog.Catalog, col int) (maxFreq int) {
		cols, n := cat.MustTable("lineitem").ColumnSnapshot()
		freq := map[int64]int{}
		for _, v := range cols[col][:n] {
			freq[v]++
			if freq[v] > maxFreq {
				maxFreq = freq[v]
			}
		}
		return
	}
	u := count(uniform, 1) // l_partkey
	s := count(skewed, 1)
	if s <= 2*u {
		t.Fatalf("skewed hottest part freq %d not > 2x uniform %d", s, u)
	}
}

func TestDateEncodingMonotone(t *testing.T) {
	if !(Date(1995, 3, 15) > Date(1995, 3, 14) &&
		Date(1995, 3, 15) > Date(1994, 12, 31) &&
		Date(1992, 1, 1) == 0) {
		t.Fatal("date encoding broken")
	}
}

func TestAllQueriesValidate(t *testing.T) {
	cat := Generate(tinyConfig())
	for name, q := range Queries() {
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := cost.NewModel(q, cat, cost.DefaultParams()); err != nil {
			t.Fatalf("%s: model: %v", name, err)
		}
	}
}

func TestQ5ExpressionsAreConnectedChain(t *testing.T) {
	q := Q5()
	exprs := Q5Expressions()
	if len(exprs) != 5 {
		t.Fatalf("want 5 expressions, got %d", len(exprs))
	}
	prev := relalg.RelSet(0)
	for _, ex := range exprs {
		if !q.Connected(ex.Set) {
			t.Fatalf("%s not connected", ex.Name)
		}
		if !prev.IsSubset(ex.Set) || ex.Set.Count() != prev.Count()+2 && !prev.Empty() {
			if !prev.Empty() && ex.Set.Count() != prev.Count()+1 {
				t.Fatalf("%s does not extend the chain", ex.Name)
			}
		}
		prev = ex.Set
	}
	if prev != q.AllRels() {
		t.Fatalf("chain does not end at the full query: %v", prev)
	}
}

// TestWorkloadOptimizesAcrossArchitectures: every workload query gets the
// same optimal cost from all three optimizers over generated TPC-H data.
func TestWorkloadOptimizesAcrossArchitectures(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.002, Seed: 7})
	space := relalg.DefaultSpace()
	for name, q := range Queries() {
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vr, err := volcano.Optimize(m, space)
		if err != nil {
			t.Fatalf("%s: volcano: %v", name, err)
		}
		sr, err := systemr.Optimize(m, space)
		if err != nil {
			t.Fatalf("%s: systemr: %v", name, err)
		}
		o, err := core.New(m, space, core.PruneAll)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := o.Optimize()
		if err != nil {
			t.Fatalf("%s: declarative: %v", name, err)
		}
		if rel := (vr.Cost - sr.Cost) / vr.Cost; rel > 1e-6 || rel < -1e-6 {
			t.Fatalf("%s: volcano %v != systemr %v", name, vr.Cost, sr.Cost)
		}
		if rel := (vr.Cost - dp.Cost) / vr.Cost; rel > 1e-6 || rel < -1e-6 {
			t.Fatalf("%s: volcano %v != declarative %v", name, vr.Cost, dp.Cost)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestQ3SExecutes runs the paper's driving example end to end.
func TestQ3SExecutes(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.002, Seed: 7})
	q := Q3S()
	m, _ := cost.NewModel(q, cat, cost.DefaultParams())
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	comp := &exec.Compiler{Q: q, Cat: cat}
	v, st, err := comp.CompileVec(vr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	n, err := exec.CountVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("Q3S returned no rows; predicates or data generation broken")
	}
	if actual, ok := st.Card(q.AllRels()); !ok || actual != n {
		t.Fatalf("root cardinality probe %v != result rows %v", actual, n)
	}
}

// TestQ5AggregateExecutes runs the aggregated Q5 and checks grouping.
func TestQ5AggregateExecutes(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.002, Seed: 7})
	q := Q5()
	m, _ := cost.NewModel(q, cat, cost.DefaultParams())
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	comp := &exec.Compiler{Q: q, Cat: cat}
	v, _, err := comp.CompileVec(vr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.DrainVec(v)
	if err != nil {
		t.Fatal(err)
	}
	// Group-by n_name within one region: at most 5 nations.
	if len(rows) > 5 {
		t.Fatalf("Q5 produced %d groups, want <= 5", len(rows))
	}
	for _, r := range rows {
		if len(r) != 2 || r[1] <= 0 {
			t.Fatalf("bad aggregate row %v", r)
		}
	}
}
