package linearroad

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/storage"
	"repro/internal/testkit"
)

func TestSegTollSValidates(t *testing.T) {
	q := SegTollS()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(q.Rels) != 5 || len(q.Joins) != 6 || len(q.Filters) != 2 {
		t.Fatalf("SegTollS shape wrong: %d rels %d joins %d filters",
			len(q.Rels), len(q.Joins), len(q.Filters))
	}
	if !q.Connected(q.AllRels()) {
		t.Fatal("SegTollS join graph disconnected")
	}
}

func TestGenDeterministicAndBursty(t *testing.T) {
	a := NewGen(3, 50).Slice(0, 30)
	b := NewGen(3, 50).Slice(0, 30)
	if len(a) != len(b) {
		t.Fatal("generator not deterministic")
	}
	for i := range a {
		for c := range a[i] {
			if a[i][c] != b[i][c] {
				t.Fatal("generator rows differ")
			}
		}
	}
	// Burst phases must vary the per-second report volume.
	perSec := map[int64]int{}
	for _, r := range a {
		perSec[r[ColTime]]++
	}
	min, max := 1<<30, 0
	for _, n := range perSec {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max <= min {
		t.Fatalf("no burstiness: min=%d max=%d", min, max)
	}
}

// rowsOf reads a published snapshot back row by row.
func rowsOf(snap *storage.Snapshot) [][]int64 {
	rows := make([][]int64, snap.N)
	for i := range rows {
		for _, col := range snap.Cols {
			rows[i] = append(rows[i], col[i])
		}
	}
	return rows
}

func TestTimeWindowExpires(t *testing.T) {
	w := &timeWindow{span: 10}
	for ts := int64(0); ts < 25; ts++ {
		w.add([]int64{ts, 0, 0, 0, 0, 0, 0, 0})
	}
	rows := rowsOf(w.snapshot())
	for _, r := range rows {
		if r[ColTime] <= 24-10 {
			t.Fatalf("expired row retained: t=%d", r[ColTime])
		}
	}
	if len(rows) != 10 {
		t.Fatalf("window rows = %d, want 10", len(rows))
	}
}

func TestLastNCaps(t *testing.T) {
	w := &lastN{n: 2, key: func(r []int64) int64 { return r[ColCarID] }}
	for i := int64(0); i < 5; i++ {
		w.add([]int64{i, 7, 0, 0, 0, 0, 0, i * 100})
	}
	w.add([]int64{9, 8, 0, 0, 0, 0, 0, 0})
	rows := rowsOf(w.snapshot())
	if len(rows) != 3 {
		t.Fatalf("lastN rows = %d, want 3 (2 for car 7, 1 for car 8)", len(rows))
	}
	// The retained rows for car 7 are the two most recent.
	if rows[0][ColXPos] != 300 || rows[1][ColXPos] != 400 {
		t.Fatalf("lastN kept wrong rows: %v", rows)
	}
}

func TestWindowsIngestAndMaterialize(t *testing.T) {
	gen := NewGen(1, 40)
	win := NewWindows()
	win.Ingest(gen.Slice(0, 20))
	win.Materialize()
	cat := win.Catalog()
	for _, name := range WindowTables {
		tb := cat.MustTable(name)
		if tb.NumRows == 0 {
			t.Fatalf("window %s empty after 20s of stream", name)
		}
		if tb.Stats(ColCarID).Hist == nil {
			t.Fatalf("window %s missing statistics", name)
		}
	}
	// w2 and w3 are 1-per-key windows.
	w3, n := cat.MustTable("w3").ColumnSnapshot()
	seen := map[int64]bool{}
	for _, car := range w3[ColCarID][:n] {
		if seen[car] {
			t.Fatal("w3 has more than one row per car")
		}
		seen[car] = true
	}
}

// TestSegTollSMatchesReference: the optimal and the worst plan for SegTollS
// over live windows both return the result the plan-independent reference
// evaluator computes from the window tables — including the two
// offset-carrying segment filters and the COUNT(DISTINCT) aggregate.
func TestSegTollSMatchesReference(t *testing.T) {
	gen := NewGen(2, 60)
	win := NewWindows()
	win.Ingest(gen.Slice(0, 40))
	win.Materialize()

	q := SegTollS()
	m, err := cost.NewModel(q, win.Catalog(), cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.New(m, relalg.DefaultSpace(), core.PruneNone)
	if err != nil {
		t.Fatal(err)
	}
	best, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	worst, err := o.WorstPlan()
	if err != nil {
		t.Fatal(err)
	}
	ref := testkit.NewReference(q, win.Catalog())
	wantRows, wantCard := ref.Rows(), ref.Card(q.AllRels())
	if len(wantRows) == 0 {
		t.Fatal("SegTollS produced no groups; generator or windows broken")
	}
	want := testkit.Canonical(wantRows, nil)
	for _, p := range []*relalg.Plan{best, worst} {
		// Execute over the published windows with parallel window scans
		// enabled, the way aqp.RunSlice does.
		comp := &exec.Compiler{Q: q, Cat: win.Catalog(), Parallelism: 4}
		// The root join carries what the aggregation reads (three r2 group
		// columns and r5's position), not the 40 columns of five windows.
		if schema, err := comp.PlanSchema(p); err != nil || len(schema) > 5 {
			t.Fatalf("root join schema %v (err %v), want at most 5 columns\n%s", schema, err, p.Explain(q))
		}
		v, st, err := comp.CompileVec(p)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, p.Explain(q))
		}
		got, err := exec.DrainVec(v)
		if err != nil {
			t.Fatal(err)
		}
		if testkit.Canonical(got, nil) != want {
			t.Fatalf("%d groups, reference has %d\n%s", len(got), len(wantRows), p.Explain(q))
		}
		if n, ok := st.Card(q.AllRels()); !ok || n != wantCard {
			t.Fatalf("join cardinality %d (reported %v), reference %d", n, ok, wantCard)
		}
	}
}
