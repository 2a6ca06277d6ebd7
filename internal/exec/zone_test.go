package exec

import (
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/relalg"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// zoneTable returns a catalog whose one table, t(k, v) clustered on k, is
// bound to a disk store under dir: a segment of keys [0, 1000), a segment of
// keys [1000, 2000) and an unflushed tail row with key 5000. v cycles
// through 0..6, so its zones do not separate the segments.
func zoneTable(t *testing.T, dir string) *catalog.Catalog {
	t.Helper()
	tab := catalog.NewTable("t", "k", "v")
	tab.SortedBy = 0
	rows := func(lo, hi int) [][]int64 {
		var out [][]int64
		for k := lo; k < hi; k++ {
			out = append(out, []int64{int64(k), int64(k % 7)})
		}
		return out
	}
	if err := tab.AppendRows(rows(0, 1000)); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Add(tab)
	if _, err := cat.BindDir(dir, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Store().Close() })
	flush := func() {
		if err := tab.Store().Flush(tab.DataVersion()); err != nil {
			t.Fatal(err)
		}
	}
	flush()
	if err := tab.AppendRows(rows(1000, 2000)); err != nil {
		t.Fatal(err)
	}
	flush()
	if err := tab.AppendRows([][]int64{{5000, 0}}); err != nil {
		t.Fatal(err)
	}
	tab.Analyze(0)
	return cat
}

// TestScanBindsZonePrunedRanges: a compiled scan of a disk table binds, at
// Open, the row ranges its zone maps cannot exclude, so a predicate on the
// clustered column skips the segment it excludes, whether the scan streams
// batches or a join build drains it; no window it streams holds a key of
// that segment. The unflushed tail is always read, a predicate the zones do
// not separate prunes nothing, and every execution returns what
// testkit.Reference computes.
func TestScanBindsZonePrunedRanges(t *testing.T) {
	cat := zoneTable(t, t.TempDir())
	col := func(rel, off int) relalg.ColID { return relalg.ColID{Rel: rel, Off: off} }
	leaf := func(rel int) *relalg.Plan {
		return &relalg.Plan{Expr: relalg.Single(rel), Log: relalg.LogScan, Phy: relalg.PhyTableScan, Rel: rel}
	}
	one := []relalg.RelRef{{Alias: "a", Table: "t"}}
	two := []relalg.RelRef{{Alias: "a", Table: "t"}, {Alias: "b", Table: "t"}}
	all := []storage.Range{{Lo: 0, Hi: 2001}}
	for _, c := range []struct {
		name  string
		q     *relalg.Query
		plan  *relalg.Plan
		wants [][]storage.Range // per scan, in compile order
		skip  [2]int64          // keys [lo, hi) of the segment a lone scan skips
	}{
		{"k<500", &relalg.Query{Rels: one, Scans: []relalg.ScanPred{{Col: col(0, 0), Op: relalg.CmpLT, Val: 500}}},
			leaf(0), [][]storage.Range{{{Lo: 0, Hi: 1000}, {Lo: 2000, Hi: 2001}}}, [2]int64{1000, 2000}},
		{"k>=1500", &relalg.Query{Rels: one, Scans: []relalg.ScanPred{{Col: col(0, 0), Op: relalg.CmpGE, Val: 1500}}},
			leaf(0), [][]storage.Range{{{Lo: 1000, Hi: 2001}}}, [2]int64{0, 1000}},
		{"v<3", &relalg.Query{Rels: one, Scans: []relalg.ScanPred{{Col: col(0, 1), Op: relalg.CmpLT, Val: 3}}},
			leaf(0), [][]storage.Range{all}, [2]int64{}},
		{"unfiltered", &relalg.Query{Rels: one}, leaf(0), [][]storage.Range{all}, [2]int64{}},
		{"join build", &relalg.Query{Rels: two,
			Joins: []relalg.JoinPred{{L: col(0, 0), R: col(1, 0)}},
			Scans: []relalg.ScanPred{{Col: col(0, 0), Op: relalg.CmpGE, Val: 1500}, {Col: col(1, 1), Op: relalg.CmpEQ, Val: 2}}},
			&relalg.Plan{Expr: relalg.Single(0).Add(1), Log: relalg.LogJoin, Phy: relalg.PhyHashJoin, Left: leaf(0), Right: leaf(1)},
			[][]storage.Range{{{Lo: 1000, Hi: 2001}}, all}, [2]int64{}},
	} {
		c.q.Name = c.name
		if err := c.q.Validate(); err != nil {
			t.Fatal(err)
		}
		comp := &Compiler{Q: c.q, Cat: cat}
		ref := testkit.NewReference(c.q, cat)
		v, st, err := comp.CompileVec(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		var scans []*vecScanOp
		for _, op := range st.ops {
			if s, ok := op.in.(*vecScanOp); ok {
				scans = append(scans, s)
			}
		}
		if len(scans) != len(c.wants) {
			t.Fatalf("%s: %d scans compiled, want %d", c.name, len(scans), len(c.wants))
		}
		for run := 0; run < 2; run++ { // a re-opened tree binds again
			checkExecution(t, c.name, comp, v, st, ref.Card, testkit.Canonical(ref.Rows(), nil), c.plan)
			for i, s := range scans {
				if !slices.Equal(s.leaf.ranges, c.wants[i]) {
					t.Fatalf("%s run %d: scan %d read ranges %v, want %v", c.name, run, i, s.leaf.ranges, c.wants[i])
				}
			}
		}
		if c.skip[0] == c.skip[1] {
			continue
		}
		// Every row of every window streamed, selected or not, lies outside
		// the skipped segment.
		schema, err := comp.PlanSchema(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		k := slices.Index(schema, col(0, 0))
		if err := v.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			b, err := v.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			for _, key := range b.Cols[k][:b.N] {
				if key >= c.skip[0] && key < c.skip[1] {
					t.Fatalf("%s: a window holds key %d of the skipped segment", c.name, key)
				}
			}
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
