package bench

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tpch"
)

func smokeEnv() *Env {
	e := NewEnv(tpch.Config{ScaleFactor: 0.002, Seed: 42})
	e.Repeats = 1
	return e
}

func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("ratio cell %q: %v", s, err)
	}
	return v
}

// TestFigure4Shape validates the qualitative claims of Figure 4 on a small
// environment: Evita never prunes plan-table entries, the declarative
// configuration prunes both axes, and all ratios are proper fractions; the
// census table's counts give the declarative ratios.
func TestFigure4Shape(t *testing.T) {
	tables := smokeEnv().Figure4()
	if len(tables) != 4 {
		t.Fatalf("Figure4 returned %d tables", len(tables))
	}
	for i, row := range tables[3].Rows {
		for k, ratios := range tables[1:3] { // groups, then alternatives
			census, live := parseRatio(t, row[1+k]), parseRatio(t, row[3+k])
			if want := f2(1 - live/census); ratios.Rows[i][1] != want {
				t.Fatalf("%s: census %v and live %v give %s, %q reads %s", row[0], census, live, want, ratios.Title, ratios.Rows[i][1])
			}
		}
	}
	groups := tables[1]
	alts := tables[2]
	for _, row := range groups.Rows {
		decl := parseRatio(t, row[1])
		evita := parseRatio(t, row[2])
		if evita != 0 {
			t.Fatalf("%s: evita pruned plan table entries: %v", row[0], evita)
		}
		if decl <= 0 || decl > 1 {
			t.Fatalf("%s: declarative group pruning ratio %v out of (0,1]", row[0], decl)
		}
	}
	for _, row := range alts.Rows {
		decl := parseRatio(t, row[1])
		evita := parseRatio(t, row[2])
		if decl <= evita {
			t.Fatalf("%s: declarative (%v) should out-prune evita (%v)", row[0], decl, evita)
		}
	}
}

// TestFigure5Shape: larger changed expressions touch no more state than
// smaller ones (the paper's monotonicity), a no-op ratio touches none, and
// the counts table over Q5's census gives the update ratios.
func TestFigure5Shape(t *testing.T) {
	e := smokeEnv()
	tables := e.Figure5()
	if len(tables) != 5 {
		t.Fatalf("Figure5 returned %d tables", len(tables))
	}
	// A ratio-1 update changes nothing: every repaired plan costs what the
	// initial plan does.
	_, initial := e.optimize(e.Model(tpch.Q5()), e.Space, core.PruneAll)
	for _, row := range tables[4].Rows {
		for x := 1; row[0] == "1" && x < len(row); x++ {
			if row[x] != planCost(initial) {
				t.Fatalf("ratio 1, %s: the repaired plan costs %s, the initial plan %s", tables[4].Header[x], row[x], planCost(initial))
			}
		}
	}
	cg, ca := e.Census(tpch.Q5())
	for i, row := range tables[3].Rows {
		for k, census := range []int{cg, ca} { // groups, then entries
			for x := 1; x < len(tables[1].Header); x++ {
				touched := parseRatio(t, row[2*x-1+k])
				if want, got := f3(touched/float64(census)), tables[1+k].Rows[i][x]; got != want {
					t.Fatalf("ratio %s, %s: %v of %d gives %s, %q reads %s", row[0], tables[1].Header[x], touched, census, want, tables[1+k].Title, got)
				}
			}
		}
	}
	altRatios := tables[2]
	for _, row := range altRatios.Rows {
		if row[0] == "1" {
			for i := 1; i < len(row); i++ {
				if parseRatio(t, row[i]) != 0 {
					t.Fatalf("ratio-1 update touched state: %v", row)
				}
			}
			continue
		}
		// Monotone non-increasing from A (smallest) to E (largest).
		prev := 2.0
		for i := 1; i < len(row); i++ {
			v := parseRatio(t, row[i])
			if v > prev+1e-9 {
				t.Fatalf("update ratio not monotone along the chain: %v", row)
			}
			prev = v
		}
	}
}

// TestFigure6Converges holds Figure 6 to its claim: feedback from executed
// partitions re-optimizes Q5 and then converges. In both update-ratio tables
// round 1 updates something, no later round updates more than round 1, and
// rounds 5-7 update nothing; the counts table over Q5's census gives both.
func TestFigure6Converges(t *testing.T) {
	e := smokeEnv()
	tables := e.Figure6(8, 0.5)
	if len(tables) != 4 {
		t.Fatalf("Figure6 returned %d tables", len(tables))
	}
	cg, ca := e.Census(tpch.Q5())
	for i, row := range tables[3].Rows {
		for k, census := range []int{cg, ca} { // groups, then entries
			touched := parseRatio(t, row[1+k])
			if want, got := f3(touched/float64(census)), tables[1+k].Rows[i][1]; got != want {
				t.Fatalf("round %s: %v of %d gives %s, %q reads %s", row[0], touched, census, want, tables[1+k].Title, got)
			}
		}
	}
	for _, tb := range tables[1:3] {
		if len(tb.Rows) != 7 {
			t.Fatalf("%s: %d rounds, want 7", tb.Title, len(tb.Rows))
		}
		first := parseRatio(t, tb.Rows[0][1])
		if first == 0 {
			t.Errorf("%s: round 1 updated nothing", tb.Title)
		}
		for i, row := range tb.Rows[1:] {
			v := parseRatio(t, row[1])
			if v > first {
				t.Errorf("%s: round %s updated %v, more than round 1's %v", tb.Title, row[0], v, first)
			}
			if round := i + 2; round >= 5 && v != 0 {
				t.Errorf("%s: round %s updated %v after convergence", tb.Title, row[0], v)
			}
		}
	}
}

// TestFigure7Shape: reference counting never reduces group pruning, and the
// counts table gives (b) and (c) over each query's census, which its live and
// pruned counts add up to under every config.
func TestFigure7Shape(t *testing.T) {
	e := smokeEnv()
	tables := e.Figure7()
	if len(tables) != 4 {
		t.Fatalf("Figure7 returned %d tables", len(tables))
	}
	for i, q := range tpch.JoinWorkload() {
		row := tables[3].Rows[i]
		cg, ca := e.Census(q)
		for x := 1; x < len(tables[1].Header); x++ {
			for k, census := range []int{cg, ca} { // groups, then alternatives
				live, pruned := parseRatio(t, row[4*x-3+k]), parseRatio(t, row[4*x-1+k])
				if live+pruned != float64(census) {
					t.Fatalf("%s, %s: %v live and %v pruned of %d", q.Name, tables[1].Header[x], live, pruned, census)
				}
				if want, got := f2(pruned/float64(census)), tables[1+k].Rows[i][x]; got != want {
					t.Fatalf("%s, %s: %v pruned of %d gives %s, %q reads %s", q.Name, tables[1].Header[x], pruned, census, want, tables[1+k].Title, got)
				}
			}
		}
	}
	prune := tables[1]
	for _, row := range prune.Rows {
		aggsel := parseRatio(t, row[1])
		withRef := parseRatio(t, row[2])
		if withRef < aggsel-1e-9 {
			t.Fatalf("%s: refcount reduced group pruning (%v -> %v)", row[0], aggsel, withRef)
		}
	}
}

func TestFigure8Runs(t *testing.T) {
	e := smokeEnv()
	tables := e.Figure8()
	if len(tables) != 5 || len(tables[0].Rows) != len(Figure5Ratios) {
		t.Fatal("Figure8 shape wrong")
	}
	// Pruning never changes the optimum: at a scan ratio every config's
	// repaired plan costs the same.
	for _, row := range tables[4].Rows {
		for x := 2; x < len(row); x++ {
			if row[x] != row[1] {
				t.Fatalf("scan ratio %s: %s's repaired plan costs %s, %s's %s", row[0], tables[4].Header[x], row[x], tables[4].Header[1], row[1])
			}
		}
	}
	// The counts table holds (b)'s and (c)'s numerators: flipped groups and
	// flipped alternatives, three columns a config with touched entries.
	cg, ca := e.Census(tpch.Q5())
	for i, row := range tables[3].Rows {
		for x := 1; x < len(tables[1].Header); x++ {
			for k, census := range []int{cg, ca} {
				flipped := parseRatio(t, row[3*x-2+k])
				if want, got := f3(flipped/float64(census)), tables[1+k].Rows[i][x]; got != want {
					t.Fatalf("scan ratio %s, %s: %v of %d gives %s, %q reads %s", row[0], tables[1].Header[x], flipped, census, want, tables[1+k].Title, got)
				}
			}
		}
	}
}

func TestStreamFiguresRun(t *testing.T) {
	e := smokeEnv()
	f9 := e.Figure9(12)
	if len(f9.Rows) == 0 {
		t.Fatal("Figure9 empty")
	}
	tables := e.Figure10(9)
	f10, counts := tables[0], tables[1]
	if len(f10.Rows) == 0 {
		t.Fatal("Figure10 empty")
	}
	// Every scheme runs the same query over the same windows: whatever its
	// plans, it returns the same rows.
	if len(counts.Rows) != 4 {
		t.Fatalf("Figure 10 counts: %d schemes, want 4", len(counts.Rows))
	}
	for _, row := range counts.Rows {
		if row[3] != counts.Rows[0][3] {
			t.Fatalf("Figure 10 counts: %s returns %s rows, %s %s", row[0], row[3], counts.Rows[0][0], counts.Rows[0][3])
		}
	}
	// Cumulative execution time columns must be non-decreasing.
	var last [4]float64
	for _, row := range f10.Rows {
		for c := 1; c <= 4; c++ {
			v := parseRatio(t, row[c])
			if v < last[c-1]-1e-9 {
				t.Fatalf("cumulative time decreased in column %d: %v", c, row)
			}
			last[c-1] = v
		}
	}
}

func TestTable3Runs(t *testing.T) {
	tables := smokeEnv().Table3()
	if len(tables[0].Rows) != 3 || len(tables[1].Rows) != 3 {
		t.Fatalf("Table3 rows = %d, counts rows = %d", len(tables[0].Rows), len(tables[1].Rows))
	}
}

func TestSmallQueriesRuns(t *testing.T) {
	tb := smokeEnv().SmallQueries()
	if len(tb.Rows) != 3 {
		t.Fatal("SmallQueries rows wrong")
	}
}

func TestAblationsRun(t *testing.T) {
	e := smokeEnv()
	so := e.AblationSearchOrder()
	if len(so.Rows) == 0 {
		t.Fatal("search-order ablation empty")
	}
	ps := e.AblationPlanSpace()
	if len(ps.Rows) < 4 {
		t.Fatal("plan-space ablation empty")
	}
	// The restricted spaces can never beat the full space's optimum.
	full := parseRatio(t, ps.Rows[0][1])
	for _, row := range ps.Rows[1:] {
		if parseRatio(t, row[1]) < full-1e-6 {
			t.Fatalf("restricted space beat the full space: %v", row)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "x", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	out := tb.String()
	for _, want := range []string{"== x ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}
