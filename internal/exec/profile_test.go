package exec

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/rescache"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// TestExplainAnalyzeMatchesRunStats asserts that every counted node of every
// workload query has a span whose rows are its RunStats cardinality and whose
// width is its planned schema's, and that EXPLAIN ANALYZE renders the timed
// execution under its one-line header.
func TestExplainAnalyzeMatchesRunStats(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	for name, q := range tpch.Queries() {
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vr, err := volcano.Optimize(m, relalg.DefaultSpace())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		comp := &Compiler{Q: q, Cat: cat}
		v, stats, err := comp.CompileVec(vr.Plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stats.SetTiming(true)
		rows, err := DrainVec(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checked := 0
		eachPlanNode(vr.Plan, func(p *relalg.Plan) {
			act, counted := stats.Card(p.Expr)
			if !counted || p.Log == relalg.LogEnforce {
				return
			}
			op := stats.node(p)
			if op == nil {
				t.Fatalf("%s: counted node %v has no span", name, p.Expr)
			}
			if op.sp.Rows != act {
				t.Fatalf("%s: span of %v recorded %d rows, RunStats %d", name, p.Expr, op.sp.Rows, act)
			}
			if schema, err := comp.PlanSchema(p); err != nil || op.cols != len(schema) {
				t.Fatalf("%s: span says %v carries %d columns, its schema is %v (err %v)",
					name, p.Expr, op.cols, schema, err)
			}
			checked++
		})
		if checked == 0 {
			t.Fatalf("%s: no counted node verified", name)
		}
		// The terminal aggregation span must cover the emitted result.
		if q.Agg != nil && stats.agg.sp.Rows != int64(len(rows)) {
			t.Fatalf("%s: agg span rows=%d, result rows=%d", name, stats.agg.sp.Rows, len(rows))
		}
		text := stats.Format()
		if !strings.Contains(text, "act=") || !strings.Contains(text, "time=") {
			t.Fatalf("%s: analyze output missing annotations:\n%s", name, text)
		}
		if header, _, _ := strings.Cut(text, "\n"); header != "EXPLAIN ANALYZE" {
			t.Fatalf("%s: header %q, want %q", name, header, "EXPLAIN ANALYZE")
		}
	}
}

// TestProfilingDifferential asserts timing observes without participating: a
// timed execution's result multiset and RunStats feedback are byte-identical
// to the untimed execution's.
func TestProfilingDifferential(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	for name, q := range tpch.Queries() {
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vr, err := volcano.Optimize(m, relalg.DefaultSpace())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base := &Compiler{Q: q, Cat: cat}
		v0, stats0, err := base.CompileVec(vr.Plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows0, err := DrainVec(v0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		timed := &Compiler{Q: q, Cat: cat}
		v1, stats1, err := timed.CompileVec(vr.Plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stats1.SetTiming(true)
		rows1, err := DrainVec(v1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		if rowMultiset(rows1) != rowMultiset(rows0) {
			t.Fatalf("%s: timing changed the result multiset", name)
		}
		statsEqual(t, name, stats1.Snapshot(), stats0.Snapshot())
	}
}

// TestFormatAnalyzeRendering renders Q5 timed and then reopened untimed, the
// index-NL plans of Q3S, Q5 and Q10, and the merge-only plan of Q5: an
// untimed execution shows the same rows and batches without time=, and
// without a result cache no node reads "not executed" — an index-NL join's
// inner leaf is a scan with its own counts, a merge or index-NL join is
// marked "via hash", and a sort enforcer is elided.
func TestFormatAnalyzeRendering(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	q := tpch.Q5()
	m, _ := cost.NewModel(q, cat, cost.DefaultParams())
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	comp := &Compiler{Q: q, Cat: cat}
	v, stats, err := comp.CompileVec(vr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	stats.SetTiming(true)
	if _, err := DrainVec(v); err != nil {
		t.Fatal(err)
	}
	text := stats.Format()
	for _, want := range []string{"EXPLAIN ANALYZE", "est=", "act=", "qerr=", "cols=", "batches=", "time="} {
		if !strings.Contains(text, want) {
			t.Fatalf("analyze output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "HashAggregate") {
		t.Fatalf("analyze output missing aggregate line:\n%s", text)
	}
	stats.SetTiming(false)
	if _, err := DrainVec(v); err != nil {
		t.Fatal(err)
	}
	untimed := stats.Format()
	if strings.Contains(untimed, "time=") {
		t.Fatalf("an untimed execution renders times:\n%s", untimed)
	}
	if times := regexp.MustCompile(` time=[^\]]*`); times.ReplaceAllString(text, "") != untimed {
		t.Fatalf("the untimed reopen differs from the timed execution:\n%s\ntimed:\n%s", untimed, text)
	}

	for _, q := range []*relalg.Query{tpch.Q3S(), tpch.Q5(), tpch.Q10()} {
		plan := indexNLPlan(t, q, cat)
		v, stats, err := (&Compiler{Q: q, Cat: cat}).CompileVec(plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DrainVec(v); err != nil {
			t.Fatal(err)
		}
		text := stats.Format()
		if strings.Contains(text, "not executed") || strings.Contains(text, "index of parent join") ||
			!strings.Contains(text, "IndexNLJoin") {
			t.Fatalf("%s: every node must render as executed on its own:\n%s", q.Name, text)
		}
		if strings.Count(text, " via hash ") != strings.Count(text, "IndexNLJoin") {
			t.Fatalf("%s: every index-NL join must render as run on the hash join:\n%s", q.Name, text)
		}
		// The node lines follow the plan in pre-order, below the header
		// and the aggregation: a join's inner leaf is the line after it.
		var nodes []*relalg.Plan
		eachPlanNode(plan, func(p *relalg.Plan) { nodes = append(nodes, p) })
		lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
		lines = lines[len(lines)-len(nodes):]
		for i, p := range nodes {
			if p.Phy != relalg.PhyIndexNLJoin {
				continue
			}
			leaf := strings.TrimSpace(lines[i+1])
			m := rowsAct.FindStringSubmatch(leaf)
			if !strings.HasPrefix(leaf, "IndexScan ") || m == nil || m[1] != m[2] {
				t.Fatalf("%s: the inner leaf of %v must render as an IndexScan with rows= equal to act=, not %q:\n%s",
					q.Name, p.Expr, leaf, text)
			}
		}
	}

	// The merge-only Q5 plan: every merge join ran on the hash join, and
	// every sort enforcer was compiled to its child.
	mr, err := volcano.Optimize(m, relalg.SpaceOptions{MergeJoin: true, SortEnforcer: true})
	if err != nil {
		t.Fatal(err)
	}
	var merges, sorts int
	eachPlanNode(mr.Plan, func(p *relalg.Plan) {
		switch {
		case p.Phy == relalg.PhyMergeJoin:
			merges++
		case p.Log == relalg.LogEnforce:
			sorts++
		}
	})
	if merges == 0 || sorts == 0 {
		t.Fatalf("the merge-only Q5 plan holds %d merge joins and %d sorts; it no longer covers both:\n%s",
			merges, sorts, mr.Plan.Explain(q))
	}
	v, stats, err = (&Compiler{Q: q, Cat: cat}).CompileVec(mr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DrainVec(v); err != nil {
		t.Fatal(err)
	}
	text = stats.Format()
	if strings.Contains(text, "not executed") || strings.Count(text, "MergeJoin") != merges ||
		strings.Count(text, " via hash  [") != merges || strings.Count(text, "| elided]") != sorts {
		t.Fatalf("merge-only Q5: want %d merge joins marked via hash and %d sorts elided:\n%s", merges, sorts, text)
	}
}

// refEstErr is the estimation error as the serving layer computed it from a
// cardinality snapshot before RunStats.EstErr: the mean |ln(actual/estimated)|
// over the plan's non-enforcer nodes with an observed cardinality, both sides
// floored at one row.
func refEstErr(plan *relalg.Plan, cards map[relalg.RelSet]int64) float64 {
	var sum float64
	var n int
	var walk func(p *relalg.Plan)
	walk = func(p *relalg.Plan) {
		if p == nil {
			return
		}
		if p.Log != relalg.LogEnforce {
			if act, ok := cards[p.Expr]; ok {
				a, est := float64(act), p.Card
				if a < 1 {
					a = 1
				}
				if est < 1 {
					est = 1
				}
				sum += math.Abs(math.Log(a / est))
				n++
			}
		}
		walk(p.Left)
		walk(p.Right)
	}
	walk(plan)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestEstErrMatchesReference holds RunStats.EstErr, the mean ln q-error, to
// refEstErr over the execution's cardinality snapshot: for every named TPC-H
// query in the served and the full plan space and in the space of index-NL
// joins alone, and for a run whose counts a result-cache probe hit replays.
func TestEstErrMatchesReference(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	check := func(label string, plan *relalg.Plan, stats *RunStats) {
		t.Helper()
		got, want := stats.EstErr(), refEstErr(plan, stats.Snapshot())
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s: EstErr %v, reference %v", label, got, want)
		}
		t.Logf("%s: %.4f", label, got)
	}
	for name, q := range tpch.Queries() {
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for space, opts := range map[string]relalg.SpaceOptions{"served": relalg.ServedSpace(), "full": relalg.DefaultSpace(),
			"index-NL only": {IndexNL: true, SortEnforcer: true}} {
			vr, err := volcano.Optimize(m, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, space, err)
			}
			v, stats, err := (&Compiler{Q: q, Cat: cat}).CompileVec(vr.Plan)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, space, err)
			}
			if _, err := DrainVec(v); err != nil {
				t.Fatalf("%s/%s: %v", name, space, err)
			}
			check(name+"/"+space, vr.Plan, stats)
		}
	}

	q := tpch.Q3S()
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	cands := BuildCacheCandidates(q, vr.Plan, relalg.NewFingerprinter(q))
	cache := rescache.New(64 << 20)
	for _, label := range []string{"spool", "probe"} {
		comp := &Compiler{Q: q, Cat: cat, Cache: cache, CacheCands: cands}
		v, stats, err := comp.CompileVec(vr.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DrainVec(v); err != nil {
			t.Fatal(err)
		}
		if hits, _ := comp.CacheDecisions(); label == "probe" && hits == 0 {
			t.Fatal("the probe run hit nothing")
		}
		check("Q3S/"+label, vr.Plan, stats)
	}
}

// rowsAct captures a rendered node's act= and rows= counts.
var rowsAct = regexp.MustCompile(` act=(\d+) .*\| rows=(\d+) `)

func TestQError(t *testing.T) {
	for _, c := range []struct {
		est  float64
		act  int64
		want float64
	}{{100, 100, 1}, {10, 100, 10}, {100, 10, 10}, {0, 0, 1}, {0.5, 2, 2}} {
		if got := qError(c.est, c.act); got != c.want {
			t.Fatalf("qError(%v, %d) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
}

// BenchmarkProfilingOverhead is the overhead guard: one held Q3S tree
// executed untimed ("off", every request's cost) and timed ("on", two clock
// reads per batch and node).
func BenchmarkProfilingOverhead(b *testing.B) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.005, Seed: 7})
	q := tpch.Q3S()
	m, _ := cost.NewModel(q, cat, cost.DefaultParams())
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		b.Fatal(err)
	}
	v, stats, err := (&Compiler{Q: q, Cat: cat}).CompileVec(vr.Plan)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, timed bool) {
		stats.SetTiming(timed)
		for i := 0; i < b.N; i++ {
			if _, err := CountVec(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
