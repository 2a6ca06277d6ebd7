package exec

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// TestExplainAnalyzeMatchesRunStats asserts that every counted node of every
// workload query, serial and under the parallel aggregation, has a span whose
// rows are its RunStats cardinality and whose width is its planned schema's,
// and that EXPLAIN ANALYZE's header names the workers that ran: at SF 0.002
// every aggregating query's probe table is large enough for P workers, at SF
// 0.0005 none is, and its execution runs one worker whatever P is.
func TestExplainAnalyzeMatchesRunStats(t *testing.T) {
	for _, tc := range []struct {
		sf   float64
		pars []int
	}{{0.002, []int{1, 2, 4}}, {0.0005, []int{4}}} {
		cat := tpch.Generate(tpch.Config{ScaleFactor: tc.sf, Seed: 7})
		for name, q := range tpch.Queries() {
			m, err := cost.NewModel(q, cat, cost.DefaultParams())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			vr, err := volcano.Optimize(m, relalg.DefaultSpace())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, par := range tc.pars {
				label := fmt.Sprintf("%s (sf=%g par=%d)", name, tc.sf, par)
				comp := &Compiler{Q: q, Cat: cat, Parallelism: par}
				v, stats, err := comp.CompileVec(vr.Plan)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				stats.SetTiming(true)
				rows, err := DrainVec(v)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checked := 0
				eachPlanNode(vr.Plan, func(p *relalg.Plan) {
					act, counted := stats.Card(p.Expr)
					if !counted || p.Log == relalg.LogEnforce {
						return
					}
					op := stats.node(p)
					if op == nil {
						// The index-NL inner leaf is folded into the join
						// operator and never compiled as its own node.
						if !(p.Log == relalg.LogScan && p.Expr.IsSingle() && !hasOwnCounter(vr.Plan, p)) {
							t.Fatalf("%s: counted node %v has no span", label, p.Expr)
						}
						return
					}
					if op.sp.Rows != act {
						t.Fatalf("%s: span of %v recorded %d rows, RunStats %d", label, p.Expr, op.sp.Rows, act)
					}
					if schema, err := comp.PlanSchema(p); err != nil || op.cols != len(schema) {
						t.Fatalf("%s: span says %v carries %d columns, its schema is %v (err %v)",
							label, p.Expr, op.cols, schema, err)
					}
					checked++
				})
				if checked == 0 {
					t.Fatalf("%s: no counted node verified", label)
				}
				// The terminal aggregation span must cover the emitted result.
				if q.Agg != nil && stats.agg.sp.Rows != int64(len(rows)) {
					t.Fatalf("%s: agg span rows=%d, result rows=%d", label, stats.agg.sp.Rows, len(rows))
				}
				text := stats.Format()
				if !strings.Contains(text, "act=") || !strings.Contains(text, "time=") {
					t.Fatalf("%s: analyze output missing annotations:\n%s", label, text)
				}
				pipe := parallelOf(v)
				if fused := pipe != nil; fused != (par > 1 && q.Agg != nil) {
					t.Fatalf("%s: parallel aggregation = %v", label, fused)
				}
				workers := 1
				if pipe != nil {
					workers = pipe.workers
					if want := map[float64]int{0.002: par, 0.0005: 1}[tc.sf]; workers != want {
						t.Fatalf("%s: %d workers ran over %d probe rows, want %d", label, workers, pipe.scan.leaf.data.n, want)
					}
				}
				header, _, _ := strings.Cut(text, "\n")
				want := "EXPLAIN ANALYZE"
				if workers > 1 {
					want += fmt.Sprintf(" (parallelism=%d, operator times are summed across workers)", workers)
				}
				if header != want {
					t.Fatalf("%s: header %q, want %q", label, header, want)
				}
			}
		}
	}
}

// hasOwnCounter reports whether node p is compiled as its own operator —
// false only for the inner (indexed) leaf of an index-NL join, which the
// join operator absorbs.
func hasOwnCounter(root, p *relalg.Plan) bool {
	var parent func(n *relalg.Plan) bool
	parent = func(n *relalg.Plan) bool {
		if n == nil {
			return false
		}
		if n.Phy == relalg.PhyIndexNLJoin && n.Left == p {
			return true
		}
		return parent(n.Left) || parent(n.Right)
	}
	return !parent(root)
}

// TestProfilingDifferential asserts timing observes without participating: a
// timed execution's result multiset and RunStats feedback are byte-identical
// to the untimed execution's at every parallelism.
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
		for _, par := range []int{1, 2, 4} {
			base := &Compiler{Q: q, Cat: cat, Parallelism: par}
			v0, stats0, err := base.CompileVec(vr.Plan)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rows0, err := DrainVec(v0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			timed := &Compiler{Q: q, Cat: cat, Parallelism: par}
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
				t.Fatalf("%s (par=%d): timing changed the result multiset", name, par)
			}
			statsEqual(t, name, stats1.Snapshot(), stats0.Snapshot())
		}
	}
}

// TestFormatAnalyzeRendering renders Q5 at P 4, timed and then reopened
// untimed, and the index-NL plans of Q3S, Q5 and Q10: an untimed execution
// shows the same rows and batches without time=, and without a result cache
// no node reads "not executed" — an index-NL join's inner leaf is part of
// its join.
func TestFormatAnalyzeRendering(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	q := tpch.Q5()
	m, _ := cost.NewModel(q, cat, cost.DefaultParams())
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	comp := &Compiler{Q: q, Cat: cat, Parallelism: 4}
	v, stats, err := comp.CompileVec(vr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	stats.SetTiming(true)
	if _, err := DrainVec(v); err != nil {
		t.Fatal(err)
	}
	text := stats.Format()
	for _, want := range []string{"EXPLAIN ANALYZE", "parallelism=4", "est=", "act=", "qerr=", "cols=", "batches=", "time="} {
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
		if strings.Contains(text, "not executed") || !strings.Contains(text, "IndexNLJoin") ||
			strings.Count(text, "| index of parent join]") != strings.Count(text, "IndexNLJoin") {
			t.Fatalf("%s: every index-NL inner leaf must render as part of its join:\n%s", q.Name, text)
		}
	}
}

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
	v, stats, err := (&Compiler{Q: q, Cat: cat, Parallelism: 1}).CompileVec(vr.Plan)
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
