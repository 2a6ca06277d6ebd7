package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// TestExplainAnalyzeMatchesRunStats asserts the tentpole invariant: the
// row count a profiling span records for a plan node equals the RunStats
// cardinality of that node's subexpression, for every counted node of
// every workload query, serial and under the parallel aggregation.
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
		for _, par := range []int{1, 2, 4} {
			prof := NewPlanProfile()
			comp := &Compiler{Q: q, Cat: cat, Parallelism: par, Prof: prof}
			v, stats, err := comp.CompileVec(vr.Plan)
			if err != nil {
				t.Fatalf("%s (par=%d): %v", name, par, err)
			}
			rows, err := DrainVec(v)
			if err != nil {
				t.Fatalf("%s (par=%d): %v", name, par, err)
			}
			checked := 0
			var walk func(p *relalg.Plan)
			walk = func(p *relalg.Plan) {
				if p == nil {
					return
				}
				act, counted := stats.Card(p.Expr)
				if counted && p.Log != relalg.LogEnforce {
					sp := prof.SpanOf(p)
					if sp == nil {
						// The index-NL inner leaf is folded into the join
						// operator and never compiled as its own node.
						if !(p.Log == relalg.LogScan && p.Expr.IsSingle() && !hasOwnCounter(vr.Plan, p)) {
							t.Fatalf("%s (par=%d): counted node %v has no span", name, par, p.Expr)
						}
					} else if sp.Rows != act {
						t.Fatalf("%s (par=%d): span of %v recorded %d rows, RunStats %d",
							name, par, p.Expr, sp.Rows, act)
					} else if schema, err := comp.PlanSchema(p); err != nil || prof.cols[p] != len(schema) {
						t.Fatalf("%s (par=%d): profile says %v carries %d columns, its schema is %v (err %v)",
							name, par, p.Expr, prof.cols[p], schema, err)
					} else {
						checked++
					}
				}
				walk(p.Left)
				walk(p.Right)
			}
			walk(vr.Plan)
			if checked == 0 {
				t.Fatalf("%s (par=%d): no counted node verified", name, par)
			}
			// The terminal aggregation span must cover the emitted result.
			if q.Agg != nil && prof.Agg.Rows != int64(len(rows)) {
				t.Fatalf("%s (par=%d): agg span rows=%d, result rows=%d",
					name, par, prof.Agg.Rows, len(rows))
			}
			text := prof.Format(q, vr.Plan, stats)
			if !strings.Contains(text, "act=") || !strings.Contains(text, "time=") {
				t.Fatalf("%s (par=%d): analyze output missing annotations:\n%s", name, par, text)
			}
			// The header speaks of workers exactly when the tree has some.
			fused := parallelOf(v) != nil
			if fused != (par > 1 && q.Agg != nil) {
				t.Fatalf("%s (par=%d): parallel aggregation = %v", name, par, fused)
			}
			header, _, _ := strings.Cut(text, "\n")
			want := "EXPLAIN ANALYZE"
			if fused {
				want += fmt.Sprintf(" (parallelism=%d, operator times are summed across workers)", par)
			}
			if header != want {
				t.Fatalf("%s (par=%d): header %q, want %q", name, par, header, want)
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

// TestProfilingDifferential asserts profiling observes without
// participating: with Prof on, result multisets and RunStats feedback are
// byte-identical to the unprofiled execution at every parallelism.
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

			profiled := &Compiler{Q: q, Cat: cat, Parallelism: par, Prof: NewPlanProfile()}
			v1, stats1, err := profiled.CompileVec(vr.Plan)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rows1, err := DrainVec(v1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			if rowMultiset(rows1) != rowMultiset(rows0) {
				t.Fatalf("%s (par=%d): profiling changed the result multiset", name, par)
			}
			statsEqual(t, name, stats1.Snapshot(), stats0.Snapshot())
		}
	}
}

func TestFormatAnalyzeRendering(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	q := tpch.Q5()
	m, _ := cost.NewModel(q, cat, cost.DefaultParams())
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	prof := NewPlanProfile()
	comp := &Compiler{Q: q, Cat: cat, Parallelism: 4, Prof: prof}
	v, stats, err := comp.CompileVec(vr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DrainVec(v); err != nil {
		t.Fatal(err)
	}
	text := prof.Format(q, vr.Plan, stats)
	for _, want := range []string{"EXPLAIN ANALYZE", "parallelism=4", "est=", "act=", "qerr=", "cols=", "batches=", "time="} {
		if !strings.Contains(text, want) {
			t.Fatalf("analyze output missing %q:\n%s", want, text)
		}
	}
	if q.Agg != nil && !strings.Contains(text, "HashAggregate") {
		t.Fatalf("analyze output missing aggregate line:\n%s", text)
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

// BenchmarkProfilingOverhead is the overhead guard: "off" must track the
// unprofiled baseline (same code path, Prof untouched), "on" bounds the
// cost of full per-operator profiling.
func BenchmarkProfilingOverhead(b *testing.B) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.005, Seed: 7})
	q := tpch.Q3S()
	m, _ := cost.NewModel(q, cat, cost.DefaultParams())
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, profiled bool) {
		for i := 0; i < b.N; i++ {
			comp := &Compiler{Q: q, Cat: cat, Parallelism: 1}
			if profiled {
				comp.Prof = NewPlanProfile()
			}
			v, _, err := comp.CompileVec(vr.Plan)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := CountVec(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
