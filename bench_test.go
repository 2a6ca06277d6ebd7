package repro

// Benchmarks regenerating each of the paper's evaluation artifacts. Each
// benchmark wraps the measured kernel of the corresponding figure/table;
// cmd/reprobench prints the full tables. Run with:
//
//	go test -bench=. -benchmem .
import (
	"fmt"
	"testing"

	"repro/internal/aqp"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/linearroad"
	"repro/internal/relalg"
	"repro/internal/systemr"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

func benchEnv() *bench.Env {
	e := bench.NewEnv(tpch.Config{ScaleFactor: 0.005, Seed: 42})
	e.Repeats = 1
	return e
}

// BenchmarkFig4InitialOptimization measures initial ("from scratch")
// optimization per architecture on the Figure 4 workload.
func BenchmarkFig4InitialOptimization(b *testing.B) {
	e := benchEnv()
	for _, q := range tpch.JoinWorkload() {
		m := e.Model(q)
		b.Run(q.Name+"/volcano", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := volcano.Optimize(m, e.Space); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.Name+"/systemr", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := systemr.Optimize(m, e.Space); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, mode := range []core.Pruning{core.PruneEvita, core.PruneAll} {
			mode := mode
			b.Run(q.Name+"/declarative-"+mode.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					o, err := core.New(e.Model(q), e.Space, mode)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := o.Optimize(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCloneQ5 measures what a plan-cache miss pays when it finds a
// template for its join graph: Q5's optimized PruneAll state copied into a
// new model (clone), and that copy re-priced and repaired to the new
// model's optimum (clone+reoptimize), in the full and the served space.
// Compare declarative-all of BenchmarkFig4InitialOptimization, the
// from-scratch optimization it replaces.
func BenchmarkCloneQ5(b *testing.B) {
	e := benchEnv()
	q := tpch.Q5()
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	rel, pred := ids[:len(q.Rels)], ids[:len(q.Joins)]
	for _, sp := range []struct {
		name  string
		space relalg.SpaceOptions
	}{{"full", e.Space}, {"served", relalg.ServedSpace()}} {
		tmpl, err := core.New(e.Model(q), sp.space, core.PruneAll)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tmpl.Optimize(); err != nil {
			b.Fatal(err)
		}
		b.Run(sp.name+"/clone", func(b *testing.B) {
			m := e.Model(q)
			for i := 0; i < b.N; i++ {
				tmpl.Clone(m, rel, pred)
			}
		})
		b.Run(sp.name+"/clone+reoptimize", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tmpl.Clone(e.Model(q), rel, pred).Reoptimize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5IncrementalReopt measures one incremental re-optimization of
// Q5 after a join-selectivity change, per changed expression (Figure 5).
func BenchmarkFig5IncrementalReopt(b *testing.B) {
	e := benchEnv()
	q := tpch.Q5()
	for _, ex := range tpch.Q5Expressions() {
		ex := ex
		b.Run(ex.Name, func(b *testing.B) {
			o, err := core.New(e.Model(q), e.Space, core.PruneAll)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := o.Optimize(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := 4.0
				if i%2 == 1 {
					f = 1.0 // alternate so every iteration is a real delta
				}
				o.UpdateCardFactor(ex.Set, f)
				if _, err := o.Reoptimize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The non-incremental comparator: a full Volcano optimization.
	b.Run("volcano-full", func(b *testing.B) {
		m := e.Model(q)
		for i := 0; i < b.N; i++ {
			if _, err := volcano.Optimize(m, e.Space); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6ExecutionFeedback measures one feedback round of Figure 6:
// execute Q5 over a skewed partition, re-optimize incrementally.
func BenchmarkFig6ExecutionFeedback(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		e.Figure6(3, 0.5)
	}
}

// BenchmarkFig7PruningConfigs measures initial optimization of Q5 under
// each pruning configuration (Figure 7).
func BenchmarkFig7PruningConfigs(b *testing.B) {
	e := benchEnv()
	q := tpch.Q5()
	for _, mode := range bench.Figure7Configs() {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := core.New(e.Model(q), e.Space, mode)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := o.Optimize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8ScanCostReopt measures incremental re-optimization of Q5
// under an Orders scan-cost change per pruning configuration (Figure 8).
func BenchmarkFig8ScanCostReopt(b *testing.B) {
	e := benchEnv()
	q := tpch.Q5()
	for _, mode := range bench.Figure7Configs() {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			o, err := core.New(e.Model(q), e.Space, mode)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := o.Optimize(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := 8.0
				if i%2 == 1 {
					f = 1.0
				}
				o.UpdateScanCostFactor(tpch.Q5Orders, f)
				if _, err := o.Reoptimize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// streamBench drives an AQP controller configured by cfg over the first
// 20 s of the Linear Road stream in slices of secs seconds — the kernel of
// Figures 9/10 and Table 3. It sets cfg's query, catalog, cost parameters,
// space and pruning; the parameters once, outside the timed loop.
func streamBench(b *testing.B, cfg aqp.Config, secs int64) {
	cfg.Query, cfg.Params, cfg.Space, cfg.Pruning = linearroad.SegTollS(), cost.DefaultParams(), relalg.DefaultSpace(), core.PruneAll
	for i := 0; i < b.N; i++ {
		gen := linearroad.NewGen(7, 100)
		win := linearroad.NewWindows()
		cfg.Cat = win.Catalog()
		ctl, err := aqp.NewController(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for from := int64(0); from < 20; from += secs {
			win.Ingest(gen.Slice(from, from+secs))
			win.Materialize()
			if _, err := ctl.RunSlice(nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig9AQPReopt compares incremental and from-scratch
// re-optimization inside the adaptive loop (Figure 9).
func BenchmarkFig9AQPReopt(b *testing.B) {
	b.Run("incremental", func(b *testing.B) { streamBench(b, aqp.Config{Strategy: aqp.Incremental, Cumulative: true}, 1) })
	b.Run("non-incremental", func(b *testing.B) { streamBench(b, aqp.Config{Strategy: aqp.FullReopt, Cumulative: true}, 1) })
}

// BenchmarkFig10AQPExecution measures the adaptive execution loop with
// cumulative vs non-cumulative statistics (Figure 10).
func BenchmarkFig10AQPExecution(b *testing.B) {
	b.Run("cumulative", func(b *testing.B) { streamBench(b, aqp.Config{Strategy: aqp.Incremental, Cumulative: true}, 1) })
	b.Run("non-cumulative", func(b *testing.B) { streamBench(b, aqp.Config{Strategy: aqp.Incremental}, 1) })
}

// BenchmarkTable3SliceSizes measures the adaptation-frequency trade-off
// (Table 3) at 1 s, 5 s and 10 s slices over a fixed-length stream.
func BenchmarkTable3SliceSizes(b *testing.B) {
	for _, secs := range []int64{1, 5, 10} {
		b.Run(fmt.Sprintf("slice-%ds", secs), func(b *testing.B) { streamBench(b, aqp.Config{Strategy: aqp.Incremental}, secs) })
	}
}

// BenchmarkAblationSearchOrder compares depth-first vs breadth-first
// expansion (the paper's §2.3 remark that any search order is admissible).
func BenchmarkAblationSearchOrder(b *testing.B) {
	e := benchEnv()
	q := tpch.Q8Join()
	for _, breadth := range []bool{false, true} {
		breadth := breadth
		name := "depth-first"
		if breadth {
			name = "breadth-first"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := core.New(e.Model(q), e.Space, core.PruneAll)
				if err != nil {
					b.Fatal(err)
				}
				o.SetBreadthFirst(breadth)
				if _, err := o.Optimize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPlanSpace measures optimization cost across plan-space
// restrictions (left-deep footnote-1 variant, operator subsets).
func BenchmarkAblationPlanSpace(b *testing.B) {
	e := benchEnv()
	q := tpch.Q5()
	spaces := map[string]relalg.SpaceOptions{
		"full":      relalg.DefaultSpace(),
		"left-deep": {HashJoin: true, MergeJoin: true, IndexNL: true, SortEnforcer: true, LeftDeepOnly: true},
		"hash-only": {HashJoin: true, SortEnforcer: true},
	}
	for name, space := range spaces {
		space := space
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := core.New(e.Model(q), space, core.PruneAll)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := o.Optimize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchExecQuery executes one TPC-H query under its Volcano plan at the scale
// every test and benchmark workload uses (SF 0.005) and ten times that. The
// executor is serial; the sub-benchmark keeps the name vec-p1 so its numbers
// compare with those recorded when a parallel setting existed.
func benchExecQuery(b *testing.B, q *relalg.Query) {
	for _, sf := range []float64{0.005, 0.05} {
		b.Run(fmt.Sprintf("sf%g", sf), func(b *testing.B) {
			cat := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: 42})
			m, err := cost.NewModel(q, cat, cost.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			vr, err := volcano.Optimize(m, relalg.DefaultSpace())
			if err != nil {
				b.Fatal(err)
			}
			b.Run("vec-p1", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					comp := &exec.Compiler{Q: q, Cat: cat}
					v, _, err := comp.CompileVec(vr.Plan)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := exec.CountVec(v); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkExecQ3S executes the paper's driving example (simplified TPC-H
// Q3).
func BenchmarkExecQ3S(b *testing.B) { benchExecQuery(b, tpch.Q3S()) }

// BenchmarkExecQ5 is the same sweep on TPC-H Q5 (six-way join with
// aggregation).
func BenchmarkExecQ5(b *testing.B) { benchExecQuery(b, tpch.Q5()) }

// BenchmarkExecQ10 is the same sweep on TPC-H Q10 (four-way join grouped by
// customer).
func BenchmarkExecQ10(b *testing.B) { benchExecQuery(b, tpch.Q10()) }

// BenchmarkExecQ1 is the same sweep on TPC-H Q1 (single-table aggregation
// over lineitem) — the aggregation-heavy workload; run with
// -benchmem to see the flat agg table keep the hot path allocation-free.
func BenchmarkExecQ1(b *testing.B) { benchExecQuery(b, tpch.Q1()) }

// BenchmarkFacade exercises the public API end to end (optimize +
// re-optimize), as a library consumer would.
func BenchmarkFacade(b *testing.B) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.005, Seed: 42})
	o, err := NewOptimizer(tpch.Q5(), cat)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := o.Optimize(); err != nil {
		b.Fatal(err)
	}
	target := tpch.Q5Expressions()[4].Set
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := 2.0
		if i%2 == 1 {
			f = 1.0
		}
		o.UpdateCardFactor(target, f)
		if _, err := o.Reoptimize(); err != nil {
			b.Fatal(err)
		}
	}
}
