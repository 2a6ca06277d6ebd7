package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/systemr"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// Figure4 reproduces Figure 4: initial ("from scratch") optimization across
// architectures — (a) running time normalized to Volcano, (b) pruning ratio
// of plan-table entries, (c) pruning ratio of plan alternatives — and the
// census behind the ratios: each query's unpruned search space, the
// denominator of 4(b)/(c) and 7(b)/(c), and the declarative (PruneAll)
// optimizer's live groups and alternatives.
func (e *Env) Figure4() []*Table {
	queries := tpch.JoinWorkload()
	ta := &Table{Title: "Figure 4(a): initial optimization time (normalized to Volcano)",
		Header: []string{"query", "volcano(abs)", "volcano", "systemr", "evita", "declarative"}}
	tb := &Table{Title: "Figure 4(b): pruning ratio, plan table entries",
		Header: []string{"query", "declarative", "evita", "volcano"}}
	tc := &Table{Title: "Figure 4(c): pruning ratio, plan alternatives",
		Header: []string{"query", "declarative", "evita", "volcano"}}
	td := &Table{Title: "Figure 4 census: search space and declarative live state",
		Header: []string{"query", "census-groups", "census-alts", "live-groups", "live-alts"}}

	for _, q := range queries {
		cg, ca := e.Census(q)
		m := e.Model(q)

		volT := e.volcanoTime(m)
		vr, err := volcano.Optimize(m, e.Space)
		if err != nil {
			panic(err)
		}
		sysT := e.timeIt(func() { systemr.Optimize(m, e.Space) })

		run := func(mode core.Pruning) (liveG, liveA int, norm float64) {
			d := e.timeIt(func() {
				o, _ := e.optimize(e.Model(q), e.Space, mode)
				liveG, liveA = o.LiveState()
			})
			return liveG, liveA, float64(d) / float64(volT)
		}
		evG, evA, evN := run(core.PruneEvita)
		declG, declA, declN := run(core.PruneAll)

		ta.Rows = append(ta.Rows, []string{q.Name, ms(volT), "1.00",
			f2(float64(sysT) / float64(volT)), f2(evN), f2(declN)})
		tb.Rows = append(tb.Rows, []string{q.Name,
			f2(1 - ratio(declG, cg)),
			f2(1 - ratio(evG, cg)),
			f2(1 - ratio(vr.Metrics.Groups, cg)),
		})
		tc.Rows = append(tc.Rows, []string{q.Name,
			f2(1 - ratio(declA, ca)),
			f2(1 - ratio(evA, ca)),
			f2(1 - ratio(vr.Metrics.CostedAlts, ca)),
		})
		td.Rows = append(td.Rows, []string{q.Name, fmt.Sprint(cg), fmt.Sprint(ca), fmt.Sprint(declG), fmt.Sprint(declA)})
	}
	tb.Notes = append(tb.Notes,
		"paper: declarative prunes 35-80% of plan table entries, Evita Raced 0%")
	tc.Notes = append(tc.Notes,
		"paper: declarative prunes 55-75% of alternatives, 4-8% above Evita Raced")
	return []*Table{ta, tb, tc, td}
}

// Figure5Ratios is the join-selectivity sweep of Figure 5.
var Figure5Ratios = []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}

// Figure5 reproduces Figure 5: incremental re-optimization of Q5 after a
// synthetic change to one join expression's selectivity — (a) re-opt time
// normalized to a full Volcano optimization, (b) fraction of plan-table
// entries updated, (c) fraction of plan alternatives updated — and the counts
// behind (b) and (c): the repair's touched groups and touched entries per
// expression (A-groups, A-entries, ...), whose denominators are Q5's Figure 4
// census.
func (e *Env) Figure5() []*Table {
	q := tpch.Q5()
	cg, ca := e.Census(q)
	exprs := tpch.Q5Expressions()

	header, countHeader := []string{"ratio"}, []string{"ratio"}
	for _, ex := range exprs {
		header = append(header, ex.Name)
		short, _, _ := strings.Cut(ex.Name, "=")
		countHeader = append(countHeader, short+"-groups", short+"-entries")
	}
	ta := &Table{Title: "Figure 5(a): Q5 re-optimization time after join-selectivity change (normalized to Volcano)", Header: header}
	tb := &Table{Title: "Figure 5(b): update ratio, plan table entries", Header: header}
	tc := &Table{Title: "Figure 5(c): update ratio, plan alternatives", Header: header}
	td := &Table{Title: "Figure 5 counts: touched groups and entries per repair", Header: countHeader}

	o, _ := e.optimize(e.Model(q), e.Space, core.PruneAll)
	volT := e.volcanoTime(e.Model(q))

	for _, r := range Figure5Ratios {
		rowA := []string{fmt.Sprintf("%g", r)}
		rowB := []string{fmt.Sprintf("%g", r)}
		rowC := []string{fmt.Sprintf("%g", r)}
		rowD := []string{fmt.Sprintf("%g", r)}
		for _, ex := range exprs {
			var reoptT time.Duration
			var met core.Metrics
			// Alternate the factor with its reset so every timed
			// Reoptimize call propagates a real delta; keep the
			// minimum across repeats, like the paper's averaging
			// across runs.
			for rep := 0; rep < e.Repeats; rep++ {
				o.UpdateCardFactor(ex.Set, r)
				d := e.timeOnce(func() {
					if _, err := o.Reoptimize(); err != nil {
						panic(err)
					}
				})
				met = o.Metrics()
				o.UpdateCardFactor(ex.Set, 1)
				if _, err := o.Reoptimize(); err != nil {
					panic(err)
				}
				if rep == 0 || d < reoptT {
					reoptT = d
				}
			}
			rowA = append(rowA, fmt.Sprintf("%.4f", float64(reoptT)/float64(volT)))
			rowB = append(rowB, f3(ratio(met.TouchedGroups, cg)))
			rowC = append(rowC, f3(ratio(met.TouchedEntries, ca)))
			rowD = append(rowD, fmt.Sprint(met.TouchedGroups), fmt.Sprint(met.TouchedEntries))
		}
		ta.Rows = append(ta.Rows, rowA)
		tb.Rows = append(tb.Rows, rowB)
		tc.Rows = append(tc.Rows, rowC)
		td.Rows = append(td.Rows, rowD)
	}
	ta.Notes = append(ta.Notes,
		"paper: speedups of 12x (lowest join) to 300x (topmost join); larger expressions are cheaper to update")
	return []*Table{ta, tb, tc, td}
}

// Figure6 reproduces Figure 6: re-optimization of Q5 driven by ACTUAL
// execution feedback over partitions of skewed data — per-round re-opt time
// (normalized to Volcano) and update ratios. Each round feeds back the way
// the server and the stream controller do: aqp.Calibrator.Observe folds the
// executed plan's cardinalities into cumulative averages per observed set,
// calibrates each factor against the corrections its subsets already carry,
// and returns only the factors that left a 2x band around the one applied
// (threshold 1 in ratio space); each is staged with UpdateCardFactor. The
// counts behind (b) and (c) are each round's touched groups and entries,
// whose denominators are Q5's Figure 4 census.
func (e *Env) Figure6(partitions int, skew float64) []*Table {
	q := tpch.Q5()
	cg, ca := e.Census(q)

	m := e.Model(q) // uniform statistics, as the paper optimizes partition 0
	o, plan := e.optimize(m, e.Space, core.PruneAll)
	volT := e.volcanoTime(e.Model(q))

	ta := &Table{Title: "Figure 6(a): Q5 re-optimization time from real execution feedback (normalized to Volcano)",
		Header: []string{"round", "reopt/volcano", "reopt(abs)", "plan-changed"}}
	tb := &Table{Title: "Figure 6(b): update ratio, plan table entries",
		Header: []string{"round", "ratio"}}
	tc := &Table{Title: "Figure 6(c): update ratio, plan alternatives",
		Header: []string{"round", "ratio"}}
	td := &Table{Title: "Figure 6 counts: touched groups and entries per round",
		Header: []string{"round", "touched-groups", "touched-entries"}}

	cal := aqp.NewCalibrator(true, 1)
	lastSig := plan.Signature()
	for round := 1; round < partitions; round++ {
		// Each partition is an independently generated skewed catalog
		// (Zipf) with its own seed — "each of which exhibits
		// different properties".
		pcat := tpch.Generate(tpch.Config{
			ScaleFactor:      0.002,
			Skew:             skew,
			Seed:             uint64(1000 + round),
			HistogramBuckets: 16,
		})
		comp := &exec.Compiler{Q: q, Cat: pcat}
		v, stats, err := comp.CompileVec(plan)
		if err != nil {
			panic(err)
		}
		if _, err := exec.CountVec(v); err != nil {
			panic(err)
		}
		for set, f := range cal.Observe(stats.Snapshot(), m) {
			o.UpdateCardFactor(set, f)
		}
		d := e.timeOnce(func() {
			plan, err = o.Reoptimize()
			if err != nil {
				panic(err)
			}
		})
		met := o.Metrics()
		changed := plan.Signature() != lastSig
		lastSig = plan.Signature()
		ta.Rows = append(ta.Rows, []string{fmt.Sprint(round),
			fmt.Sprintf("%.4f", float64(d)/float64(volT)),
			ms(d),
			fmt.Sprint(changed)})
		tb.Rows = append(tb.Rows, []string{fmt.Sprint(round), f3(ratio(met.TouchedGroups, cg))})
		tc.Rows = append(tc.Rows, []string{fmt.Sprint(round), f3(ratio(met.TouchedEntries, ca))})
		td.Rows = append(td.Rows, []string{fmt.Sprint(round), fmt.Sprint(met.TouchedGroups), fmt.Sprint(met.TouchedEntries)})
	}
	ta.Notes = append(ta.Notes, "paper: speedups of 10x or greater; 20-60 re-optimizations/second vs Volcano's 2")
	return []*Table{ta, tb, tc, td}
}

// Figure7Configs are the pruning-strategy combinations of Figures 7 and 8.
func Figure7Configs() []core.Pruning {
	return []core.Pruning{
		core.PruneAggSel,
		core.PruneAggSelRefCount,
		core.PruneAggSelBound,
		core.PruneAll,
	}
}

// Figure7 reproduces Figure 7: the contribution of each pruning strategy to
// initial optimization across the workload, and the counts behind (b) and
// (c): per pruning config, the live groups and alternatives and the pruned
// ones, (b)'s and (c)'s numerators, which together make the query's census.
func (e *Env) Figure7() []*Table {
	queries := tpch.JoinWorkload()
	configs := Figure7Configs()
	header, countHeader := []string{"query"}, []string{"query"}
	for _, c := range configs {
		header = append(header, c.String())
		for _, col := range []string{"-live-groups", "-live-alts", "-pruned-groups", "-pruned-alts"} {
			countHeader = append(countHeader, c.String()+col)
		}
	}
	ta := &Table{Title: "Figure 7(a): initial optimization time by pruning config (normalized to Volcano)", Header: header}
	tb := &Table{Title: "Figure 7(b): pruning ratio, plan table entries", Header: header}
	tc := &Table{Title: "Figure 7(c): pruning ratio, plan alternatives", Header: header}
	td := &Table{Title: "Figure 7 counts: live and pruned groups and alternatives", Header: countHeader}

	for _, q := range queries {
		cg, ca := e.Census(q)
		volT := e.volcanoTime(e.Model(q))
		rowA := []string{q.Name}
		rowB := []string{q.Name}
		rowC := []string{q.Name}
		rowD := []string{q.Name}
		for _, cfg := range configs {
			var liveG, liveA int
			d := e.timeIt(func() {
				o, _ := e.optimize(e.Model(q), e.Space, cfg)
				liveG, liveA = o.LiveState()
			})
			rowA = append(rowA, f2(float64(d)/float64(volT)))
			rowB = append(rowB, f2(1-ratio(liveG, cg)))
			rowC = append(rowC, f2(1-ratio(liveA, ca)))
			rowD = append(rowD, fmt.Sprint(liveG), fmt.Sprint(liveA), fmt.Sprint(cg-liveG), fmt.Sprint(ca-liveA))
		}
		ta.Rows = append(ta.Rows, rowA)
		tb.Rows = append(tb.Rows, rowB)
		tc.Rows = append(tc.Rows, rowC)
		td.Rows = append(td.Rows, rowD)
	}
	ta.Notes = append(ta.Notes, "paper: each technique adds at most ~10% runtime overhead at initial optimization")
	tb.Notes = append(tb.Notes, "paper: each technique adds pruning capability")
	return []*Table{ta, tb, tc, td}
}

// Figure8 reproduces Figure 8: the pruning strategies during INCREMENTAL
// re-optimization of Q5 when the Orders scan cost changes — re-opt time
// normalized to Volcano, plus the amount of (re)pruning performed — and the
// counts behind (b) and (c): per pruning config, the repair's flipped groups
// and flipped alternatives (the numerators, over Q5's Figure 4 census) and
// its touched entries.
func (e *Env) Figure8() []*Table {
	q := tpch.Q5()
	cg, ca := e.Census(q)
	configs := Figure7Configs()
	header, countHeader := []string{"scan-ratio"}, []string{"scan-ratio"}
	for _, c := range configs {
		header = append(header, c.String())
		countHeader = append(countHeader, c.String()+"-flipped-groups", c.String()+"-flipped-alts", c.String()+"-touched-entries")
	}
	ta := &Table{Title: "Figure 8(a): Q5 re-optimization time, Orders scan-cost sweep (normalized to Volcano)", Header: header}
	tb := &Table{Title: "Figure 8(b): pruning performed during re-opt, plan table entries", Header: header}
	tc := &Table{Title: "Figure 8(c): pruning performed during re-opt, plan alternatives", Header: header}
	td := &Table{Title: "Figure 8 counts: flipped groups, flipped alternatives and touched entries per repair", Header: countHeader}

	volT := e.volcanoTime(e.Model(q))
	for _, r := range Figure5Ratios {
		rowA := []string{fmt.Sprintf("%g", r)}
		rowB := []string{fmt.Sprintf("%g", r)}
		rowC := []string{fmt.Sprintf("%g", r)}
		rowD := []string{fmt.Sprintf("%g", r)}
		for _, cfg := range configs {
			o, _ := e.optimize(e.Model(q), e.Space, cfg)
			before := o.Metrics()
			o.UpdateScanCostFactor(tpch.Q5Orders, r)
			d := e.timeOnce(func() {
				if _, err := o.Reoptimize(); err != nil {
					panic(err)
				}
			})
			after := o.Metrics()
			rowA = append(rowA, fmt.Sprintf("%.4f", float64(d)/float64(volT)))
			flippedGroups := int(after.GroupKills - before.GroupKills + after.GroupRevives - before.GroupRevives)
			flippedAlts := int(after.Suppressions - before.Suppressions + after.Revivals - before.Revivals)
			rowB = append(rowB, f3(ratio(flippedGroups, cg)))
			rowC = append(rowC, f3(ratio(flippedAlts, ca)))
			rowD = append(rowD, fmt.Sprint(flippedGroups), fmt.Sprint(flippedAlts), fmt.Sprint(after.TouchedEntries))
		}
		ta.Rows = append(ta.Rows, rowA)
		tb.Rows = append(tb.Rows, rowB)
		tc.Rows = append(tc.Rows, rowC)
		td.Rows = append(td.Rows, rowD)
	}
	ta.Notes = append(ta.Notes, "paper: techniques work best in combination; significant running-time benefits in the incremental setting")
	return []*Table{ta, tb, tc, td}
}

// SmallQueries reproduces the §5.1 remark: Q1, Q3S and Q6 are simple enough
// that every architecture optimizes them quickly (paper: under 80 ms, with
// the declarative engine adding 10-50 ms of startup overhead).
func (e *Env) SmallQueries() *Table {
	t := &Table{Title: "Section 5.1: small-query optimization times",
		Header: []string{"query", "volcano", "systemr", "declarative"}}
	for _, q := range []*relalg.Query{tpch.Q1(), tpch.Q3S(), tpch.Q6()} {
		m := e.Model(q)
		volT := e.volcanoTime(m)
		sysT := e.timeIt(func() { systemr.Optimize(m, e.Space) })
		declT := e.timeIt(func() { e.optimize(e.Model(q), e.Space, core.PruneAll) })
		t.Rows = append(t.Rows, []string{q.Name, ms(volT), ms(sysT), ms(declT)})
	}
	return t
}
