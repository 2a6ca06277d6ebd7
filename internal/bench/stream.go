package bench

import (
	"fmt"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/linearroad"
	"repro/internal/relalg"
)

// streamRun drives one AQP controller over its own deterministic copy of
// the Linear Road stream (the generator is seeded, so every controller sees
// the identical stream), returning the per-slice results.
func (e *Env) streamRun(cfg aqp.Config, seed uint64, cars int, slices int, sliceSeconds int64) []aqp.SliceResult {
	gen := linearroad.NewGen(seed, cars)
	win := linearroad.NewWindows()
	cfg.Query = linearroad.SegTollS()
	cfg.Cat = win.Catalog()
	cfg.Params = e.Params
	cfg.Space = e.Space
	cfg.Parallelism = e.Parallelism
	if cfg.Pruning == (core.Pruning{}) {
		cfg.Pruning = core.PruneAll
	}
	ctl, err := aqp.NewController(cfg)
	if err != nil {
		panic(err)
	}
	var out []aqp.SliceResult
	for s := 0; s < slices; s++ {
		from := int64(s) * sliceSeconds
		win.Ingest(gen.Slice(from, from+sliceSeconds))
		win.Materialize()
		res, err := ctl.RunSlice(nil)
		if err != nil {
			panic(fmt.Sprintf("bench: stream slice %d: %v", s, err))
		}
		out = append(out, res)
	}
	return out
}

// goodAndBadPlans derives the Figure 10 static baselines: the "good single
// plan" is the plan an incremental controller converges to after seeing the
// whole stream (complete information), and the "bad plan" follows the most
// expensive alternative at every group under the same converged knowledge.
func (e *Env) goodAndBadPlans(seed uint64, cars int, slices int, sliceSeconds int64) (good, bad *relalg.Plan) {
	gen := linearroad.NewGen(seed, cars)
	win := linearroad.NewWindows()
	q := linearroad.SegTollS()
	ctl, err := aqp.NewController(aqp.Config{
		Query: q, Cat: win.Catalog(), Params: e.Params, Space: e.Space,
		Pruning: core.PruneAll, Strategy: aqp.Incremental, Cumulative: true,
	})
	if err != nil {
		panic(err)
	}
	var last aqp.SliceResult
	for s := 0; s < slices; s++ {
		from := int64(s) * sliceSeconds
		win.Ingest(gen.Slice(from, from+sliceSeconds))
		win.Materialize()
		last, err = ctl.RunSlice(nil)
		if err != nil {
			panic(err)
		}
	}
	good = last.Plan

	// Census over the converged model yields every alternative costed;
	// WorstPlan descends the most expensive ones.
	census, err := core.New(ctl.Model(), e.Space, core.PruneNone)
	if err != nil {
		panic(err)
	}
	if _, err := census.Optimize(); err != nil {
		panic(err)
	}
	bad, err = census.WorstPlan()
	if err != nil {
		panic(err)
	}
	return good, bad
}

// Figure9 reproduces Figure 9: per-slice re-optimization time over the
// Linear Road stream — a non-incremental re-optimizer pays a roughly
// constant price per slice while the incremental one converges toward zero.
func (e *Env) Figure9(slices int) *Table {
	const (
		seed  = 7
		cars  = 150
		secs  = 1
		every = 10 // print every k-th slice to keep the table readable
	)
	inc := e.streamRun(aqp.Config{Strategy: aqp.Incremental, Cumulative: true}, seed, cars, slices, secs)
	full := e.streamRun(aqp.Config{Strategy: aqp.FullReopt, Cumulative: true}, seed, cars, slices, secs)

	t := &Table{Title: "Figure 9: AQP re-optimization time per slice (SegTollS, Linear Road)",
		Header: []string{"slice", "non-incremental", "incremental", "inc-touched-entries"}}
	for s := 0; s < slices; s++ {
		if s%every != 0 && s != slices-1 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(s), ms(full[s].Reopt), ms(inc[s].Reopt), fmt.Sprint(inc[s].Touched),
		})
	}
	var incTot, fullTot time.Duration
	for s := range inc {
		incTot += inc[s].Reopt
		fullTot += full[s].Reopt
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("totals over %d slices: non-incremental %s, incremental %s", slices, ms(fullTot), ms(incTot)),
		"paper: non-incremental stays ~constant (~200ms each); incremental drops off rapidly, going to nearly zero")
	return t
}

// Figure10 reproduces Figure 10: cumulative execution time of the bad
// static plan, the good static plan, and the two adaptive schemes.
func (e *Env) Figure10(slices int) *Table {
	const (
		seed = 7
		cars = 150
		secs = 1
	)
	good, bad := e.goodAndBadPlans(seed, cars, slices, secs)

	runs := []struct {
		name string
		cfg  aqp.Config
	}{
		{"BadPlan", aqp.Config{Strategy: aqp.Static, StaticPlan: bad}},
		{"GoodPlan", aqp.Config{Strategy: aqp.Static, StaticPlan: good}},
		{"AQP-Cumulative", aqp.Config{Strategy: aqp.Incremental, Cumulative: true}},
		{"AQP-NonCumulative", aqp.Config{Strategy: aqp.Incremental, Cumulative: false}},
	}
	series := make([][]aqp.SliceResult, len(runs))
	for i, r := range runs {
		series[i] = e.streamRun(r.cfg, seed, cars, slices, secs)
	}

	t := &Table{Title: "Figure 10: AQP cumulative execution time (ms, log-scale in the paper)",
		Header: []string{"slice", runs[0].name, runs[1].name, runs[2].name, runs[3].name}}
	cum := make([]time.Duration, len(runs))
	for s := 0; s < slices; s++ {
		row := []string{fmt.Sprint(s)}
		for i := range runs {
			cum[i] += series[i][s].Exec
			row = append(row, fmt.Sprintf("%.2f", float64(cum[i].Nanoseconds())/1e6))
		}
		if s%3 == 0 || s == slices-1 {
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper: adaptive (re-optimizing every second) beats even the good single static plan, because it fits the plan to the current window; the bad plan is orders of magnitude worse")
	return t
}

// Table3 reproduces Table 3: the adaptation-frequency sweet spot — total
// re-optimization time vs execution time for 1 s / 5 s / 10 s slices over a
// 20-second stream (scaled stream parameters; shape, not absolute values).
func (e *Env) Table3() *Table {
	const (
		seed  = 7
		cars  = 150
		total = int64(60)
	)
	t := &Table{Title: "Table 3: frequency of adaptation (60 s stream)",
		Header: []string{"per-slice", "re-opt time", "exec time", "total"}}
	for _, secs := range []int64{1, 5, 10} {
		slices := int(total / secs)
		res := e.streamRun(aqp.Config{Strategy: aqp.Incremental, Cumulative: false}, seed, cars, slices, secs)
		var reopt, execT time.Duration
		for _, r := range res {
			reopt += r.Reopt
			execT += r.Exec
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%ds", secs), ms(reopt), ms(execT), ms(reopt + execT),
		})
	}
	t.Notes = append(t.Notes,
		"paper (20s stream): 1s slices: 5.75s reopt + 2.20s exec; 5s: 1.23s + 6.82s; 10s: 0.63s + 13.35s — significant gains from 10s to 5s, little more at 1s",
		"re-opt column reproduces the paper's shape (finer slices => more total re-optimization time);",
		"exec column diverges by construction: the paper's continuous engine processes each tuple once regardless",
		"of slice size, whereas this reproduction re-executes over the full window at every split point, so",
		"finer slices also multiply execution work (see DESIGN.md, state-migration substitution)")
	return t
}
