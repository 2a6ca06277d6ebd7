package aqp

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/linearroad"
	"repro/internal/relalg"
)

// steadyStream is a controller over the Linear Road stream, stepped one slice
// at a time so a caller can measure RunSlice apart from the window work.
type steadyStream struct {
	gen *linearroad.Gen
	win *linearroad.Windows
	ctl *Controller
	s   int64
}

func newSteadyStream(tb testing.TB, strategy Strategy) *steadyStream {
	tb.Helper()
	st := &steadyStream{gen: linearroad.NewGen(11, 80), win: linearroad.NewWindows()}
	cfg := Config{
		Query: linearroad.SegTollS(), Cat: st.win.Catalog(), Params: cost.DefaultParams(),
		Space: relalg.DefaultSpace(), Pruning: core.PruneAll, Strategy: strategy, Cumulative: true,
	}
	if strategy == Static {
		m, err := cost.NewModel(cfg.Query, cfg.Cat, cfg.Params)
		if err != nil {
			tb.Fatal(err)
		}
		opt, err := core.New(m, cfg.Space, cfg.Pruning)
		if err != nil {
			tb.Fatal(err)
		}
		if cfg.StaticPlan, err = opt.Optimize(); err != nil {
			tb.Fatal(err)
		}
	}
	var err error
	if st.ctl, err = NewController(cfg); err != nil {
		tb.Fatal(err)
	}
	return st
}

// publish ingests the next second of the stream and re-materializes the windows.
func (st *steadyStream) publish() {
	st.win.Ingest(st.gen.Slice(st.s, st.s+1))
	st.win.Materialize()
	st.s++
}

// reoptAlone repeats the optimizer call the next RunSlice makes, so a test can
// take what the optimizer allocates off what the slice allocates.
func (st *steadyStream) reoptAlone(tb testing.TB) {
	c := st.ctl
	var err error
	switch c.cfg.Strategy {
	case Incremental:
		_, err = c.opt.Reoptimize()
	case FullReopt:
		var opt *core.Optimizer
		if opt, err = core.New(c.model, c.cfg.Space, c.cfg.Pruning); err == nil {
			_, err = opt.Optimize()
		}
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestRunSliceSteadyStateAllocs pins what the standing query's execution costs
// once it is warm: while the plan is unchanged, RunSlice re-opens the tree it
// holds, so outside the optimizer call a slice over re-materialized windows —
// new snapshot arrays, as many rows as before — allocates next to nothing: no
// operator tree, no join table, no build side, no distinct set. All three
// strategies share the one branch.
func TestRunSliceSteadyStateAllocs(t *testing.T) {
	const ceiling = 32 << 10
	for _, strategy := range []Strategy{Incremental, FullReopt, Static} {
		st := newSteadyStream(t, strategy)
		for warm := 0; warm < 10; warm++ {
			st.publish()
			if _, err := st.ctl.RunSlice(nil); err != nil {
				t.Fatal(err)
			}
		}
		steady, worst := 0, int64(0)
		for s := 0; s < 30; s++ {
			st.win.Materialize()
			reopt := allocated(func() { st.reoptAlone(t) })
			var res SliceResult
			slice := allocated(func() {
				var err error
				if res, err = st.ctl.RunSlice(nil); err != nil {
					t.Fatal(err)
				}
			})
			if res.Switched {
				continue // a new plan is compiled afresh
			}
			steady++
			worst = max(worst, slice-reopt)
		}
		t.Logf("%v: %d of 30 slices kept their plan; at most %d bytes allocated outside the optimizer", strategy, steady, worst)
		if steady < 15 {
			t.Fatalf("%v: only %d of 30 slices kept their plan: nothing steady to measure", strategy, steady)
		}
		if worst > ceiling {
			t.Fatalf("%v: a slice on an unchanged plan allocates %d bytes outside the optimizer, ceiling %d: is the execution re-opened?",
				strategy, worst, ceiling)
		}
	}
}

// BenchmarkRunSliceSteady is one split-point round on a converged stream:
// RunSlice over windows re-materialized outside the timer (-benchmem shows
// what the held execution still allocates).
func BenchmarkRunSliceSteady(b *testing.B) {
	st := newSteadyStream(b, Incremental)
	for warm := 0; warm < 20; warm++ {
		st.publish()
		if _, err := st.ctl.RunSlice(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st.publish()
		b.StartTimer()
		if _, err := st.ctl.RunSlice(nil); err != nil {
			b.Fatal(err)
		}
	}
}
