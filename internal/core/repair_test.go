package core

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/testkit"
	"repro/internal/tpch"
)

// stormFactors are the Figure 5 sweep's ratios, as the repository benchmark's
// reopt-storm workload draws them.
var stormFactors = []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}

// stormDelta stages one seeded cost delta on o, and sets it on oracle unless
// that is nil: three cardinality re-estimates of a random connected
// sub-expression for every scan-cost change, the reopt-storm mix.
func stormDelta(o *Optimizer, oracle *cost.Model, r *stats.Rand, q *relalg.Query, i int) {
	f := stormFactors[r.Intn(len(stormFactors))]
	if i%4 == 3 {
		rel := r.Intn(len(q.Rels))
		o.UpdateScanCostFactor(rel, f)
		if oracle != nil {
			oracle.SetScanCostFactor(rel, f)
		}
	} else {
		s := testkit.RandomConnectedSubset(r, q, 2)
		o.UpdateCardFactor(s, f)
		if oracle != nil {
			oracle.SetCardFactor(s, f)
		}
	}
}

func tpchOptimizer(t testing.TB, q *relalg.Query, mode Pruning) *Optimizer {
	t.Helper()
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42})
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(m, relalg.DefaultSpace(), mode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Optimize(); err != nil {
		t.Fatal(err)
	}
	return o
}

// trajectory is the work one delta sequence causes, in the paper's units.
type trajectory struct {
	recomp, best, bound, supp, reviv, kills int64
	touched                                 int
}

// wantTrajectory holds the counters of a 500-delta sequence (seed 7) per
// query and pruning preset. They pin the propagation itself: a faster engine
// must evaluate the same deltas in the same order, never different ones.
// They were re-captured once, when the hot worklist moved from one FIFO to
// rank order: a group now runs once after its inputs settle instead of once
// per input that moved, so every count fell and the touched region moved by
// under 1 %.
var wantTrajectory = map[string]trajectory{
	"Q5/none":                {109505, 12536, 0, 0, 0, 0, 109505},
	"Q5/evita":               {109505, 12536, 0, 787, 787, 0, 109505},
	"Q5/aggsel":              {103494, 12591, 0, 1105, 1105, 0, 107601},
	"Q5/aggsel+refcount":     {96178, 11758, 0, 1279, 1236, 712, 104674},
	"Q5/aggsel+b&b":          {103471, 12591, 12657, 7254, 7254, 0, 107601},
	"Q5/all":                 {95958, 11656, 11842, 7070, 7024, 2646, 104626},
	"Q10/none":               {14337, 2451, 0, 0, 0, 0, 14337},
	"Q10/evita":              {14337, 2451, 0, 209, 209, 0, 14337},
	"Q10/aggsel":             {13154, 2455, 0, 246, 246, 0, 14089},
	"Q10/aggsel+refcount":    {12291, 2419, 0, 242, 240, 331, 13830},
	"Q10/aggsel+b&b":         {13154, 2455, 2464, 1397, 1397, 0, 14089},
	"Q10/all":                {12234, 2417, 2435, 1392, 1387, 547, 13818},
	"Q8Join/none":            {85627, 9744, 0, 0, 0, 0, 85627},
	"Q8Join/evita":           {85627, 9744, 0, 1011, 1011, 0, 85627},
	"Q8Join/aggsel":          {80704, 9772, 0, 1418, 1418, 0, 84265},
	"Q8Join/aggsel+refcount": {75301, 9219, 0, 1741, 1570, 1099, 82387},
	"Q8Join/aggsel+b&b":      {80704, 9772, 9835, 6012, 6012, 0, 84265},
	"Q8Join/all":             {74329, 9049, 9233, 6211, 6040, 2767, 82130},
}

func TestRepairCounterTrajectory(t *testing.T) {
	for _, q := range []*relalg.Query{tpch.Q5(), tpch.Q10(), tpch.Q8Join()} {
		for _, mode := range allModes {
			name := q.Name + "/" + mode.String()
			o := tpchOptimizer(t, q, mode)
			r := stats.NewRand(7)
			m0 := o.Metrics()
			touched := 0
			for i := 0; i < 500; i++ {
				stormDelta(o, nil, r, q, i)
				if _, err := o.Reoptimize(); err != nil {
					t.Fatalf("%s delta %d: %v", name, i, err)
				}
				touched += o.Metrics().TouchedEntries
			}
			m := o.Metrics()
			got := trajectory{
				recomp:  m.CostRecomputations - m0.CostRecomputations,
				best:    m.BestUpdates - m0.BestUpdates,
				bound:   m.BoundUpdates - m0.BoundUpdates,
				supp:    m.Suppressions - m0.Suppressions,
				reviv:   m.Revivals - m0.Revivals,
				kills:   m.GroupKills - m0.GroupKills,
				touched: touched,
			}
			if want, ok := wantTrajectory[name]; !ok {
				t.Errorf("\t%q: {%d, %d, %d, %d, %d, %d, %d},", name,
					got.recomp, got.best, got.bound, got.supp, got.reviv, got.kills, got.touched)
			} else if got != want {
				t.Errorf("%s: counters %+v, want %+v", name, got, want)
			}
		}
	}
}

// TestReoptimizeSteadyStateAllocs is the optimizer's counterpart of exec's
// TestScanAggSteadyStateAllocs: once a repeating cycle of cardinality and
// scan-cost deltas has been seen, staging a delta and repairing allocates
// nothing but the nodes of the plan tree Reoptimize returns — no task
// closures, no aggregate or bound-contribution structures, no cardinality
// cache rebuilt.
func TestReoptimizeSteadyStateAllocs(t *testing.T) {
	for _, q := range []*relalg.Query{tpch.Q5(), tpch.Q8Join()} {
		o := tpchOptimizer(t, q, PruneAll)
		// Draw the cycle up front so the generator's own allocations
		// stay out of the measurement.
		type staged struct {
			scan   bool
			set    relalg.RelSet
			rel    int
			factor float64
		}
		r := stats.NewRand(11)
		cycle := make([]staged, 40)
		for i := range cycle {
			d := staged{scan: i%4 == 3, factor: stormFactors[r.Intn(len(stormFactors))]}
			if d.scan {
				d.rel = r.Intn(len(q.Rels))
			} else {
				d.set = testkit.RandomConnectedSubset(r, q, 2)
			}
			cycle[i] = d
		}
		nodes := 0
		run := func() {
			nodes = 0
			for _, d := range cycle {
				if d.scan {
					o.UpdateScanCostFactor(d.rel, d.factor)
				} else {
					o.UpdateCardFactor(d.set, d.factor)
				}
				plan, err := o.Reoptimize()
				if err != nil {
					t.Fatal(err)
				}
				nodes += planNodes(plan)
			}
		}
		// Two cycles reach the steady state: every group a cycle demands
		// exists and the worklists have their working capacity.
		run()
		run()
		if allocs := testing.AllocsPerRun(5, run); allocs != float64(nodes) {
			t.Errorf("%s: %v allocations per %d-delta cycle, want the %d plan nodes it returns",
				q.Name, allocs, len(cycle), nodes)
		}
	}
}

// optimizeAllocCeilings bound one from-scratch optimization of Q5 under
// PruneAll — model, optimizer and Optimize, as
// BenchmarkFig4InitialOptimization runs it — in the full Table 1 space (47
// allocations and 1 % margin) and in the space the server optimizes in
// (45, ceiling 46). Before the enumerator worked on masks and wrote each
// group's entries in place, the full space took 2 550 allocations; before
// groups and parent edges moved into slabs and the cardinality memo out of a
// Go map, 608; 146 and 77 before entries shared one slab.
var optimizeAllocCeilings = []struct {
	name    string
	space   relalg.SpaceOptions
	ceiling float64
}{{"full", relalg.DefaultSpace(), 48}, {"served", relalg.ServedSpace(), 46}}

// TestOptimizeAllocCeiling holds the plan-cache miss path's optimizer work
// to a committed allocation ceiling in each space: enumeration allocates
// nothing per split and its buffer is pooled, and so is the room the group,
// entry and edge slabs grow in, so what remains is the three exactly sized
// slabs, the worklists, the model's memo and the plan.
func TestOptimizeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the enumeration buffers' sync.Pool drops buffers under -race")
	}
	q := tpch.Q5()
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42})
	for _, arm := range optimizeAllocCeilings {
		allocs := testing.AllocsPerRun(5, func() {
			m, err := cost.NewModel(q, cat, cost.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			o, err := New(m, arm.space, PruneAll)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.Optimize(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > arm.ceiling {
			t.Errorf("Optimize of Q5 under PruneAll in the %s space: %v allocations, ceiling %v", arm.name, allocs, arm.ceiling)
		}
		t.Logf("Optimize of Q5 under PruneAll in the %s space: %v allocations", arm.name, allocs)
	}

	// The miss that finds a template: model, Clone of the served-space
	// state and the Reoptimize that re-prices it.
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := New(m, relalg.ServedSpace(), PruneAll)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmpl.Optimize(); err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	allocs := testing.AllocsPerRun(5, func() {
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tmpl.Clone(m, ids[:len(q.Rels)], ids[:len(q.Joins)]).Reoptimize(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > cloneAllocCeiling {
		t.Errorf("Clone and Reoptimize of Q5 under PruneAll in the served space: %v allocations, ceiling %v", allocs, cloneAllocCeiling)
	}
	t.Logf("Clone and Reoptimize of Q5 under PruneAll in the served space: %v allocations", allocs)
}

// cloneAllocCeiling bounds a plan-cache miss that clones a template of Q5
// in the served space: model, Clone and Reoptimize. 36 allocations (a from
// scratch Optimize takes 45), ceiling 37.
const cloneAllocCeiling = 37

// TestDrainStepLimit forces the worklist's step limit: the failure must
// surface as an error from Optimize and Reoptimize (the server repairs under
// a per-entry mutex, where a panic would wedge the entry), and stay latched,
// because the state it leaves is mid-propagation.
func TestDrainStepLimit(t *testing.T) {
	o := tpchOptimizer(t, tpch.Q5(), PruneAll)
	o.stepLimit = 3
	o.UpdateCardFactor(tpch.Q5().AllRels(), 4)
	_, err := o.Reoptimize()
	if err == nil || !strings.Contains(err.Error(), "failed to converge") {
		t.Fatalf("Reoptimize under a 3-step limit: err = %v", err)
	}
	o.stepLimit = defaultStepLimit
	if _, err2 := o.Reoptimize(); err2 != err {
		t.Fatalf("error not latched: %v", err2)
	}
	if _, err2 := o.Optimize(); err2 != err {
		t.Fatalf("error not latched for Optimize: %v", err2)
	}

	m := newModel(t, 5, 4)
	fresh, err := New(m, relalg.DefaultSpace(), PruneAll)
	if err != nil {
		t.Fatal(err)
	}
	fresh.stepLimit = 3
	if _, err := fresh.Optimize(); err == nil {
		t.Fatal("Optimize under a 3-step limit succeeded")
	}
}
