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

// stormDelta stages one seeded cost delta on o: three cardinality
// re-estimates of a random connected sub-expression for every scan-cost
// change, the reopt-storm mix.
func stormDelta(o *Optimizer, r *stats.Rand, q *relalg.Query, i int) {
	f := stormFactors[r.Intn(len(stormFactors))]
	if i%4 == 3 {
		o.UpdateScanCostFactor(r.Intn(len(q.Rels)), f)
	} else {
		o.UpdateCardFactor(testkit.RandomConnectedSubset(r, q, 2), f)
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
// query and pruning preset, captured at the commit before the delta engine
// moved onto flat state (typed worklist, entry-resident aggregate and bound
// contributions). They pin the propagation itself: a faster engine must
// evaluate the same deltas in the same order, never different ones.
var wantTrajectory = map[string]trajectory{
	"Q5/none":                {190239, 24376, 0, 0, 0, 0, 109505},
	"Q5/evita":               {190239, 24376, 0, 2829, 2829, 0, 109505},
	"Q5/aggsel":              {182409, 24722, 0, 7605, 7605, 0, 107601},
	"Q5/aggsel+refcount":     {169691, 23165, 0, 7692, 7649, 3544, 104560},
	"Q5/aggsel+b&b":          {182189, 24636, 24818, 12544, 12544, 0, 107601},
	"Q5/all":                 {168990, 22928, 23458, 12386, 12340, 4020, 104446},
	"Q10/none":               {21441, 4078, 0, 0, 0, 0, 14337},
	"Q10/evita":              {21441, 4078, 0, 878, 878, 0, 14337},
	"Q10/aggsel":             {20076, 4104, 0, 1424, 1424, 0, 14089},
	"Q10/aggsel+refcount":    {18064, 4050, 0, 1424, 1422, 1406, 13734},
	"Q10/aggsel+b&b":         {20058, 4090, 4120, 2189, 2189, 0, 14089},
	"Q10/all":                {19076, 4045, 4097, 2191, 2185, 856, 13854},
	"Q8Join/none":            {151556, 18436, 0, 0, 0, 0, 85627},
	"Q8Join/evita":           {151556, 18436, 0, 3229, 3229, 0, 85627},
	"Q8Join/aggsel":          {148207, 19142, 0, 7839, 7839, 0, 84265},
	"Q8Join/aggsel+refcount": {139821, 18115, 0, 8100, 7929, 4269, 82353},
	"Q8Join/aggsel+b&b":      {148040, 19104, 19381, 11188, 11188, 0, 84265},
	"Q8Join/all":             {137825, 17759, 18336, 11417, 11246, 4386, 82109},
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
				stormDelta(o, r, q, i)
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
				nodes += plan.Nodes()
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
