package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/testkit"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// reopt-storm: the optimizer alone. Live incremental optimizers for the
// paper's five join queries each absorb a stream of synthetic cost deltas;
// one op stages one delta and repairs. It is the paper's Figures 5 and 8 as
// a service-time distribution. Executor, storage and serving do nothing
// here, so a change to them must not move it.

// factors are the Figure 5 sweep's ratios.
var factors = []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}

// delta is one schedule position.
type delta struct {
	opt    int           // which live optimizer
	scan   bool          // scan-cost delta (Figure 8) instead of cardinality (Figure 5)
	set    relalg.RelSet // cardinality: the re-estimated sub-expression
	rel    int           // scan cost: the relation
	factor float64
}

type reoptStorm struct {
	cfg     config
	length  int
	cat     *catalog.Catalog
	queries []*relalg.Query
	opts    []*core.Optimizer
	sched   []delta
	marked  []core.Metrics
	touched int // Σ Metrics.TouchedEntries over traced ops
}

func newReoptStorm(cfg config) *reoptStorm {
	w := &reoptStorm{cfg: cfg, length: 4000}
	if cfg.small {
		w.length = 200
	}
	return w
}

func (w *reoptStorm) shape() (int, int) { return 1, w.length }

func (w *reoptStorm) roundsPerSecond() float64 { return 2 }

func (w *reoptStorm) describe() map[string]any {
	return map[string]any{"sf": tpch.DefaultConfig().ScaleFactor, "queries": "Q5 Q5S Q10 Q8Join Q8JoinS"}
}

// reoptSchedule draws the seeded delta schedule: 75 % cardinality
// re-estimates of a random connected sub-expression, 25 % scan-cost changes.
// Which optimizer a position addresses and which kind of delta it carries is
// fixed by the position, so every seed has the same mix and the seed decides
// only what is re-estimated and by how much.
func reoptSchedule(seed uint64, queries []*relalg.Query, length int) []delta {
	r := stats.NewRand(seed ^ 0x5eed0001)
	sched := make([]delta, length)
	for i := range sched {
		d := delta{opt: i % len(queries), factor: factors[r.Intn(len(factors))]}
		q := queries[d.opt]
		if i/len(queries)%4 == 3 {
			d.scan, d.rel = true, r.Intn(len(q.Rels))
		} else {
			d.set = testkit.RandomConnectedSubset(r, q, 2)
		}
		sched[i] = d
	}
	return sched
}

func (w *reoptStorm) setup(sb *spanBuf) error {
	tc := tpch.DefaultConfig()
	tc.Seed = w.cfg.seed
	w.cat = tpch.Generate(tc)
	w.queries = tpch.JoinWorkload()
	w.sched = reoptSchedule(w.cfg.seed, w.queries, w.length)
	w.opts = w.opts[:0]
	for _, q := range w.queries {
		m, err := cost.NewModel(q, w.cat, cost.DefaultParams())
		if err != nil {
			return err
		}
		o, err := core.New(m, relalg.DefaultSpace(), core.PruneAll)
		if err != nil {
			return err
		}
		if _, err := o.Optimize(); err != nil {
			return err
		}
		w.opts = append(w.opts, o)
	}
	// Warm-up round: afterwards every factor holds the value the schedule
	// assigns it last, which is also the state every later round ends in.
	for pos := range w.sched {
		if err := w.op(0, pos, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *reoptStorm) op(_, pos int, sb *spanBuf) error {
	d := w.sched[pos]
	o := w.opts[d.opt]
	sb.begin("core.stage")
	if d.scan {
		o.UpdateScanCostFactor(d.rel, d.factor)
	} else {
		o.UpdateCardFactor(d.set, d.factor)
	}
	sb.end()
	sb.begin("core.reoptimize")
	_, err := o.Reoptimize()
	sb.end()
	if sb != nil {
		w.touched += o.Metrics().TouchedEntries
	}
	return err
}

func (w *reoptStorm) enact(int, int, *spanBuf) error { return nil }
func (w *reoptStorm) endRound(*spanBuf) error        { return nil }
func (w *reoptStorm) close() error                   { return nil }

func (w *reoptStorm) mark() {
	w.marked = w.marked[:0]
	for _, o := range w.opts {
		w.marked = append(w.marked, o.Metrics())
	}
}

// since reports the monotone core.Metrics counters per repair over the
// window. TouchedEntries is per call, not monotone, so the traced ops sum it
// instead.
func (w *reoptStorm) since(rounds int) map[string]float64 {
	var recomp, supp, reviv int64
	for i, o := range w.opts {
		m, m0 := o.Metrics(), w.marked[i]
		recomp += m.CostRecomputations - m0.CostRecomputations
		supp += m.Suppressions - m0.Suppressions
		reviv += m.Revivals - m0.Revivals
	}
	repairs := float64(rounds * w.length)
	return map[string]float64{
		"core.cost_recomputations_per_repair": float64(recomp) / repairs,
		"core.suppressions_per_repair":        float64(supp) / repairs,
		"core.revivals_per_repair":            float64(reviv) / repairs,
	}
}

// finalModel builds a fresh model carrying the factors the schedule leaves
// optimizer i with.
func (w *reoptStorm) finalModel(i int) (*cost.Model, error) {
	m, err := cost.NewModel(w.queries[i], w.cat, cost.DefaultParams())
	if err != nil {
		return nil, err
	}
	for _, d := range w.sched {
		if d.opt != i {
			continue
		}
		if d.scan {
			m.SetScanCostFactor(d.rel, d.factor)
		} else {
			m.SetCardFactor(d.set, d.factor)
		}
	}
	return m, nil
}

func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// verify is the paper's contract: after any delta sequence the repaired
// state yields the plan cost a from-scratch optimization would, checked
// against both a fresh incremental optimizer and the Volcano baseline.
func (w *reoptStorm) verify() (int, error) {
	failed := 0
	for i, o := range w.opts {
		live, ok := o.BestCost()
		if !ok {
			return 0, fmt.Errorf("%s: no best cost", w.queries[i].Name)
		}
		if w.cfg.corrupt {
			live *= 1.5
		}
		m, err := w.finalModel(i)
		if err != nil {
			return 0, err
		}
		fresh, err := core.New(m, relalg.DefaultSpace(), core.PruneAll)
		if err != nil {
			return 0, err
		}
		plan, err := fresh.Optimize()
		if err != nil {
			return 0, err
		}
		vr, err := volcano.Optimize(m, relalg.DefaultSpace())
		if err != nil {
			return 0, err
		}
		if !sameCost(live, plan.Cost) || !sameCost(live, vr.Cost) {
			mismatch("%s: repaired cost %v, fresh %v, volcano %v\n", w.queries[i].Name, live, plan.Cost, vr.Cost)
			// Every op on this optimizer contributed to the wrong state.
			for _, d := range w.sched {
				if d.opt == i {
					failed++
				}
			}
		}
	}
	return failed, nil
}

// probes folds the traced rounds' repair spans into the paper's axes and
// measures from-scratch optimization of the same queries.
func (w *reoptStorm) probes(rec *recorder) (map[string]float64, error) {
	out, err := optimizerProbes(w.cat)
	if err != nil {
		return nil, err
	}
	repairs := rec.durations("core.reoptimize")
	out["core.repair_us_p50"] = 1e3 * median(repairs)
	out["core.repair_us_p99"] = 1e3 * percentile(repairs, 0.99)

	out["core.touched_entries_per_repair"] = float64(w.touched) / float64(len(repairs))

	// Figure 5's ratio on Q5: a from-scratch Volcano optimization over the
	// median repair of Q5's live optimizer.
	var q5 []float64
	for _, b := range rec.bufs {
		for _, s := range b.spans {
			if s.Name == "core.reoptimize" && w.sched[s.Op].opt == 0 {
				q5 = append(q5, float64(s.End-s.Start)/1e6)
			}
		}
	}
	m, err := cost.NewModel(w.queries[0], w.cat, cost.DefaultParams())
	if err != nil {
		return nil, err
	}
	vol, err := minOf(5, func() error {
		_, err := volcano.Optimize(m, relalg.DefaultSpace())
		return err
	})
	if err != nil {
		return nil, err
	}
	if med := median(q5); med > 0 {
		out["core.volcano_over_repair.Q5"] = vol / med
	}
	return out, nil
}

// minOf runs fn n times and returns the fastest run in milliseconds.
func minOf(n int, fn func() error) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := float64(time.Since(t)) / 1e6; d < best {
			best = d
		}
	}
	return best, nil
}

// optimizerProbes times from-scratch optimization (model build, core.New,
// Optimize) of three workload queries over cat, and counts the groups Q5's
// pruned search keeps alive.
func optimizerProbes(cat *catalog.Catalog) (map[string]float64, error) {
	out := map[string]float64{}
	for _, q := range []*relalg.Query{tpch.Q5(), tpch.Q10(), tpch.Q8Join()} {
		var alive int
		ms, err := minOf(5, func() error {
			m, err := cost.NewModel(q, cat, cost.DefaultParams())
			if err != nil {
				return err
			}
			o, err := core.New(m, relalg.DefaultSpace(), core.PruneAll)
			if err != nil {
				return err
			}
			_, err = o.Optimize()
			alive = o.Metrics().AliveGroups()
			return err
		})
		if err != nil {
			return nil, err
		}
		out["core.fullopt_ms."+q.Name] = ms
		if q.Name == "Q5" {
			out["core.alive_groups.Q5"] = float64(alive)
		}
	}
	return out, nil
}
