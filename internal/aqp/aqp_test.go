package aqp

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/linearroad"
	"repro/internal/relalg"
)

func runStream(t *testing.T, cfg Config, slices int) []SliceResult {
	t.Helper()
	gen := linearroad.NewGen(11, 80)
	win := linearroad.NewWindows()
	cfg.Query = linearroad.SegTollS()
	cfg.Cat = win.Catalog()
	cfg.Params = cost.DefaultParams()
	cfg.Space = relalg.DefaultSpace()
	if cfg.Pruning == (core.Pruning{}) {
		cfg.Pruning = core.PruneAll
	}
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []SliceResult
	for s := 0; s < slices; s++ {
		win.Ingest(gen.Slice(int64(s*2), int64(s*2+2)))
		win.Materialize()
		res, err := ctl.RunSlice(nil)
		if err != nil {
			t.Fatalf("slice %d: %v", s, err)
		}
		out = append(out, res)
	}
	return out
}

func TestIncrementalControllerRuns(t *testing.T) {
	res := runStream(t, Config{Strategy: Incremental, Cumulative: true}, 8)
	for i, r := range res {
		if r.Plan == nil || r.BestCost <= 0 {
			t.Fatalf("slice %d: no plan", i)
		}
	}
	if res[0].Switched {
		t.Fatal("first slice cannot be a switch")
	}
}

// TestIncrementalMatchesFullReopt: both strategies see the same stream and
// the same feedback rule, so they must choose plans of identical estimated
// cost at every slice.
func TestIncrementalMatchesFullReopt(t *testing.T) {
	inc := runStream(t, Config{Strategy: Incremental, Cumulative: true}, 8)
	full := runStream(t, Config{Strategy: FullReopt, Cumulative: true}, 8)
	for i := range inc {
		a, b := inc[i].BestCost, full[i].BestCost
		if math.Abs(a-b) > 1e-6*math.Max(1, math.Max(a, b)) {
			t.Fatalf("slice %d: incremental best %v != full-reopt best %v", i, a, b)
		}
	}
}

// TestFeedbackConvergesToZeroTouched: with stable data, the incremental
// optimizer's touched-entry count must drop to zero once feedback factors
// stabilize within the quantization threshold (the Figure 9 effect).
func TestFeedbackConvergesToZeroTouched(t *testing.T) {
	res := runStream(t, Config{Strategy: Incremental, Cumulative: true}, 14)
	zeros := 0
	for _, r := range res[7:] {
		if r.Touched == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatalf("touched entries never converged to zero: %+v", touchedOf(res))
	}
}

func touchedOf(res []SliceResult) []int {
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = r.Touched
	}
	return out
}

// TestFeedbackCalibration: after observing a slice and re-optimizing, the
// model's estimate for every observed expression equals the observation
// (the calibrated-factor property that prevents compounding corrections).
func TestFeedbackCalibration(t *testing.T) {
	gen := linearroad.NewGen(13, 60)
	win := linearroad.NewWindows()
	q := linearroad.SegTollS()
	ctl, err := NewController(Config{
		Query: q, Cat: win.Catalog(), Params: cost.DefaultParams(),
		Space: relalg.DefaultSpace(), Pruning: core.PruneAll,
		Strategy: Incremental, Cumulative: false,
		FeedbackThreshold: 1e-9, // exact calibration for this test
	})
	if err != nil {
		t.Fatal(err)
	}
	win.Ingest(gen.Slice(0, 10))
	win.Materialize()
	if _, err := ctl.RunSlice(nil); err != nil {
		t.Fatal(err)
	}
	// Freeze the stream: re-running the same windows must reproduce the
	// same observations, and the calibrated model must predict them.
	res, err := ctl.RunSlice(nil)
	if err != nil {
		t.Fatal(err)
	}
	m := ctl.Model()
	for set := range ctl.cal.local {
		est := m.Card(set)
		obs := ctl.obsForTest(set)
		if obs == 0 {
			continue
		}
		if math.Abs(est-obs) > 0.02*math.Max(1, obs) {
			t.Fatalf("calibration off for %v: estimate %v, observed %v (plan %s)",
				set, est, obs, res.Plan.Signature())
		}
	}
}

// TestStaticStrategy: a static controller never switches and spends no
// re-optimization time after the setup.
func TestStaticStrategy(t *testing.T) {
	// Derive some plan first.
	gen := linearroad.NewGen(11, 80)
	win := linearroad.NewWindows()
	q := linearroad.SegTollS()
	m, _ := cost.NewModel(q, win.Catalog(), cost.DefaultParams())
	o, _ := core.New(m, relalg.DefaultSpace(), core.PruneAll)
	win.Ingest(gen.Slice(0, 2))
	win.Materialize()
	plan, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	res := runStream(t, Config{Strategy: Static, StaticPlan: plan}, 5)
	for i, r := range res {
		if r.Switched {
			t.Fatalf("static plan switched at slice %d", i)
		}
		if r.Plan.Signature() != plan.Signature() {
			t.Fatalf("static plan replaced at slice %d", i)
		}
	}
}

func TestStaticRequiresPlan(t *testing.T) {
	if _, err := NewController(Config{
		Query: linearroad.SegTollS(), Cat: linearroad.NewWindows().Catalog(),
		Params: cost.DefaultParams(), Space: relalg.DefaultSpace(),
		Pruning: core.PruneAll, Strategy: Static,
	}); err == nil {
		t.Fatal("static without a plan accepted")
	}
}
