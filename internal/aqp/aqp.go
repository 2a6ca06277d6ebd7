// Package aqp implements the adaptive query processing loop of §5.4: the
// data-partitioned model of Ives et al. [15], in which the system pauses at
// "split points" between stream slices, re-estimates costs from observed
// execution statistics, re-optimizes (incrementally or from scratch), and
// continues executing — migrating window state across plan switches in the
// manner of CAPS [26] (the windows are the shared state; operator state is
// rebuilt from them every slice, and that rebuild cost is charged to execution
// time). While the plan stays what it was the controller re-opens the operator
// tree it holds, so the rebuild runs in the previous slice's memory; only a
// plan switch compiles a new tree.
package aqp

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/relalg"
)

// Strategy selects how the controller chooses plans at split points.
type Strategy int

const (
	// Incremental re-optimizes with the paper's incremental declarative
	// optimizer: only state affected by the feedback deltas is repaired.
	Incremental Strategy = iota
	// FullReopt re-runs a complete optimization from scratch at every
	// split point — the non-incremental comparator (Tukwila-style [15]).
	FullReopt
	// Static executes a fixed plan and never re-optimizes.
	Static
)

func (s Strategy) String() string {
	switch s {
	case Incremental:
		return "incremental"
	case FullReopt:
		return "full-reopt"
	case Static:
		return "static"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Config assembles a controller.
type Config struct {
	Query   *relalg.Query
	Cat     *catalog.Catalog // statistics source at construction time
	Params  cost.Params
	Space   relalg.SpaceOptions
	Pruning core.Pruning

	Strategy Strategy
	// Cumulative selects whether feedback factors are derived from
	// cumulatively averaged observations (the paper's AQP-Cumulative) or
	// from the last slice only (AQP-NonCumulative, which "fits" the plan
	// to local data characteristics).
	Cumulative bool
	// StaticPlan is required for Strategy == Static.
	StaticPlan *relalg.Plan
	// FeedbackThreshold suppresses feedback whose factor is within this
	// relative distance of the previously applied one (default 0.2): a
	// cost update that would not change any decision is not worth
	// propagating, and it is what lets re-optimization overhead converge
	// to zero as statistics stabilize (Figure 9).
	FeedbackThreshold float64
	// Parallelism caps the workers of the vectorized executor's one
	// parallel shape during slice execution: an aggregating query over a
	// hash-join probe spine runs as that many copies of the spine's serial
	// operators, each into its own partial aggregate, finished inside Open;
	// anything else, and everything at <= 1, runs on one serial tree.
	// Feedback cardinalities are exact at any setting, so the adaptive loop
	// is unaffected by the parallelism choice.
	Parallelism int
}

// SliceResult reports one split-point round trip.
type SliceResult struct {
	Reopt    time.Duration
	Exec     time.Duration
	Rows     int64 // result rows produced
	Plan     *relalg.Plan
	Switched bool // plan differs from the previous slice's
	Touched  int  // optimizer entries touched by the incremental repair
	BestCost float64
}

// Controller drives the adaptive loop. Not safe for concurrent use.
type Controller struct {
	cfg   Config
	model *cost.Model
	opt   *core.Optimizer // Incremental strategy

	lastSig string
	first   bool
	// The standing query's execution: compiled for the plan lastSig names and
	// re-opened every slice until the plan changes.
	root  exec.VecIterator
	stats *exec.RunStats

	cal     *Calibrator               // observation → factor calibration
	pending map[relalg.RelSet]float64 // staged factors for the next reopt
}

// NewController builds the controller. The cost model snapshots the
// catalog's statistics now ("the optimizer starts with zero statistical
// information" when the window tables are still empty); later knowledge
// arrives through feedback factors — and, for the two things the model reads
// live (an inner column's distinct count when an index-NL join is costed, a
// zone column's selectivity for a segment-pruned scan), through
// catalog.Table.Stats, which builds that column on first read.
func NewController(cfg Config) (*Controller, error) {
	m, err := cost.NewModel(cfg.Query, cfg.Cat, cfg.Params)
	if err != nil {
		return nil, err
	}
	if cfg.FeedbackThreshold == 0 {
		cfg.FeedbackThreshold = 0.2
	}
	c := &Controller{
		cfg: cfg, model: m, first: true,
		cal:     NewCalibrator(cfg.Cumulative, cfg.FeedbackThreshold),
		pending: map[relalg.RelSet]float64{},
	}
	if cfg.Strategy == Incremental {
		opt, err := core.New(m, cfg.Space, cfg.Pruning)
		if err != nil {
			return nil, err
		}
		c.opt = opt
	}
	if cfg.Strategy == Static && cfg.StaticPlan == nil {
		return nil, fmt.Errorf("aqp: Static strategy requires StaticPlan")
	}
	return c, nil
}

// Model exposes the controller's cost model (for inspection in tests).
func (c *Controller) Model() *cost.Model { return c.model }

// RunSlice performs one split-point round: re-optimize under the feedback
// staged from the previous slice, then execute the chosen plan over the
// catalog tables' current column snapshots (for a stream, what
// linearroad.Windows.Materialize last published).
//
// The parameter is vestigial and never consulted: it used to supply the
// window contents as rows. It stays only because benchmarks/stream.go
// passes linearroad.Windows.Data and that module is frozen for every PR but
// a benchmark one; the follow-up benchmark PR that stops passing it drops
// the parameter here and Windows.Data with it.
func (c *Controller) RunSlice(_ func(rel int) [][]int64) (SliceResult, error) {
	var res SliceResult

	start := time.Now()
	var plan *relalg.Plan
	var err error
	switch c.cfg.Strategy {
	case Static:
		plan = c.cfg.StaticPlan
	case Incremental:
		for s, f := range c.pending {
			c.opt.UpdateCardFactor(s, f)
		}
		if c.first {
			plan, err = c.opt.Optimize()
		} else {
			plan, err = c.opt.Reoptimize()
		}
		if err == nil {
			res.Touched = c.opt.Metrics().TouchedEntries
		}
	case FullReopt:
		for s, f := range c.pending {
			c.model.SetCardFactor(s, f)
		}
		// A complete fresh optimization over the same model: all
		// state rebuilt from scratch, as a non-incremental
		// re-optimizer must.
		var opt *core.Optimizer
		opt, err = core.New(c.model, c.cfg.Space, c.cfg.Pruning)
		if err == nil {
			plan, err = opt.Optimize()
			res.Touched = opt.Metrics().TouchedEntries
		}
	}
	if err != nil {
		return res, err
	}
	clearMap(c.pending)
	res.Reopt = time.Since(start)
	res.Plan = plan
	res.BestCost = plan.Cost
	sig := plan.Signature()
	changed := sig != c.lastSig
	res.Switched = !c.first && changed
	c.lastSig = sig
	c.first = false

	// Execute over the current windows with the vectorized executor and
	// collect actual cardinalities: open the held tree, compiling it first if
	// there is none or the plan changed. A tree whose execution failed cannot
	// be re-opened and is dropped.
	start = time.Now()
	if c.root == nil || changed {
		comp := &exec.Compiler{Q: c.cfg.Query, Cat: c.cfg.Cat, Parallelism: c.cfg.Parallelism}
		if c.root, c.stats, err = comp.CompileVec(plan); err != nil {
			return res, err // no tree is held: the next slice compiles again
		}
	}
	n, err := exec.CountVec(c.root)
	if err != nil {
		c.root = nil
		return res, err
	}
	res.Exec = time.Since(start)
	res.Rows = n

	c.observe(c.stats)
	return res, nil
}

// observe converts the executed plan's actual cardinalities into staged
// feedback factors for the next split point, delegating the calibration
// math to the shared Calibrator (see calibrate.go). The pending map
// re-submits each changed factor at the next RunSlice, which stages the
// delta with the incremental optimizer (the model mutation itself is
// idempotent).
func (c *Controller) observe(stats *exec.RunStats) {
	if c.cfg.Strategy == Static {
		return
	}
	for set, f := range c.cal.Observe(stats.Snapshot(), c.model) {
		c.pending[set] = f
	}
}

// obsForTest exposes the most recent raw observation for an expression
// (test hook).
func (c *Controller) obsForTest(set relalg.RelSet) float64 { return c.cal.LastObs(set) }

func clearMap(m map[relalg.RelSet]float64) {
	for k := range m {
		delete(m, k)
	}
}
