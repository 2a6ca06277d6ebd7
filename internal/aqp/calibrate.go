package aqp

import (
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/fbstore"
	"repro/internal/relalg"
)

// Calibrator converts observed per-expression cardinalities into calibrated
// cost-model feedback factors (§5.2.2: "re-optimized given the cumulatively
// observed statistics"). It is the feedback half of the adaptive loop and
// its one implementation, with three users that derive factors identically
// and stage exactly the factors Observe returns: the split-point Controller,
// the serving layer's shared plan cache (internal/server, the same loop
// driven by prepared-statement executions instead of stream slices), and
// Figure 6 of internal/bench (Q5 re-optimized from executed partitions).
//
// Observation state lives in an fbstore.StatsStore rather than in the
// calibrator itself, keyed by a canonical subexpression fingerprint so the
// state is meaningful beyond the one query whose RelSets index it. A private
// store (NewCalibrator) reproduces the classic per-query behavior; a shared
// store (NewSharedCalibrator, used by the server) makes every calibrator a
// reader and writer of one workload-wide statistics plane: structurally
// different queries over the same tables calibrate against the same
// cumulative history, and WarmStart seeds a fresh model with factors other
// queries already converged to.
//
// The store's ageing policy (fbstore.Options) flows straight through the
// calibrator: when the store decays its cumulative sums, the estimate Fold
// returns is an exponentially weighted average, so under data drift the
// factors Observe emits overturn a confidently-wrong correction in
// O(half-life) observations instead of O(history) — and once a fingerprint
// crosses the staleness horizon, Factor reports it unknown and WarmStart
// stops seeding it, so dead statistics cannot poison a fresh model.
//
// Factors are CALIBRATED: overrides compose multiplicatively up the subset
// lattice (an override on S scales every expression containing S), so the
// factor for S must be computed against the estimate that already includes
// the corrections inherited from S's subexpressions — otherwise child and
// parent corrections double-count and compound to absurd cardinalities.
// Observations are therefore processed in ascending expression size, each
// factor chosen so that the corrected estimate equals the observation.
//
// A Calibrator is not safe for concurrent use; callers serialize it together
// with the cost.Model it feeds (the Controller is single-threaded, the
// server holds the per-cache-entry mutex). The shared store underneath is
// concurrency-safe on its own.
type Calibrator struct {
	// Cumulative selects whether factors derive from cumulatively averaged
	// observations (the paper's AQP-Cumulative) or from the last execution
	// only (AQP-NonCumulative, which "fits" the plan to local data).
	Cumulative bool
	// Threshold suppresses feedback whose factor is within this relative
	// distance of the previously applied one: a cost update that would not
	// change any decision is not worth propagating, and it is what lets
	// re-optimization overhead converge to zero as statistics stabilize
	// (Figure 9). The distance is measured in ratio space —
	// max(f,prev)/min(f,prev)-1 <= Threshold — so growth and shrink
	// suppress symmetrically.
	Threshold float64

	store *fbstore.StatsStore
	key   func(relalg.RelSet) string // RelSet -> canonical store key
	keys  map[relalg.RelSet]string   // memoized translations
	local map[relalg.RelSet]float64  // factor installed in THIS model
}

// NewCalibrator builds a calibrator over a private statistics store;
// threshold 0 selects the default 0.2. Observation state is keyed by the
// query's own RelSets, so behavior matches the classic per-query calibrator.
func NewCalibrator(cumulative bool, threshold float64) *Calibrator {
	return NewSharedCalibrator(fbstore.New(), nil, cumulative, threshold)
}

// NewSharedCalibrator builds a calibrator over a shared statistics store.
// key translates the caller's positional RelSets into the store's canonical
// fingerprints (typically relalg.Fingerprinter.Fingerprint for the same
// query); nil keys by the RelSet itself, which is only meaningful when the
// store is private.
func NewSharedCalibrator(store *fbstore.StatsStore, key func(relalg.RelSet) string, cumulative bool, threshold float64) *Calibrator {
	if threshold == 0 {
		threshold = 0.2
	}
	if key == nil {
		key = func(s relalg.RelSet) string { return s.String() }
	}
	return &Calibrator{
		Cumulative: cumulative,
		Threshold:  threshold,
		store:      store,
		key:        key,
		keys:       map[relalg.RelSet]string{},
		local:      map[relalg.RelSet]float64{},
	}
}

// keyOf memoizes the RelSet -> store-key translation: each entry's local
// sets are translated to fingerprints once and reused on every execution.
func (c *Calibrator) keyOf(set relalg.RelSet) string {
	k, ok := c.keys[set]
	if !ok {
		k = c.key(set)
		c.keys[set] = k
	}
	return k
}

// withinThreshold reports whether factor is within the relative distance
// Threshold of prev, measured symmetrically in ratio space.
func (c *Calibrator) withinThreshold(factor, prev float64) bool {
	hi, lo := factor, prev
	if hi < lo {
		hi, lo = lo, hi
	}
	return hi/lo-1 <= c.Threshold
}

// Observe folds one execution's observed cardinalities (a RunStats.Snapshot)
// into the shared calibration state, applies the resulting override factors
// to the model, and returns the factors that moved beyond the threshold —
// empty when statistics have converged and no re-optimization is warranted.
// Each returned factor has already been installed with Model.SetCardFactor;
// incremental callers additionally stage it with Optimizer.UpdateCardFactor
// (the model mutation is idempotent).
func (c *Calibrator) Observe(cards map[relalg.RelSet]int64, m *cost.Model) map[relalg.RelSet]float64 {
	sets := make([]relalg.RelSet, 0, len(cards))
	for set := range cards {
		sets = append(sets, set)
	}
	sort.Slice(sets, func(i, j int) bool {
		if sets[i].Count() != sets[j].Count() {
			return sets[i].Count() < sets[j].Count()
		}
		return sets[i] < sets[j]
	})
	var changed map[relalg.RelSet]float64
	for _, set := range sets {
		obs := float64(cards[set])
		if obs < 0.5 {
			obs = 0.5 // zero observations still carry information
		}
		est := c.store.Fold(c.keyOf(set), obs, c.Cumulative)
		// Estimate for set under the corrections applied so far,
		// excluding set's own current factor.
		inherited := m.Card(set) / m.CardFactor(set)
		factor := est / inherited
		factor = math.Min(math.Max(factor, 1e-6), 1e9)
		prev, ok := c.local[set]
		if ok && c.withinThreshold(factor, prev) {
			continue // statistically unchanged; no delta worth emitting
		}
		c.local[set] = factor
		c.store.SetFactor(c.keyOf(set), factor)
		if changed == nil {
			changed = map[relalg.RelSet]float64{}
		}
		changed[set] = factor
		// Apply immediately so larger sets in this batch calibrate
		// against it.
		m.SetCardFactor(set, factor)
	}
	return changed
}

// WarmStart seeds the model with the factors the shared store already holds
// for the candidate expressions, before the model's first optimization, and
// primes the suppression state so that a first execution whose observations
// match the workload's converged statistics triggers no repair at all. It
// returns the number of factors seeded. Factors compose multiplicatively up
// the subset lattice exactly as they did in the queries that learned them,
// so seeding every known subset reproduces the converged estimates.
func (c *Calibrator) WarmStart(m *cost.Model, sets []relalg.RelSet) int {
	n := 0
	for _, set := range sets {
		f, ok := c.store.Factor(c.keyOf(set))
		if !ok {
			continue
		}
		c.local[set] = f
		m.SetCardFactor(set, f)
		n++
	}
	return n
}
