// Package fbstore is the server-wide feedback statistics plane: a concurrent
// store of calibrated cardinality-observation state keyed by canonical
// subexpression fingerprint (relalg.Fingerprinter). It is the paper's move —
// derived optimizer state is durable, incrementally maintainable data —
// applied one level up: where a plan-cache entry materializes one query's
// optimizer state, the store materializes what the whole workload has
// learned about the data, so that two structurally different queries over
// the same tables calibrate against one shared history, and evicting a plan
// never forgets the statistics that shaped it.
//
// The store holds per-fingerprint observation state (cumulative sum and
// count, the last raw observation, and the last applied factor). Calibration
// itself — turning observations into model factors, thresholding, staging
// optimizer deltas — stays in aqp.Calibrator, which reads and writes through
// a shared store; the store is deliberately dumb so its concurrency story
// stays trivial: a RWMutex map of entries, each entry with its own mutex,
// every operation a short critical section.
//
// # Ageing under data drift
//
// Learned statistics are only as good as the data that produced them. Under
// drift a frozen cumulative history actively misleads: a factor learned from
// a million old observations needs a million new ones to move. The store
// therefore supports observation ageing, keyed by a LOGICAL observation
// clock (one tick per fold, so ageing is deterministic and independent of
// wall-clock execution speed):
//
//   - Options.DecayHalfLife exponentially decays the cumulative sums: at
//     each fold, the stored sum and count are scaled by 2^(-age/halfLife)
//     before the new observation lands, so the cumulative average becomes an
//     exponentially weighted one and post-drift observations overturn a
//     confidently-wrong estimate in O(halfLife) observations instead of
//     O(history).
//   - Options.StaleAfter is the staleness horizon: a fingerprint not
//     observed for more than StaleAfter ticks stops warm-starting (Factor
//     reports it unknown — a wrong old factor is worse than a cold start),
//     and once its age exceeds twice the horizon the entry is reclaimed
//     entirely by the amortized sweep.
//
// Both default to off (New), preserving the full-history behavior.
//
// The store also survives restarts: Save/Load write and read a versioned
// snapshot of the whole plane, including the logical clock, so a reloaded
// server resumes ageing exactly where the saved one stopped (see persist.go).
package fbstore

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Options configures observation ageing. The zero value disables it: the
// store keeps the full, undecayed cumulative history forever.
type Options struct {
	// DecayHalfLife is the number of logical observations (store-wide folds)
	// after which the weight of a past observation halves in the cumulative
	// average. 0 disables decay.
	DecayHalfLife float64
	// StaleAfter is the logical age (in store-wide folds) beyond which an
	// unobserved fingerprint's factor stops warm-starting; entries older
	// than twice this age are reclaimed by the sweep. 0 disables both.
	StaleAfter uint64
}

// reclaimAfter is the logical age at which a stale entry is deleted.
func (o Options) reclaimAfter() uint64 { return 2 * o.StaleAfter }

// Stat is one fingerprint's calibration state.
type stat struct {
	mu      sync.Mutex
	obsSum  float64 // sum of observations (decayed when ageing is on)
	obsN    float64 // number of observations (decayed alongside obsSum)
	lastObs float64 // most recent raw observation
	tick    uint64  // logical clock at the last fold / factor application
	factor  float64 // last factor a calibrator applied beyond threshold
	hasFac  bool
	// dead marks an entry the sweep has unlinked from the map, set under
	// mu in the same critical section as the delete. A writer that fetched
	// the pointer before the sweep must not land its update in the orphan
	// (it would be silently lost): writers retry against the map, readers
	// treat the entry as absent.
	dead bool
}

// StatsStore maps canonical subexpression fingerprints to calibration state.
// Safe for concurrent use by any number of calibrators.
type StatsStore struct {
	opts  Options
	clock atomic.Uint64 // logical observation clock: one tick per Fold

	decays    atomic.Int64 // folds that applied exponential decay
	reclaimed atomic.Int64 // entries deleted by the staleness sweep

	mu        sync.RWMutex
	m         map[string]*stat
	lastSweep uint64 // clock value of the last staleness sweep
}

// New builds an empty store with ageing disabled (full cumulative history).
func New() *StatsStore { return NewWithOptions(Options{}) }

// NewWithOptions builds an empty store with the given ageing configuration.
func NewWithOptions(o Options) *StatsStore {
	return &StatsStore{opts: o, m: map[string]*stat{}}
}

// Clock returns the logical observation clock: the total number of folds the
// store has absorbed (including those restored by Load).
func (s *StatsStore) Clock() uint64 { return s.clock.Load() }

// Decays reports how many folds applied exponential decay to stored sums.
func (s *StatsStore) Decays() int64 { return s.decays.Load() }

// Reclaimed reports how many entries the staleness sweep has deleted.
func (s *StatsStore) Reclaimed() int64 { return s.reclaimed.Load() }

func (s *StatsStore) get(key string, create bool) *stat {
	s.mu.RLock()
	e := s.m[key]
	s.mu.RUnlock()
	if e != nil || !create {
		return e
	}
	s.mu.Lock()
	if e = s.m[key]; e == nil {
		e = &stat{tick: s.clock.Load()}
		s.m[key] = e
	}
	s.mu.Unlock()
	return e
}

// age returns how many logical ticks ago the entry was last touched. Called
// with e.mu held.
func (s *StatsStore) age(e *stat, now uint64) uint64 {
	if now < e.tick { // clock restored behind a live entry; treat as fresh
		return 0
	}
	return now - e.tick
}

// decay scales the entry's cumulative sums by the exponential-ageing weight
// for its current age. Called with e.mu held, before folding a new
// observation at logical time now.
func (s *StatsStore) decay(e *stat, now uint64) {
	if s.opts.DecayHalfLife <= 0 || e.obsN == 0 {
		return
	}
	age := s.age(e, now)
	if age == 0 {
		return
	}
	w := math.Exp2(-float64(age) / s.opts.DecayHalfLife)
	e.obsSum *= w
	e.obsN *= w
	s.decays.Add(1)
}

// Fold records one observation for key and returns the calibration estimate:
// the cumulative average when cumulative is true, the observation itself
// otherwise. With ageing off, cumulative sums are commutative, so
// interleaved folds from concurrent calibrators land in a consistent state
// regardless of order; with decay on, interleaving can shift each fold's
// weight by at most one tick — immaterial at any sane half-life.
func (s *StatsStore) Fold(key string, obs float64, cumulative bool) float64 {
	now := s.clock.Add(1)
	s.maybeSweep(now)
	e := s.lockLive(key)
	defer e.mu.Unlock()
	s.decay(e, now)
	e.obsSum += obs
	e.obsN++
	e.lastObs = obs
	e.tick = now
	if cumulative {
		return e.obsSum / e.obsN
	}
	return obs
}

// lockLive returns the live entry for key with its mutex held, creating one
// as needed. A concurrent sweep can unlink an entry between the map lookup
// and the entry lock; retrying against the map keeps the update from
// landing in the orphan (a fresh entry replaces it on the next lookup, so
// the loop terminates).
func (s *StatsStore) lockLive(key string) *stat {
	for {
		e := s.get(key, true)
		e.mu.Lock()
		if !e.dead {
			return e
		}
		e.mu.Unlock()
	}
}

// SetFactor records the factor a calibrator just applied for key. Last
// writer wins; concurrent writers have folded near-identical observations,
// so their factors agree to within the feedback threshold. Applying a factor
// refreshes the entry's logical timestamp: a factor in active use is not
// stale.
func (s *StatsStore) SetFactor(key string, factor float64) {
	e := s.lockLive(key)
	e.factor = factor
	e.hasFac = true
	e.tick = s.clock.Load()
	e.mu.Unlock()
}

// Factor returns the last applied factor for key, and whether one exists.
// It is the warm-start read: a fresh cost model seeded with these factors
// starts where the workload's learning left off. A factor beyond the
// staleness horizon is reported as unknown — past the horizon a cold start
// beats warm-starting from statistics the drifted data has outgrown.
func (s *StatsStore) Factor(key string) (float64, bool) {
	e := s.get(key, false)
	if e == nil {
		return 1, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead || s.stale(e, s.clock.Load()) {
		return 1, false
	}
	return e.factor, e.hasFac
}

// stale reports whether the entry is beyond the staleness horizon. Called
// with e.mu held.
func (s *StatsStore) stale(e *stat, now uint64) bool {
	return s.opts.StaleAfter > 0 && s.age(e, now) > s.opts.StaleAfter
}

// Len reports the number of fingerprints with recorded state.
func (s *StatsStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// StaleKeys reports how many recorded fingerprints are currently beyond the
// staleness horizon (0 when ageing is off): learned state that no longer
// warm-starts and is awaiting reclamation.
func (s *StatsStore) StaleKeys() int {
	if s.opts.StaleAfter == 0 {
		return 0
	}
	now := s.clock.Load()
	s.mu.RLock()
	stats := make([]*stat, 0, len(s.m))
	for _, e := range s.m {
		stats = append(stats, e)
	}
	s.mu.RUnlock()
	n := 0
	for _, e := range stats {
		e.mu.Lock()
		if s.stale(e, now) {
			n++
		}
		e.mu.Unlock()
	}
	return n
}

// maybeSweep runs the staleness sweep at most once per StaleAfter ticks, so
// reclamation cost amortizes to O(1) per fold.
func (s *StatsStore) maybeSweep(now uint64) {
	if s.opts.StaleAfter == 0 {
		return
	}
	s.mu.RLock()
	due := now-s.lastSweep >= s.opts.StaleAfter
	s.mu.RUnlock()
	if due {
		s.Sweep()
	}
}

// Sweep reclaims every entry older than twice the staleness horizon and
// returns how many it deleted. It runs automatically (amortized) during
// folds; exposing it lets servers and tests reclaim deterministically.
func (s *StatsStore) Sweep() int {
	if s.opts.StaleAfter == 0 {
		return 0
	}
	now := s.clock.Load()
	horizon := s.opts.reclaimAfter()
	n := 0
	s.mu.Lock()
	s.lastSweep = now
	for key, e := range s.m {
		e.mu.Lock()
		dead := s.age(e, now) > horizon
		e.dead = dead // tombstone: writers holding the pointer retry
		e.mu.Unlock()
		if dead {
			delete(s.m, key)
			n++
		}
	}
	s.mu.Unlock()
	s.reclaimed.Add(int64(n))
	return n
}

// StatSnapshot is one fingerprint's exported state.
type StatSnapshot struct {
	Key     string
	ObsN    float64 // observation count (decayed weight when ageing is on)
	ObsAvg  float64 // cumulative (exponentially weighted) average observation
	LastObs float64
	Tick    uint64  // logical clock at the last observation
	Stale   bool    // beyond the staleness horizon (never warm-starts)
	Factor  float64 // last applied factor (1 when none applied yet)
	Applied bool    // whether any factor has been applied
}

// Snapshot exports the store for metrics, sorted by key. Each entry is
// internally consistent (copied under its lock); the set of entries is the
// store's contents at the moment of the map copy.
func (s *StatsStore) Snapshot() []StatSnapshot {
	now := s.clock.Load()
	s.mu.RLock()
	keys := make([]string, 0, len(s.m))
	stats := make([]*stat, 0, len(s.m))
	for k, e := range s.m {
		keys = append(keys, k)
		stats = append(stats, e)
	}
	s.mu.RUnlock()

	out := make([]StatSnapshot, len(keys))
	for i, e := range stats {
		e.mu.Lock()
		out[i] = StatSnapshot{
			Key: keys[i], ObsN: e.obsN, LastObs: e.lastObs,
			Tick: e.tick, Stale: s.stale(e, now),
			Factor: 1, Applied: e.hasFac,
		}
		if e.obsN > 0 {
			out[i].ObsAvg = e.obsSum / e.obsN
		}
		if e.hasFac {
			out[i].Factor = e.factor
		}
		e.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
