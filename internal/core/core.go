// Package core implements the paper's primary contribution: a cost-based
// query optimizer whose state — the SearchSpace, PlanCost, BestCost/BestPlan
// and Bound relations of the ten datalog rules in the paper's appendix — is
// an incrementally maintainable materialized view. After a cost or
// cardinality update, only the affected region of the plan space is
// recomputed, instead of re-running optimization from scratch.
//
// # Architecture
//
// The optimizer state is organized exactly as the paper's dataflow
// (Figure 1):
//
//   - a group ("OR node") per (expression, property) pair holds the
//     BestCost aggregate: the minimum over the plan costs of its entries.
//     Following §4.1, the aggregate retains all inputs — every entry keeps
//     its computed cost, pruned or not — so the "next best" value is
//     recoverable when the minimum is deleted or raised.
//   - an entry ("AND node") per SearchSpace alternative carries LocalCost,
//     the recursive PlanCost = LocalCost + Σ children BestCost (rules
//     R6–R8), and on each child edge the ParentBound value it contributes
//     to that child's MaxBound aggregate (rules r1–r3).
//   - the state is three slabs — groups, entries, parent edges — and a map
//     from an expression to its groups. Every reference between them is an
//     index, so the slabs hold no pointer. A group's entries are one
//     contiguous range of the entry slab, and an entry's offset in that
//     range is its Index. One rule keeps pointers into the slabs sound:
//     only demandGroup appends a group or an entry, so a *group or *entry
//     held across it may be stale. The slabs are trimmed to length on
//     return.
//   - deltas (cost insertions, deletions, updates; bound updates; reference
//     count changes) flow through a worklist until fixpoint, mimicking the
//     pipelined push-based execution of the ASPEN engine. Deltas run before
//     expansions, which go depth-first, so cost information can outrun
//     enumeration — which is what lets aggregate selection cancel the
//     expansion of provably useless subtrees, the paper's "opportunistic"
//     pruning. Cost deltas run bottom-up and bound deltas top-down in group
//     rank order, so a repair settles each affected group about once; a
//     bitmap of non-empty ranks finds the next, and a contribution refresh
//     of an unexpanded, pruned or released entry is never queued. A queued
//     delta is a plain value and all aggregate state lives in the slabs
//     above, so a repair in steady state allocates nothing but its plan.
//
// Because the state holds no pointer, copying the slabs copies the
// optimizer. Clone does so into the cost model of another statement over
// the same join graph (the plan cache's miss path): it rewrites every
// relation ordinal and join-predicate index through the caller's maps and
// stages a cardinality and a scan-cost update on every relation, so the next
// Reoptimize re-prices every entry from the new model and repairs the copy
// to its optimum — the paper's incremental re-optimization across queries
// instead of across time.
//
// The three pruning strategies of §3 are independently switchable (Pruning),
// enabling the paper's Figure 7/8 breakdowns and the Evita-Raced
// compatibility mode used as a baseline in Figure 4.
package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/relalg"
)

// Pruning selects which of the paper's pruning strategies are active.
type Pruning struct {
	// AggSel enables aggregate selection (§3.1): a PlanCost tuple that
	// cannot beat the current BestCost of its group is pruned (not
	// propagated downstream), though its value is retained inside the
	// aggregate for next-best recovery.
	AggSel bool
	// Suppress enables tuple source suppression (§3.1): pruning a
	// PlanCost tuple cascades a deletion to its SearchSpace source,
	// cancelling any not-yet-performed expansion of its children.
	// Without it (the Evita-Raced mode), pruning is bookkeeping only.
	Suppress bool
	// RefCount enables reference counting (§3.2): a group whose parent
	// plans have all been suppressed is released, recursively.
	RefCount bool
	// Bound enables recursive bounding (§3.3): the generalized
	// branch-and-bound Bound relation of rules r1–r4.
	Bound bool
}

// Validate rejects combinations the paper calls out as nonsensical
// ("reference counting must be combined with one of the other techniques,
// and branch-and-bound requires aggregate selection").
func (p Pruning) Validate() error {
	if p.Suppress && !p.AggSel {
		return fmt.Errorf("core: Suppress requires AggSel")
	}
	if p.RefCount && !p.Suppress {
		return fmt.Errorf("core: RefCount requires Suppress")
	}
	if p.Bound && !p.AggSel {
		return fmt.Errorf("core: Bound requires AggSel")
	}
	return nil
}

// The pruning presets used throughout the evaluation.
var (
	// PruneNone disables all pruning: the full space is enumerated and
	// costed. Used to compute census denominators for pruning ratios.
	PruneNone = Pruning{}
	// PruneEvita reproduces the Evita Raced baseline: pruning only
	// against logically equivalent plans for the same output properties,
	// with no source suppression (it "never prunes plan table entries").
	PruneEvita = Pruning{AggSel: true}
	// PruneAggSel is aggregate selection with tuple source suppression.
	PruneAggSel = Pruning{AggSel: true, Suppress: true}
	// PruneAggSelRefCount adds reference counting.
	PruneAggSelRefCount = Pruning{AggSel: true, Suppress: true, RefCount: true}
	// PruneAggSelBound adds recursive bounding.
	PruneAggSelBound = Pruning{AggSel: true, Suppress: true, Bound: true}
	// PruneAll is the full declarative optimizer of the paper.
	PruneAll = Pruning{AggSel: true, Suppress: true, RefCount: true, Bound: true}
)

// String names the preset for reports.
func (p Pruning) String() string {
	switch p {
	case PruneNone:
		return "none"
	case PruneEvita:
		return "evita"
	case PruneAggSel:
		return "aggsel"
	case PruneAggSelRefCount:
		return "aggsel+refcount"
	case PruneAggSelBound:
		return "aggsel+b&b"
	case PruneAll:
		return "all"
	}
	return fmt.Sprintf("%+v", struct{ A, S, R, B bool }{p.AggSel, p.Suppress, p.RefCount, p.Bound})
}

// Metrics instruments the optimizer along the paper's two reporting axes —
// plan-table entries (groups / "OR nodes") and plan alternatives (entries /
// "AND nodes") — plus delta-propagation counters for the incremental
// experiments.
type Metrics struct {
	GroupsEnumerated int // OR nodes materialized
	AltsEnumerated   int // AND nodes materialized (SearchSpace insertions)

	AltsCosted     int // alternatives whose full cost was ever computed
	GroupsReleased int // groups currently dead (reference count zero)
	AltsSuppressed int // alternatives currently pruned

	CostRecomputations int64 // PlanCost delta evaluations
	BestUpdates        int64 // BestCost deltas emitted
	BoundUpdates       int64 // Bound deltas emitted
	Suppressions       int64 // SearchSpace deletions (monotone)
	Revivals           int64 // SearchSpace re-insertions (monotone)
	GroupKills         int64 // reference-count releases (monotone)
	GroupRevives       int64 // reference-count revivals (monotone)

	// Filled by Reoptimize: the size of the affected region.
	TouchedEntries int
	TouchedGroups  int

	Elapsed time.Duration
}

// AliveGroups counts groups that remain part of the maintained view.
func (m Metrics) AliveGroups() int { return m.GroupsEnumerated - m.GroupsReleased }

// Optimizer is the incremental declarative optimizer. Create one per query
// with New and call Optimize once, or Clone an optimized one of the same
// join graph and call Reoptimize; then interleave cost updates
// (Model.SetCardFactor / Model.SetScanCostFactor via UpdateCardFactor /
// UpdateScanCostFactor) with Reoptimize calls.
//
// Concurrency contract: an Optimizer (and the cost.Model it owns) is NOT
// safe for concurrent use — Optimize, Reoptimize, UpdateCardFactor,
// UpdateScanCostFactor and Metrics must be externally serialized, e.g. by
// the per-cache-entry mutex of internal/server. Plans returned by
// Optimize/Reoptimize are freshly built trees and may be read (and
// executed) concurrently with later repairs. A cheap atomic guard detects
// accidental concurrent entry into the mutating methods and panics rather
// than silently corrupting the materialized view.
type Optimizer struct {
	model *cost.Model
	space relalg.SpaceOptions
	mode  Pruning

	slabs                            // the state: groups, entries and parent edges
	byExpr map[relalg.RelSet]groupID // by expression: its newest group's id + 1; group.sameExpr chains the rest

	hot  rankQueue  // cost/bound/refcount deltas, in rank order
	cold expansions // entries to expand (LIFO: depth-first)

	// stepLimit bounds one drain; err latches a drain that reached it.
	stepLimit int
	err       error

	// breadthFirst switches expansion scheduling from depth-first (LIFO)
	// to breadth-first (FIFO) — the search-order ablation; §2.3 notes
	// that "a top-down search may have a depth-first, breadth-first or
	// another order" without affecting correctness.
	breadthFirst bool

	met       Metrics
	epoch     uint64 // bumped per Optimize/Reoptimize for touch tracking
	optimized bool

	pending []pendingUpdate // staged cost-parameter updates

	// busy is the misuse detector of the concurrency contract above: 1
	// while a mutating method runs, so overlapped calls fail fast.
	busy atomic.Int32
}

// enter flags the optimizer as mutating; overlapping entry is a caller bug
// (two goroutines sharing one optimizer without serialization).
func (o *Optimizer) enter(op string) {
	if !o.busy.CompareAndSwap(0, 1) {
		panic("core: concurrent " + op + " on Optimizer; callers must serialize access (see concurrency contract)")
	}
}

func (o *Optimizer) leave() { o.busy.Store(0) }

// New creates an optimizer for the model's query with the given plan space
// and pruning configuration.
func New(m *cost.Model, space relalg.SpaceOptions, mode Pruning) (*Optimizer, error) {
	if err := mode.Validate(); err != nil {
		return nil, err
	}
	return &Optimizer{
		model:  m,
		space:  space,
		mode:   mode,
		byExpr: map[relalg.RelSet]groupID{},

		// Two keys per group rank (up to 2n+1) and direction.
		hot:       newRankQueue(4 * (2*len(m.Q.Rels) + 2)),
		stepLimit: defaultStepLimit,
	}, nil
}

// Metrics returns a snapshot of the instrumentation counters.
func (o *Optimizer) Metrics() Metrics { return o.met }

// LiveState counts the state that remains part of the maintained view: the
// alive plan-table entries (groups) and the alive plan alternatives
// (costed, unpruned SearchSpace tuples in alive groups). These are the
// numerators of the paper's pruning ratios; the denominators are the census
// sizes of a pruning-free run.
func (o *Optimizer) LiveState() (groups, alts int) {
	for i := range o.groups {
		if o.groups[i].alive {
			groups++
		}
	}
	for i := range o.entries {
		if e := &o.entries[i]; e.costKnown && !e.pruned && o.groups[e.g].alive {
			alts++
		}
	}
	return groups, alts
}

// SetBreadthFirst switches the expansion order before Optimize is called;
// correctness is unaffected (the tests verify it), only pruning
// effectiveness varies.
func (o *Optimizer) SetBreadthFirst(b bool) { o.breadthFirst = b }

// Optimize performs the initial optimization: it seeds the root group
// (the query's full relation set with no required property), runs the
// delta worklist to fixpoint, and extracts the best plan.
func (o *Optimizer) Optimize() (*relalg.Plan, error) {
	o.enter("Optimize")
	defer o.leave()
	if o.err != nil {
		return nil, o.err
	}
	if o.optimized {
		return o.extract()
	}
	start := time.Now()
	o.cold.fifo = o.breadthFirst
	o.epoch++
	room := slabRoom.Swap(nil)
	if room == nil {
		room = new(slabs)
	}
	o.slabs = slabs{room.groups[:0], room.entries[:0], room.edges[:0]}
	o.demandGroup(groupKey{o.model.Q.AllRels(), relalg.AnyProp}).refCount++ // the root, pinned: always demanded
	if err := o.drain(); err != nil {
		return nil, err
	}
	*room = o.slabs
	o.slabs = room.exact()
	slabRoom.Store(room)
	o.optimized = true
	o.met.Elapsed = time.Since(start)
	return o.extract()
}

// BestCost returns the current best cost of the root group. It is only
// meaningful after Optimize.
func (o *Optimizer) BestCost() (float64, bool) {
	if len(o.groups) == 0 || !o.groups[0].hasBest {
		return 0, false
	}
	return o.groups[0].bestCost, true
}

// GroupBestCost exposes the BestCost view for any (expression, property)
// pair that has been materialized.
//
// Reached by: the deltalog oracle (TestOracleMatchesCore in
// internal/deltalog), which compares every group's BestCost with it.
func (o *Optimizer) GroupBestCost(s relalg.RelSet, p relalg.Prop) (float64, bool) {
	g := o.lookup(groupKey{s, p})
	if g == nil || !g.hasBest {
		return 0, false
	}
	return g.bestCost, true
}

// lookup returns the materialized group for key, or nil.
func (o *Optimizer) lookup(key groupKey) *group {
	for id := o.byExpr[key.expr] - 1; id != noGroup; id = o.groups[id].sameExpr {
		if g := &o.groups[id]; g.key.prop == key.prop {
			return g
		}
	}
	return nil
}

// slabRoom lends Optimize the room its slabs grow in, so an optimization
// allocates each slab once, at its exact length, at the end. One slot, not a
// sync.Pool, whose room stays on the P that put it back, out of reach of a
// caller on another P; an optimization that overlaps another grows its own
// room. The slabs hold no pointer, so the room keeps nothing else alive.
var slabRoom atomic.Pointer[slabs]

type slabs struct {
	groups  []group      // in creation order; groups[0] is the root
	entries []entry      // a group's entries are entries[lo:hi]
	edges   []parentEdge // group.parents chains a group's edges
}

func (s *slabs) exact() slabs { return slabs{exact(s.groups), exact(s.entries), exact(s.edges)} }

// trim reallocates the slabs to their exact lengths if a repair grew them,
// so an optimizer the plan cache keeps holds no slack.
func (o *Optimizer) trim() {
	if cap(o.groups) > len(o.groups) || cap(o.entries) > len(o.entries) || cap(o.edges) > len(o.edges) {
		o.slabs = o.exact()
	}
}

func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

func (o *Optimizer) threshold(g *group) float64 {
	t := math.Inf(1)
	if o.mode.AggSel && g.hasBest {
		t = g.bestCost
	}
	if o.mode.Bound && g.bound < t {
		t = g.bound
	}
	return t
}

var infinity = math.Inf(1)
