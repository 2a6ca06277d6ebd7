package core

import "repro/internal/relalg"

// groupKey identifies an "OR node": the (Expr, Prop) key shared by the
// paper's SearchSpace, BestCost and Bound relations.
type groupKey struct {
	expr relalg.RelSet
	prop relalg.Prop
}

// side distinguishes an entry's child slots.
type side uint8

const (
	sideLeft side = iota
	sideRight
)

// entry is an "AND node": one SearchSpace tuple plus its PlanCost state and
// the ParentBound facts it derives for its children. Entries live by value
// in their group's slab at their Index (the BestCost tiebreak) and never
// move, so *entry is stable.
type entry struct {
	g   *group
	alt relalg.Alt

	localCost float64

	// children: resolved child groups once the entry has been expanded.
	children [2]*group // [sideLeft, sideRight]; nil where absent

	// cost is the entry's input to its group's BestCost aggregate, once
	// costKnown. It is kept for pruned entries too (§4.1: "the aggregate
	// operator preserves all the computed, even pruned, PlanCost tuples ...
	// so it can find the next best value"), which is what makes the
	// aggregate a plain minimum over the group's entries.
	cost float64 // LocalCost + Σ children bestCost

	// contrib[s] is the ParentBound value (rules r1–r2) this entry passes
	// down its child edge s, an input to children[s]'s MaxBound aggregate
	// while hasContrib[s] is set.
	contrib    [2]float64
	touchEpoch uint64

	// The flags sit together so that they pack into one word per entry.
	expanded   bool
	costKnown  bool
	hasContrib [2]bool

	// pruned marks the PlanCost tuple as removed by aggregate selection
	// or bounding. With Pruning.Suppress the SearchSpace source is also
	// suppressed (expansion cancelled / child references dropped).
	pruned bool
	// refHeld reports whether this entry currently holds reference
	// counts on its children (RefCount mode bookkeeping).
	refHeld bool

	// worklist dedup flags
	recostQueued  bool
	contribQueued bool
}

// floor is a certified lower bound on the entry's eventual (true) plan
// cost: its local cost plus the floors of its children. Crucially it never
// reads a child's BestCost — during pipelined execution a BestCost can be
// transiently inflated (the child's cheap plans not yet costed), and an
// inflated value inside a lower bound would make pruning unsound. Floors
// are monotone up the expression DAG and converge to the exact plan cost
// once the subtree is fully expanded and costed.
func (e *entry) floor() float64 {
	f := e.localCost
	for _, c := range e.children {
		if c != nil {
			f += c.floor
		}
	}
	return f
}

// parentRef records that a parent entry demanded this group as one of its
// children — the reverse edges along which BestCost deltas propagate
// upward and bound contributions propagate downward.
type parentRef struct {
	e *entry
	s side
}

// group is an "OR node" with the aggregate state of rules R9–R10 (BestCost)
// and r1–r4 (Bound). Neither aggregate has a structure of its own: BestCost
// is the minimum over entries[i].cost and MaxBound the maximum over the
// contributions on the parents edges, both recomputed by a scan when an
// input moves (group fan-in is tens of alternatives).
type group struct {
	key      groupKey
	sameExpr *group  // the next group of key.expr in Optimizer.groups' chain
	entries  []entry // the group's slab, in enumeration order

	// bestCost is the BestCost value last emitted downstream, if hasBest.
	bestCost float64

	// refCount counts live parent references (plus one pin for the
	// root). alive == refCount > 0 when RefCount mode is active.
	refCount int

	parents []parentRef

	// bound is the recursive Bound relation value (+inf when inactive).
	bound float64

	// floor is a certified lower bound on the cost of any plan this group
	// can ever produce: min over entries of entry.floor(). It gates every
	// suppression side effect (reference release, expansion
	// cancellation), which keeps pruning sound against transiently
	// inflated BestCost values; see engine.go.
	floor float64

	touchEpoch uint64

	// The flags sit together so that they pack into one word per group.
	hasBest         bool
	alive           bool
	reconcileQueued bool
	boundQueued     bool
	onPath          bool // plan extraction's cycle guard
}

// minEntry returns the BestCost aggregate's minimum: the cheapest costed
// entry, pruned ones included, ties going to the lowest id. With liveOnly it
// skips pruned entries, which yields the BestPlan tuple instead.
func (g *group) minEntry(liveOnly bool) *entry {
	var min *entry
	for i := range g.entries {
		e := &g.entries[i]
		if e.costKnown && !(liveOnly && e.pruned) && (min == nil || e.cost < min.cost) {
			min = e
		}
	}
	return min
}

// maxContrib returns the MaxBound aggregate (rule r3). A group with no
// contributing parent edge (the root, or a group all of whose parents are
// suppressed) is unconstrained from above: +inf. Likewise any single +inf
// contribution (a parent whose own bound is not yet finite) makes the
// maximum +inf — a plan is viable if it is viable for ANY parent, so one
// unconstrained parent means no constraint at all.
func (g *group) maxContrib() float64 {
	max, any := -infinity, false
	for _, pr := range g.parents {
		if pr.e.hasContrib[pr.s] {
			any = true
			if v := pr.e.contrib[pr.s]; v > max {
				max = v
			}
		}
	}
	if !any {
		return infinity
	}
	return max
}

// ---- worklists ----

// taskKind names the delta evaluation a task performs; drain dispatches on
// it.
type taskKind uint8

const (
	taskExpand    taskKind = iota // expandEntry(e)
	taskRecost                    // tryCost(e)
	taskContrib                   // refreshContribs(e)
	taskReconcile                 // reconcileGroup(g)
	taskBound                     // recomputeBound(g)
)

// task is one pending delta evaluation: a plain value, so queueing a delta
// allocates nothing once the worklist has grown to its working size.
type task struct {
	kind taskKind
	e    *entry
	g    *group
}

// worklist is a queue of pending work: tasks on the hot list, the entries
// to expand on the cold one. Cost/bound/reference deltas run FIFO;
// expansions run LIFO by default — depth-first exploration completes one
// full plan quickly, seeding the pruning thresholds — and FIFO for the
// breadth-first search-order ablation.
type worklist[T any] struct {
	items []T
	head  int
	fifo  bool
}

func (w *worklist[T]) push(t T) { w.items = append(w.items, t) }

func (w *worklist[T]) pop() (T, bool) {
	n := len(w.items)
	if w.head >= n {
		var none T
		w.items, w.head = w.items[:0], 0
		return none, false
	}
	if w.fifo {
		w.head++
		return w.items[w.head-1], true
	}
	t := w.items[n-1]
	w.items = w.items[:n-1]
	return t, true
}
