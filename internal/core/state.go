package core

import (
	"math/bits"

	"repro/internal/relalg"
)

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

// groupID names a group by its index in Optimizer.groups, and entryID an
// entry by its index in Optimizer.entries; noGroup marks an absent child.
// Ids, not pointers, because both slabs grow by append and are copied out at
// their exact length when Optimize returns (later, by trim).
type groupID int32
type entryID int32

const noGroup groupID = -1

// entry is an "AND node": one SearchSpace tuple plus its PlanCost state and
// the ParentBound facts it derives for its children. Entries live by value
// in one slab; a group's entries are contiguous there, in enumeration order,
// so an entry's Index (the BestCost tiebreak) is id minus its group's lo.
// Like a *group, a *entry held across demandGroup may be stale.
type entry struct {
	alt relalg.Alt
	g   groupID
	id  entryID // the entry's position in Optimizer.entries

	// children: resolved child groups once the entry has been expanded.
	children [2]groupID // [sideLeft, sideRight]; noGroup where absent

	localCost float64

	// cost is the entry's input to its group's BestCost aggregate, once
	// costKnown. It is kept for pruned entries too (§4.1: "the aggregate
	// operator preserves all the computed, even pruned, PlanCost tuples ...
	// so it can find the next best value"), which is what makes the
	// aggregate a plain minimum over the group's entries.
	cost float64 // LocalCost + Σ children bestCost

	// floor is a certified lower bound on the entry's eventual (true) plan
	// cost, kept equal to deriveFloor. Crucially it never reads a child's
	// BestCost, which can be transiently inflated during pipelined execution
	// (the child's cheap plans not yet costed): an inflated value inside a
	// lower bound would make pruning unsound. Floors are monotone up the
	// DAG and reach the exact plan cost once the subtree is fully costed.
	floor float64

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

// deriveFloor evaluates e's floor from its local cost and its children's
// group floors.
func (o *Optimizer) deriveFloor(e *entry) float64 {
	f := e.localCost
	for _, c := range e.children {
		if c != noGroup {
			f += o.groups[c].floor
		}
	}
	return f
}

// parentEdge records that a parent entry demanded a group as one of its
// children — the reverse edges along which BestCost deltas propagate
// upward and bound contributions propagate downward. All edges live in one
// slab, Optimizer.edges; a group's chain runs from group.parents along next,
// in insertion order, to noEdge.
type parentEdge struct {
	e    entryID
	next int32
	s    side
}

const noEdge = -1

// group is an "OR node" with the aggregate state of rules R9–R10 (BestCost)
// and r1–r4 (Bound). Neither aggregate has a structure of its own: BestCost
// is the minimum over its entries' costs and MaxBound the maximum over the
// contributions on the parent edges, both recomputed by a scan when an
// input moves (group fan-in is tens of alternatives).
type group struct {
	key      groupKey
	id       groupID // the group's position in Optimizer.groups
	sameExpr groupID // the next group of key.expr in Optimizer.byExpr's chain
	lo, hi   entryID // its entries are Optimizer.entries[lo:hi]

	// bestCost is the BestCost value last emitted downstream, if hasBest.
	bestCost float64

	// refCount counts live parent references (plus one pin for the
	// root). alive == refCount > 0 when RefCount mode is active.
	refCount int

	parents, lastParent int32 // the ends of its edge chain (noEdge: no parent)

	// bound is the recursive Bound relation value (+inf when inactive).
	bound float64

	// floor is a certified lower bound on the cost of any plan this group
	// can ever produce: min over entries of entry.floor. It gates every
	// suppression side effect (reference release, expansion
	// cancellation), which keeps pruning sound against transiently
	// inflated BestCost values; see engine.go.
	floor float64

	touchEpoch uint64

	// rank orders the group's tasks in rankQueue: 2·|expr|, plus one
	// under a required property, so it exceeds every child group's rank.
	rank uint8

	// The flags sit together so that they pack into one word per group.
	hasBest         bool
	alive           bool
	reconcileQueued bool
	boundQueued     bool
	onPath          bool // plan extraction's cycle guard
}

// maxContrib returns g's MaxBound aggregate (rule r3). A group with no
// contributing parent edge (the root, or a group all of whose parents are
// suppressed) is unconstrained from above: +inf. Likewise any single +inf
// contribution (a parent whose own bound is not yet finite) makes the
// maximum +inf — a plan is viable if it is viable for ANY parent, so one
// unconstrained parent means no constraint at all.
func (o *Optimizer) maxContrib(g *group) float64 {
	max, any := -infinity, false
	for i := g.parents; i != noEdge; i = o.edges[i].next {
		pr := &o.edges[i]
		if e := &o.entries[pr.e]; e.hasContrib[pr.s] {
			any = true
			if v := e.contrib[pr.s]; v > max {
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
	taskReconcile                 // reconcileGroup(g)
	taskContrib                   // refreshContribs(e)
	taskBound                     // recomputeBound(g)
)

// task is one pending delta evaluation in group g (e's, for an entry task):
// a plain value, so queueing a delta allocates nothing once the queue has
// grown to its working size. next chains it in rankQueue.
type task struct {
	e    entryID
	g    groupID
	next int32
	kind taskKind
}

// rankQueue holds the hot tasks in the height order of self-adjusting
// computation's change propagation (Acar et al., PLDI 2006). It pops the
// lowest key first: cost deltas (recost, reconcile) by ascending group rank,
// then bound deltas (bound, contrib) by descending rank. A group's rank
// exceeds its children's, so each affected group runs once its inputs have
// settled, not once per input that moved. One key's tasks pop LIFO, chained
// through one slab that is emptied whenever the queue is. A bitmap of the
// non-empty keys finds the lowest with a trailing-zero count per 64 keys.
// A contribution refresh that could change nothing is never pushed (see
// queueContrib), which keeps most of a repair's bound wave out of it.
type rankQueue struct {
	cells []task
	heads []int32  // per key, its chain's top cell + 1 (0: empty)
	full  []uint64 // bit k%64 of word k/64 is set iff heads[k] != 0
}

func newRankQueue(keys int) rankQueue {
	return rankQueue{heads: make([]int32, keys), full: make([]uint64, (keys+63)/64), cells: make([]task, 0, 64)}
}

// push queues t for a group of the given rank.
func (q *rankQueue) push(t task, rank uint8) {
	k := 2 * int(rank) // a group's recosts before its reconcile
	switch t.kind {
	case taskReconcile:
		k++
	case taskBound: // a group's bound before its contributions
		k = len(q.heads) - 2 - k
	case taskContrib:
		k = len(q.heads) - 1 - k
	}
	t.next = q.heads[k]
	q.cells = append(q.cells, t)
	q.heads[k] = int32(len(q.cells))
	q.full[k>>6] |= 1 << (k & 63)
}

func (q *rankQueue) pop() (task, bool) {
	for w, bits64 := range q.full {
		if bits64 == 0 {
			continue
		}
		k := w<<6 | bits.TrailingZeros64(bits64)
		t := q.cells[q.heads[k]-1]
		q.heads[k] = t.next
		if t.next == 0 {
			q.full[w] &^= 1 << (k & 63)
		}
		return t, true
	}
	q.cells = q.cells[:0]
	return task{}, false
}

// expansions is the cold worklist of entries to expand, by id, which an
// expansion that grows the entry slab leaves valid: LIFO by default —
// depth-first exploration completes one full plan quickly, seeding the
// pruning thresholds — and FIFO for the breadth-first search-order ablation.
type expansions struct {
	items []entryID
	head  int
	fifo  bool
}

func (w *expansions) push(e entryID) { w.items = append(w.items, e) }

func (w *expansions) pop() (entryID, bool) {
	n := len(w.items)
	if w.head >= n {
		w.items, w.head = w.items[:0], 0
		return 0, false
	}
	if w.fifo {
		w.head++
		return w.items[w.head-1], true
	}
	e := w.items[n-1]
	w.items = w.items[:n-1]
	return e, true
}
