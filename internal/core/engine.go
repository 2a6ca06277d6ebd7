package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/relalg"
)

// This file is the delta-propagation engine: the counterpart of the ASPEN
// pipelined executor running the paper's rules. Every state transition is a
// small task value on one of two worklists; drain dispatches them to fixpoint.
//
// Scheduling policy: cost/bound/reference deltas (the hot rankQueue) always
// run before expansions (the cold LIFO stack). Hot-first lets cost
// information race ahead of enumeration — the paper's decoupling of cost
// estimation from plan enumeration — and LIFO expansion is a depth-first
// descent that completes one full plan quickly, seeding the thresholds later
// expansions are tested against. The hot queue runs cost deltas bottom-up
// and bound deltas top-down in group rank order, so a repair reconciles an
// affected group about once per wave. Correctness is order-independent (only
// the cold order is switchable: SetBreadthFirst, TestBreadthFirstAgrees);
// only the amount of work and pruning varies, as §3.1 observes.

// defaultStepLimit bounds one drain. A correct engine converges orders of
// magnitude earlier; reaching the limit means a delta cycle, which is a bug
// in this package but must not take down the caller that holds the optimizer
// (the server repairs under a per-entry mutex on the feedback path).
const defaultStepLimit = 200_000_000

// drain runs the worklists to fixpoint. If the step limit is reached first
// the state is mid-propagation and unusable: the error is latched and every
// later Optimize/Reoptimize returns it.
func (o *Optimizer) drain() error {
	for steps := 0; ; steps++ {
		t, ok := o.hot.pop()
		if !ok {
			// An expansion is the zero task with its entry set.
			if t.e, ok = o.cold.pop(); !ok {
				return nil
			}
		}
		if steps >= o.stepLimit {
			o.err = fmt.Errorf("core: delta worklist of query %s failed to converge within %d steps", o.model.Q.Name, o.stepLimit)
			return o.err
		}
		switch t.kind {
		case taskExpand:
			o.expandEntry(t.e)
		case taskRecost:
			o.entries[t.e].recostQueued = false
			o.tryCost(&o.entries[t.e])
		case taskContrib:
			o.entries[t.e].contribQueued = false
			o.refreshContribs(&o.entries[t.e])
		case taskReconcile:
			o.reconcileGroup(&o.groups[t.g])
		case taskBound:
			o.recomputeBound(&o.groups[t.g])
		}
	}
}

// altBufs holds demandGroup's enumeration buffers, so that no optimizer
// regrows one and a cached optimizer holds none.
var altBufs = sync.Pool{New: func() any { return new([]relalg.Alt) }}

// demandGroup materializes the group for key if needed, enumerating its
// SearchSpace alternatives (rules R1–R5 via the shared Fn_split) into the
// entry slab and scheduling their expansion. It is the only code that
// appends to the group and entry slabs, so a *group or *entry held across it
// may be stale: expandEntry re-reads its entry and group afterwards.
func (o *Optimizer) demandGroup(key groupKey) *group {
	if g := o.lookup(key); g != nil {
		return g
	}
	id := groupID(len(o.groups))
	o.groups = append(o.groups, group{key: key, id: id, sameExpr: o.byExpr[key.expr] - 1, parents: noEdge, lastParent: noEdge,
		alive: true, bound: infinity, floor: infinity})
	o.byExpr[key.expr] = id + 1
	g := &o.groups[id]
	g.rank = uint8(2 * key.expr.Count())
	if key.prop != relalg.AnyProp {
		g.rank++
	}
	o.met.GroupsEnumerated++
	o.touchGroup(g)

	buf := altBufs.Get().(*[]relalg.Alt)
	alts := relalg.Split(o.model.Q, o.model, o.space, key.expr, key.prop, (*buf)[:0])
	o.met.AltsEnumerated += len(alts)
	g.lo = entryID(len(o.entries))
	for i := range alts {
		lc := o.model.LocalCost(&alts[i], key.expr, key.prop)
		o.entries = append(o.entries, entry{alt: alts[i], g: id, id: entryID(len(o.entries)),
			children: [2]groupID{noGroup, noGroup}, localCost: lc, floor: lc})
		g.floor = min(g.floor, lc)
	}
	g.hi = entryID(len(o.entries))
	*buf = alts
	altBufs.Put(buf)
	// LIFO stack: push in reverse so alternative 0 expands first.
	for i := g.hi - 1; i >= g.lo; i-- {
		o.cold.push(i)
	}
	return g
}

// expandEntry performs the SearchSpace tuple's recursive step: demand the
// child groups (which enumerates them if new). Before doing so it applies
// pre-expansion pruning — if even a lower bound on the eventual plan cost
// already exceeds the group's threshold, the SearchSpace tuple is
// suppressed without ever exploring its children. This is where tuple
// source suppression converts pruned costs into avoided enumeration.
func (o *Optimizer) expandEntry(id entryID) {
	e := &o.entries[id]
	if e.expanded || e.pruned {
		return
	}
	if g := &o.groups[e.g]; o.mode.RefCount && !g.alive {
		return // dormant; reviveGroup re-schedules expansion
	} else if o.mode.Suppress && e.floor > slack(o.threshold(g)) {
		o.suppressEntry(e)
		return
	}
	e.expanded = true
	if alt := e.alt; !alt.Leaf() {
		l, r := o.demandChild(id, sideLeft, groupKey{alt.LExpr, alt.LProp}), noGroup
		if !alt.Unary() {
			r = o.demandChild(id, sideRight, groupKey{alt.RExpr, alt.RProp})
		}
		e = &o.entries[id] // demandChild may have moved the entry slab
		e.children = [2]groupID{l, r}
		e.floor = o.deriveFloor(e)
	}
	o.acquireRefs(e)
	o.tryCost(e)
	o.queueContrib(e)
	// Expansion can move the group floor (children floors now feed the
	// entry's) even when no cost is computed yet.
	o.queueReconcile(&o.groups[e.g])
}

// demandChild demands the group for key and appends entry e's edge s to the
// tail of its parent chain.
func (o *Optimizer) demandChild(e entryID, s side, key groupKey) groupID {
	g := o.demandGroup(key)
	id := int32(len(o.edges))
	o.edges = append(o.edges, parentEdge{e: e, next: noEdge, s: s})
	if g.lastParent == noEdge {
		g.parents = id
	} else {
		o.edges[g.lastParent].next = id
	}
	g.lastParent = id
	return g.id
}

// tryCost evaluates rules R6–R8 for one entry: PlanCost = LocalCost + the
// BestCost of each child group. It runs for pruned entries too — the
// aggregate's retained values stay exact, so revival decisions never rely
// on stale data (§4.1's requirement that next-best values be recoverable).
func (o *Optimizer) tryCost(e *entry) {
	if !e.expanded {
		return
	}
	c := e.localCost
	for _, id := range e.children {
		if id == noGroup {
			continue
		}
		ch := &o.groups[id]
		if !ch.hasBest {
			return // re-triggered when the child's BestCost first appears
		}
		c += ch.bestCost
	}
	o.setCost(e, c)
}

// setCost installs a PlanCost delta: insertion on first computation,
// update otherwise.
func (o *Optimizer) setCost(e *entry, c float64) {
	if e.costKnown && e.cost == c {
		return
	}
	o.met.CostRecomputations++
	o.touchEntry(e)
	if !e.costKnown {
		o.met.AltsCosted++
	}
	e.cost = c
	e.costKnown = true
	o.queueReconcile(&o.groups[e.g])
}

// ---- group reconciliation: BestCost maintenance + pruning alignment ----

func (o *Optimizer) queueReconcile(g *group) {
	if g.reconcileQueued {
		return
	}
	g.reconcileQueued = true
	o.hot.push(task{kind: taskReconcile, g: g.id}, g.rank)
}

// reconcileGroup recomputes the group's BestCost from the aggregate state
// (the four delta cases of §4.1 collapse to "take the minimum over the
// entries", because every entry retains its cost), notifies parents and
// bound machinery of BestCost deltas, and re-aligns every entry's pruned
// flag with the current thresholds — performing both directions of §4.3's
// case analysis (prune on lowered bounds, revive on raised ones).
func (o *Optimizer) reconcileGroup(g *group) {
	g.reconcileQueued = false
	// One walk finds the BestCost aggregate's minimum (pruned entries
	// included, ties to the lowest index) and the group floor, which no
	// suppression or revival below moves synchronously.
	var best *entry
	floor := infinity
	for i := g.lo; i < g.hi; i++ {
		e := &o.entries[i]
		floor = min(floor, e.floor)
		if e.costKnown && (best == nil || e.cost < best.cost) {
			best = e
		}
	}
	if best != nil && (!g.hasBest || g.bestCost != best.cost) {
		g.hasBest = true
		g.bestCost = best.cost
		o.met.BestUpdates++
		o.touchGroup(g)
		for i := g.parents; i != noEdge; i = o.edges[i].next {
			pe := &o.entries[o.edges[i].e]
			o.queueRecost(pe)
			// The parent entry's lower bound moved with this
			// BestCost, so the parent group's floor may move.
			o.queueReconcile(&o.groups[pe.g])
			o.queueContrib(pe) // sibling contributions shift
		}
		o.queueBound(g)
	}
	// Align each entry's pruned state with the thresholds.
	if o.mode.AggSel {
		thr := o.threshold(g)
		for i := g.lo; i < g.hi; i++ {
			e := &o.entries[i]
			if desired := o.shouldBePruned(e, thr, best); desired && !e.pruned {
				o.suppressEntry(e)
			} else if !desired && e.pruned {
				o.reviveEntry(e)
			}
		}
	}
	// Floor maintenance: a moved floor moves the parent entries' floors
	// and re-triggers what reads them — their bound contributions (rules
	// r1–r2) and their groups' pruning decisions, which are floor-gated
	// under suppression.
	if floor != g.floor {
		g.floor = floor
		for i := g.parents; i != noEdge; i = o.edges[i].next {
			pe := &o.entries[o.edges[i].e]
			pe.floor = o.deriveFloor(pe)
			o.queueReconcile(&o.groups[pe.g])
			if o.mode.Bound {
				o.queueContrib(pe)
			}
		}
	}
}

// shouldBePruned is the pruning predicate φ of §4.3. Bound comparisons use
// a small relative slack: bounds are derived by subtraction chains
// (rules r1–r2) while plan costs are derived by addition chains (R6–R8),
// so the two sides of the comparison can disagree by a few ulps even when
// they are mathematically equal — without slack the bound would prune the
// very best plan it was derived from. thr is the group's threshold and best
// its cheapest costed entry.
func (o *Optimizer) shouldBePruned(e *entry, thr float64, best *entry) bool {
	g := &o.groups[e.g]
	if e.costKnown {
		// Under tuple source suppression, pruning has side effects
		// (reference release, expansion cancellation) that can sever
		// cost propagation, so the test must use the certified floor:
		// a PlanCost value computed from a child's transiently
		// inflated BestCost may later fall, and an entry pruned on
		// such a value with its subtree severed could never recover.
		// The floor converges to the exact cost once the subtree is
		// fully costed, so at fixpoint this is exactly aggregate
		// selection (Proposition 5).
		v := e.cost
		if o.mode.Suppress {
			v = e.floor
		}
		if o.mode.Bound && v > slack(g.bound) {
			// Proposition 7: exceeds the recursive bound.
			return true
		}
		return e != best && v >= g.bestCost
	}
	// Not yet costed: pre-expansion suppression is only meaningful with
	// tuple source suppression enabled.
	return o.mode.Suppress && e.floor > slack(thr)
}

// slack widens a pruning threshold by a relative epsilon (see
// shouldBePruned).
func slack(b float64) float64 {
	if b == infinity {
		return b
	}
	return b + 1e-9*math.Abs(b) + 1e-12
}

// suppressEntry deletes the entry's PlanCost tuple (aggregate selection);
// with Suppress also its SearchSpace tuple (tuple source suppression),
// releasing child references and bound contributions.
func (o *Optimizer) suppressEntry(e *entry) {
	if e.pruned {
		return
	}
	e.pruned = true
	o.met.Suppressions++
	o.met.AltsSuppressed++
	o.touchEntry(e)
	if o.mode.Suppress {
		o.releaseRefs(e)
	}
	if o.mode.Bound {
		// A pruned LocalCost tuple no longer derives ParentBound
		// facts (rules r1–r2 join against live SearchSpace state).
		o.removeContribs(e)
	}
}

// reviveEntry undoes suppression: the "propagate an insertion to the
// previous stage" of §4.1. Unexpanded entries are (re-)scheduled for
// expansion; expanded ones re-acquire child references.
func (o *Optimizer) reviveEntry(e *entry) {
	if !e.pruned {
		return
	}
	e.pruned = false
	o.met.Revivals++
	o.met.AltsSuppressed--
	o.touchEntry(e)
	if o.mode.Suppress {
		if !e.expanded {
			o.cold.push(e.id)
		} else {
			o.acquireRefs(e)
			o.queueRecost(e)
		}
	}
	o.queueContrib(e)
}

func (o *Optimizer) queueRecost(e *entry) {
	if e.recostQueued {
		return
	}
	e.recostQueued = true
	o.hot.push(task{kind: taskRecost, e: e.id, g: e.g}, o.groups[e.g].rank)
}

// ---- reference counting (§3.2 / §4.2) ----

// acquireRefs makes the entry hold a reference on each child group.
func (o *Optimizer) acquireRefs(e *entry) {
	if e.refHeld || !e.expanded {
		return
	}
	e.refHeld = true
	for _, c := range e.children {
		if c != noGroup {
			o.retainGroup(&o.groups[c])
		}
	}
}

// releaseRefs drops the entry's child references.
func (o *Optimizer) releaseRefs(e *entry) {
	if !e.refHeld {
		return
	}
	e.refHeld = false
	for _, c := range e.children {
		if c != noGroup {
			o.releaseGroup(&o.groups[c])
		}
	}
}

func (o *Optimizer) retainGroup(g *group) {
	g.refCount++
	if g.refCount == 1 && !g.alive {
		o.reviveGroup(g)
	}
}

func (o *Optimizer) releaseGroup(g *group) {
	g.refCount--
	if g.refCount < 0 {
		panic("core: negative reference count")
	}
	if g.refCount == 0 && o.mode.RefCount && g.alive {
		o.killGroup(g)
	}
}

// killGroup removes a group whose reference count dropped to zero
// (Proposition 6), recursively releasing its entries' child references.
// State is retained so the group can be revived cheaply if a reference
// reappears, exactly as §4.2 prescribes for counts going 0→1.
func (o *Optimizer) killGroup(g *group) {
	g.alive = false
	o.met.GroupsReleased++
	o.met.GroupKills++
	o.touchGroup(g)
	for i := g.lo; i < g.hi; i++ {
		e := &o.entries[i]
		o.releaseRefs(e)
		if o.mode.Bound {
			o.removeContribs(e)
		}
	}
}

// reviveGroup resurrects a released group: unexpanded viable entries are
// re-scheduled and expanded ones re-acquire their child references.
func (o *Optimizer) reviveGroup(g *group) {
	g.alive = true
	o.met.GroupsReleased--
	o.met.GroupRevives++
	o.touchGroup(g)
	for i := g.lo; i < g.hi; i++ {
		e := &o.entries[i]
		if e.pruned {
			continue
		}
		if e.expanded {
			o.acquireRefs(e)
			o.queueRecost(e)
			o.queueContrib(e)
		} else {
			o.cold.push(e.id)
		}
	}
}

// ---- recursive bounding (§3.3 / §4.3, rules r1–r4) ----

func (o *Optimizer) queueBound(g *group) {
	if !o.mode.Bound || g.boundQueued {
		return
	}
	g.boundQueued = true
	o.hot.push(task{kind: taskBound, g: g.id}, g.rank)
}

// recomputeBound evaluates rule r4: Bound = min(BestCost, MaxBound). A
// change re-aligns this group's pruning and refreshes the ParentBound
// contributions this group's entries give their children (rules r1–r2).
func (o *Optimizer) recomputeBound(g *group) {
	g.boundQueued = false
	nb := infinity
	if g.hasBest && g.bestCost < nb {
		nb = g.bestCost
	}
	if mx := o.maxContrib(g); mx < nb {
		nb = mx
	}
	if nb == g.bound {
		return
	}
	g.bound = nb
	o.met.BoundUpdates++
	o.touchGroup(g)
	o.queueReconcile(g)
	for i := g.lo; i < g.hi; i++ {
		o.queueContrib(&o.entries[i])
	}
}

// queueContrib schedules refreshContribs(e) unless it would be a no-op: e
// unexpanded, pruned or in a released group. Every way out of those states
// queues e again; refreshContribs re-checks a state that changes meanwhile.
func (o *Optimizer) queueContrib(e *entry) {
	if !o.mode.Bound || e.contribQueued || !e.expanded || e.pruned {
		return
	}
	g := &o.groups[e.g]
	if o.mode.RefCount && !g.alive {
		return
	}
	e.contribQueued = true
	o.hot.push(task{kind: taskContrib, e: e.id, g: e.g}, g.rank)
}

// refreshContribs evaluates rules r1–r2 for one LocalCost tuple: the bound
// a parent plan passes to one child is the parent group's bound minus the
// operator's local cost minus the cost of the opposite (sibling) child.
//
// Soundness refinement over a literal reading of r1–r2: the rules subtract
// the sibling's BestCost, but during pipelined execution a sibling whose
// cheap alternatives are still suppressed or unexpanded reports an inflated
// BestCost; subtracting it would make the child's bound too tight and the
// system could settle into a self-consistent suboptimal fixpoint (each
// sibling's inflated best justifying pruning in the other). We therefore
// subtract the sibling's floor — a certified lower bound on any plan it can
// ever produce — which is never larger than the eventual BestCost, so the
// bound stays a valid upper bound on useful plan costs (Proposition 7)
// while converging to the paper's r1–r2 values once the sibling is fully
// costed.
func (o *Optimizer) refreshContribs(e *entry) {
	if !e.expanded || e.pruned {
		return
	}
	g := &o.groups[e.g]
	if o.mode.RefCount && !g.alive {
		return // a released group's plans derive no ParentBound facts
	}
	// The contribution derives from the parent bound WITH its pruning
	// slack applied: the invariant "a live parent implies its children's
	// cheapest plans stay under their bounds" must compose through the
	// subtraction chain, and slack is relative to the parent's (possibly
	// much larger) magnitude.
	gb := slack(g.bound)
	l := e.children[sideLeft]
	r := e.children[sideRight]
	if l != noGroup {
		v := infinity
		if gb < infinity {
			v = gb - e.localCost
			if r != noGroup {
				v -= o.groups[r].floor
			}
		}
		o.setContrib(e, sideLeft, v)
	}
	if r != noGroup {
		v := infinity
		if gb < infinity && l != noGroup {
			v = gb - e.localCost - o.groups[l].floor
		}
		o.setContrib(e, sideRight, v)
	}
}

// setContrib installs or updates the ParentBound value on e's child edge s.
func (o *Optimizer) setContrib(e *entry, s side, v float64) {
	if e.hasContrib[s] && e.contrib[s] == v {
		return
	}
	e.contrib[s], e.hasContrib[s] = v, true
	o.queueBound(&o.groups[e.children[s]])
}

// removeContribs retracts the ParentBound values e gives its children.
func (o *Optimizer) removeContribs(e *entry) {
	for s, c := range e.children {
		if e.hasContrib[s] {
			e.hasContrib[s] = false
			o.queueBound(&o.groups[c])
		}
	}
}

// ---- touch tracking (update-ratio metrics) ----

func (o *Optimizer) touchEntry(e *entry) {
	if e.touchEpoch != o.epoch {
		e.touchEpoch = o.epoch
		o.met.TouchedEntries++
	}
}

func (o *Optimizer) touchGroup(g *group) {
	if g.touchEpoch != o.epoch {
		g.touchEpoch = o.epoch
		o.met.TouchedGroups++
	}
}
