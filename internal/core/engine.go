package core

import (
	"fmt"
	"math"

	"repro/internal/relalg"
)

// This file is the delta-propagation engine: the counterpart of the ASPEN
// pipelined executor running the paper's rules. Every state transition is a
// small task value on one of two worklists; drain dispatches them to fixpoint.
//
// Scheduling policy: cost/bound/reference deltas (the "hot" FIFO queue) are
// always processed before expansion tasks (the "cold" LIFO stack). Hot-first
// lets cost information race ahead of enumeration — the paper's decoupling
// of cost estimation from plan enumeration — and LIFO expansion yields a
// depth-first descent that completes one full plan quickly, seeding the
// aggregate-selection and bounding thresholds that later expansions are
// tested against. Correctness is order-independent (the tests shuffle
// policies); only the amount of pruning varies, as §3.1 observes.

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
			if t, ok = o.cold.pop(); !ok {
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
			t.e.recostQueued = false
			o.tryCost(t.e)
		case taskContrib:
			t.e.contribQueued = false
			o.refreshContribs(t.e)
		case taskReconcile:
			o.reconcileGroup(t.g)
		case taskBound:
			o.recomputeBound(t.g)
		}
	}
}

// demandGroup materializes the group for key if needed, enumerating its
// SearchSpace alternatives (rules R1–R5 via the shared Fn_split) and
// scheduling their expansion.
func (o *Optimizer) demandGroup(key groupKey) *group {
	if g := o.groups[key]; g != nil {
		return g
	}
	g := &group{key: key, alive: true, bound: infinity, floor: infinity}
	o.groups[key] = g
	o.order = append(o.order, g)
	o.met.GroupsEnumerated++
	o.touchGroup(g)

	alts := relalg.Split(o.model.Q, o.model, o.space, key.expr, key.prop)
	o.met.AltsEnumerated += len(alts)
	g.entries = make([]entry, len(alts)) // one slab per group, not one object per alternative
	for i, alt := range alts {
		g.entries[i] = entry{
			id:        o.nextID,
			g:         g,
			index:     i,
			alt:       alt,
			localCost: o.model.LocalCost(alt, key.expr, key.prop),
		}
		o.nextID++
	}
	g.floor = computeFloor(g)
	// LIFO stack: push in reverse so alternative 0 expands first.
	for i := len(g.entries) - 1; i >= 0; i-- {
		o.queueExpand(&g.entries[i])
	}
	return g
}

// computeFloor evaluates the group floor from current entry floors.
func computeFloor(g *group) float64 {
	f := infinity
	for i := range g.entries {
		if v := g.entries[i].floor(); v < f {
			f = v
		}
	}
	return f
}

func (o *Optimizer) queueExpand(e *entry) { o.cold.push(task{kind: taskExpand, e: e}) }

// expandEntry performs the SearchSpace tuple's recursive step: demand the
// child groups (which enumerates them if new). Before doing so it applies
// pre-expansion pruning — if even a lower bound on the eventual plan cost
// already exceeds the group's threshold, the SearchSpace tuple is
// suppressed without ever exploring its children. This is where tuple
// source suppression converts pruned costs into avoided enumeration.
func (o *Optimizer) expandEntry(e *entry) {
	if e.expanded || e.pruned {
		return
	}
	g := e.g
	if o.mode.RefCount && !g.alive {
		return // dormant; reviveGroup re-schedules expansion
	}
	if o.mode.Suppress && e.floor() > slack(o.threshold(g)) {
		o.suppressEntry(e)
		return
	}
	e.expanded = true
	alt := e.alt
	if !alt.Leaf() {
		e.children[sideLeft] = o.demandChild(e, sideLeft, groupKey{alt.LExpr, alt.LProp})
		if !alt.Unary() {
			e.children[sideRight] = o.demandChild(e, sideRight, groupKey{alt.RExpr, alt.RProp})
		}
	}
	o.acquireRefs(e)
	o.tryCost(e)
	o.queueContrib(e)
	// Expansion can move the group floor (children bests now feed the
	// entry's lower bound) even when no cost is computed yet.
	o.queueReconcile(g)
}

func (o *Optimizer) demandChild(e *entry, s side, key groupKey) *group {
	g := o.demandGroup(key)
	g.parents = append(g.parents, parentRef{e, s})
	return g
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
	for _, ch := range e.children {
		if ch == nil {
			continue
		}
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
	o.queueReconcile(e.g)
}

// ---- group reconciliation: BestCost maintenance + pruning alignment ----

func (o *Optimizer) queueReconcile(g *group) {
	if g.reconcileQueued {
		return
	}
	g.reconcileQueued = true
	o.hot.push(task{kind: taskReconcile, g: g})
}

// reconcileGroup recomputes the group's BestCost from the aggregate state
// (the four delta cases of §4.1 collapse to "take the minimum over the
// entries", because every entry retains its cost), notifies parents and
// bound machinery of BestCost deltas, and re-aligns every entry's pruned
// flag with the current thresholds — performing both directions of §4.3's
// case analysis (prune on lowered bounds, revive on raised ones).
func (o *Optimizer) reconcileGroup(g *group) {
	g.reconcileQueued = false
	best := g.minEntry(false)
	if best != nil && (!g.hasBest || g.bestCost != best.cost) {
		g.hasBest = true
		g.bestCost = best.cost
		o.met.BestUpdates++
		o.touchGroup(g)
		for _, pr := range g.parents {
			o.queueRecost(pr.e)
			// The parent entry's lower bound moved with this
			// BestCost, so the parent group's floor may move.
			o.queueReconcile(pr.e.g)
		}
		if o.mode.Bound {
			o.queueBound(g)
			for _, pr := range g.parents {
				o.queueContrib(pr.e) // sibling contributions shift
			}
		}
	}
	// One walk aligns each entry's pruned state with the thresholds and
	// folds the group floor, evaluating every entry floor once. Nothing a
	// suppression or revival does synchronously moves a floor.
	thr := o.threshold(g)
	floor := infinity
	for i := range g.entries {
		e := &g.entries[i]
		f := e.floor()
		if f < floor {
			floor = f
		}
		if !o.mode.AggSel {
			continue
		}
		if desired := o.shouldBePruned(e, f, thr, best); desired && !e.pruned {
			o.suppressEntry(e)
		} else if !desired && e.pruned {
			o.reviveEntry(e)
		}
	}
	// Floor maintenance: a moved floor re-triggers the parents that read
	// it — their bound contributions (rules r1–r2) and their own pruning
	// decisions, which are floor-gated under suppression.
	if floor != g.floor {
		g.floor = floor
		for _, pr := range g.parents {
			o.queueReconcile(pr.e.g)
			if o.mode.Bound {
				o.queueContrib(pr.e)
			}
		}
	}
}

// shouldBePruned is the pruning predicate φ of §4.3. Bound comparisons use
// a small relative slack: bounds are derived by subtraction chains
// (rules r1–r2) while plan costs are derived by addition chains (R6–R8),
// so the two sides of the comparison can disagree by a few ulps even when
// they are mathematically equal — without slack the bound would prune the
// very best plan it was derived from. floor is e.floor(), thr the group's
// threshold and best its cheapest costed entry.
func (o *Optimizer) shouldBePruned(e *entry, floor, thr float64, best *entry) bool {
	g := e.g
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
			v = floor
		}
		if o.mode.Bound && v > slack(g.bound) {
			// Proposition 7: exceeds the recursive bound.
			return true
		}
		return e != best && v >= g.bestCost
	}
	// Not yet costed: pre-expansion suppression is only meaningful with
	// tuple source suppression enabled.
	return o.mode.Suppress && floor > slack(thr)
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
			o.queueExpand(e)
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
	o.hot.push(task{kind: taskRecost, e: e})
}

// ---- reference counting (§3.2 / §4.2) ----

// acquireRefs makes the entry hold a reference on each child group.
func (o *Optimizer) acquireRefs(e *entry) {
	if e.refHeld || !e.expanded {
		return
	}
	e.refHeld = true
	for _, c := range e.children {
		if c != nil {
			o.retainGroup(c)
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
		if c != nil {
			o.releaseGroup(c)
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
	for i := range g.entries {
		e := &g.entries[i]
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
	for i := range g.entries {
		e := &g.entries[i]
		if e.pruned {
			continue
		}
		if e.expanded {
			o.acquireRefs(e)
			o.queueRecost(e)
			o.queueContrib(e)
		} else {
			o.queueExpand(e)
		}
	}
}

// ---- recursive bounding (§3.3 / §4.3, rules r1–r4) ----

func (o *Optimizer) queueBound(g *group) {
	if !o.mode.Bound || g.boundQueued {
		return
	}
	g.boundQueued = true
	o.hot.push(task{kind: taskBound, g: g})
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
	if mx := g.maxContrib(); mx < nb {
		nb = mx
	}
	if nb == g.bound {
		return
	}
	g.bound = nb
	o.met.BoundUpdates++
	o.touchGroup(g)
	o.queueReconcile(g)
	for i := range g.entries {
		o.queueContrib(&g.entries[i])
	}
}

func (o *Optimizer) queueContrib(e *entry) {
	if !o.mode.Bound || e.contribQueued {
		return
	}
	e.contribQueued = true
	o.hot.push(task{kind: taskContrib, e: e})
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
	if o.mode.RefCount && !e.g.alive {
		return // a released group's plans derive no ParentBound facts
	}
	// The contribution derives from the parent bound WITH its pruning
	// slack applied: the invariant "a live parent implies its children's
	// cheapest plans stay under their bounds" must compose through the
	// subtraction chain, and slack is relative to the parent's (possibly
	// much larger) magnitude.
	gb := slack(e.g.bound)
	l := e.children[sideLeft]
	r := e.children[sideRight]
	if l != nil {
		v := infinity
		if gb < infinity {
			v = gb - e.localCost
			if r != nil {
				v -= r.floor
			}
		}
		o.setContrib(e, sideLeft, v)
	}
	if r != nil {
		v := infinity
		if gb < infinity && l != nil {
			v = gb - e.localCost - l.floor
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
	o.queueBound(e.children[s])
}

// removeContribs retracts the ParentBound values e gives its children.
func (o *Optimizer) removeContribs(e *entry) {
	for s, c := range e.children {
		if e.hasContrib[s] {
			e.hasContrib[s] = false
			o.queueBound(c)
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
