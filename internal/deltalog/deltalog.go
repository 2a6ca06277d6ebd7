// Package deltalog is a small generic delta-processing dataflow engine: the
// repository's stand-in for the ASPEN query processor the paper runs its
// declarative optimizer on. It provides exactly the extended-operator
// semantics §4 requires:
//
//   - relations are counted multisets: every tuple value carries a
//     (possibly temporarily negative) multiplicity, converging to
//     non-negative counts as deltas drain (the counting scheme of Gupta,
//     Mumick & Subrahmanian that the paper cites as [14]);
//   - operators consume and emit delta tuples (insert / delete; an update
//     is a delete+insert pair), maintaining internal state incrementally —
//     joins follow the delta rules ΔL⋈R ∪ L⋈ΔR ∪ ΔL⋈ΔR;
//   - min/max group aggregates retain every input value in an ordered
//     multiset so the "next best" value can be recovered when the current
//     extremum is deleted (§4.1);
//   - a scheduler drains operator queues to fixpoint, supporting recursive
//     (cyclic) dataflows via semi-naive delta propagation.
//
// Tuples are flat []int64 records; fractional values (costs) are stored as
// fixed-point micro-units by the callers that need them. The engine is used
// standalone (it has its own examples and tests) and as a differential
// oracle for internal/core: the paper's cost-estimation and plan-selection
// rules R6–R10 are expressed over it and maintained under random update
// streams, and the resulting BestCost view must match the specialized
// incremental optimizer.
package deltalog

import (
	"fmt"
	"sort"
	"strings"
)

// Tuple is a flat record. Tuples are immutable once handed to the engine.
type Tuple []int64

// Key extracts the values at the given column offsets as a comparable
// string key.
func (t Tuple) Key(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d", t[c])
	}
	return b.String()
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func (t Tuple) clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Delta is one change notification: Count > 0 inserts the tuple that many
// times, Count < 0 deletes.
type Delta struct {
	Tuple Tuple
	Count int
}

// Relation is a named counted multiset with subscriber operators.
type Relation struct {
	Name  string
	Arity int

	counts map[string]*row
	subs   []operator
	eng    *Engine
}

type row struct {
	tuple Tuple
	count int
}

// Snapshot returns the distinct positive tuples in deterministic order.
func (r *Relation) Snapshot() []Tuple {
	var out []Tuple
	for _, rw := range r.counts {
		if rw.count > 0 {
			out = append(out, rw.tuple)
		}
	}
	sort.Slice(out, func(i, j int) bool { return tupleLess(out[i], out[j]) })
	return out
}

func tupleLess(a, b Tuple) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func allCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// apply folds a delta into the counted state and reports whether the
// positive-support of the tuple changed (0→positive or positive→0), which
// is when downstream operators must be notified under set semantics; under
// bag semantics every delta propagates.
func (r *Relation) apply(d Delta) {
	k := d.Tuple.Key(allCols(len(d.Tuple)))
	rw, ok := r.counts[k]
	if !ok {
		rw = &row{tuple: d.Tuple.clone()}
		r.counts[k] = rw
	}
	rw.count += d.Count
}

// Engine owns relations and operators and drains deltas to fixpoint.
type Engine struct {
	relations map[string]*Relation
	order     []*Relation
	queue     []queued
	steps     int
}

type queued struct {
	rel *Relation
	d   Delta
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{relations: map[string]*Relation{}}
}

// Relation creates (or returns) a named relation of the given arity.
func (e *Engine) Relation(name string, arity int) *Relation {
	if r, ok := e.relations[name]; ok {
		if r.Arity != arity {
			panic(fmt.Sprintf("deltalog: relation %s arity mismatch", name))
		}
		return r
	}
	r := &Relation{Name: name, Arity: arity, counts: map[string]*row{}, eng: e}
	e.relations[name] = r
	e.order = append(e.order, r)
	return r
}

// Insert enqueues an insertion delta.
func (e *Engine) Insert(r *Relation, t Tuple) { e.Enqueue(r, Delta{Tuple: t, Count: 1}) }

// Delete enqueues a deletion delta.
func (e *Engine) Delete(r *Relation, t Tuple) { e.Enqueue(r, Delta{Tuple: t, Count: -1}) }

// Enqueue schedules an arbitrary delta against a relation.
func (e *Engine) Enqueue(r *Relation, d Delta) {
	if len(d.Tuple) != r.Arity {
		panic(fmt.Sprintf("deltalog: arity mismatch inserting into %s", r.Name))
	}
	e.queue = append(e.queue, queued{r, d})
}

// Run drains all pending deltas to fixpoint and returns the number of delta
// propagation steps performed (a measure of incremental work).
func (e *Engine) Run() int {
	steps := 0
	for len(e.queue) > 0 {
		q := e.queue[0]
		e.queue = e.queue[1:]
		before := 0
		k := q.d.Tuple.Key(allCols(len(q.d.Tuple)))
		if rw, ok := q.rel.counts[k]; ok {
			before = rw.count
		}
		q.rel.apply(q.d)
		after := before + q.d.Count
		// Set-semantics notification: operators see logical
		// insertions (support 0→+) and deletions (+→0).
		var notify *Delta
		if before <= 0 && after > 0 {
			notify = &Delta{Tuple: q.d.Tuple, Count: 1}
		} else if before > 0 && after <= 0 {
			notify = &Delta{Tuple: q.d.Tuple, Count: -1}
		}
		if notify != nil {
			for _, op := range q.rel.subs {
				op.onDelta(q.rel, *notify)
			}
		}
		steps++
		if steps > 50_000_000 {
			panic("deltalog: delta propagation failed to converge")
		}
	}
	e.steps += steps
	return steps
}

// operator is an incremental view operator subscribed to input relations.
type operator interface {
	onDelta(src *Relation, d Delta)
}
