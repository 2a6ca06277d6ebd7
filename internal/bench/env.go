package bench

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// Env is the shared experimental environment: a generated TPC-H catalog,
// the cost-model parameters, the plan-space options, and the census cache
// (the size of the unpruned search space per query, used as the denominator
// of every pruning and update ratio).
type Env struct {
	Cat    *catalog.Catalog
	Params cost.Params
	Space  relalg.SpaceOptions

	// Repeats controls how many times timed measurements are repeated
	// (the paper averages across 10 runs); the minimum is reported to
	// suppress scheduler noise.
	Repeats int

	// Parallelism is forwarded to the vectorized executor wherever a
	// runner executes plans, running aggregating queries on that many copies
	// of their probe spine; <= 1 keeps execution serial (the default, so
	// figure timings stay comparable to the paper's single-threaded
	// setting). Exposed on the reprobench CLI as -parallelism.
	Parallelism int

	census map[string]census
}

type census struct {
	groups, alts int
}

// NewEnv generates the TPC-H environment.
func NewEnv(cfg tpch.Config) *Env {
	return &Env{
		Cat:     tpch.Generate(cfg),
		Params:  cost.DefaultParams(),
		Space:   relalg.DefaultSpace(),
		Repeats: 5,
		census:  map[string]census{},
	}
}

// Model builds a fresh cost model for q.
func (e *Env) Model(q *relalg.Query) *cost.Model {
	m, err := cost.NewModel(q, e.Cat, e.Params)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return m
}

// Census returns the full (unpruned) search-space size of q: the number of
// plan-table entries (groups) and plan alternatives.
func (e *Env) Census(q *relalg.Query) (groups, alts int) {
	if c, ok := e.census[q.Name]; ok {
		return c.groups, c.alts
	}
	o, err := core.New(e.Model(q), e.Space, core.PruneNone)
	if err != nil {
		panic(err)
	}
	if _, err := o.Optimize(); err != nil {
		panic(fmt.Sprintf("bench: census of %s: %v", q.Name, err))
	}
	m := o.Metrics()
	e.census[q.Name] = census{m.GroupsEnumerated, m.AltsEnumerated}
	return m.GroupsEnumerated, m.AltsEnumerated
}

// timeOnce measures a single, non-repeatable operation.
func (e *Env) timeOnce(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// timeIt runs fn Repeats times and returns the minimum duration.
func (e *Env) timeIt(fn func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < e.Repeats; i++ {
		start := time.Now()
		fn()
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// volcanoTime measures a fresh Volcano optimization of q under the model's
// current cost parameters.
func (e *Env) volcanoTime(m *cost.Model) time.Duration {
	return e.timeIt(func() {
		if _, err := volcano.Optimize(m, e.Space); err != nil {
			panic(err)
		}
	})
}
