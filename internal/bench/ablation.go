package bench

import (
	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/tpch"
)

// AblationSearchOrder compares depth-first against breadth-first expansion
// scheduling (the paper's §2.3 remark that any search order is
// admissible): correctness is identical, pruning effectiveness differs.
func (e *Env) AblationSearchOrder() *Table {
	t := &Table{Title: "Ablation: expansion order (full pruning, alive alternatives after initial optimization)",
		Header: []string{"query", "census-alts", "depth-first", "breadth-first"}}
	for _, q := range tpch.JoinWorkload() {
		_, ca := e.Census(q)
		run := func(breadth bool) int {
			o, err := core.New(e.Model(q), e.Space, core.PruneAll)
			if err != nil {
				panic(err)
			}
			o.SetBreadthFirst(breadth)
			if _, err := o.Optimize(); err != nil {
				panic(err)
			}
			return o.Metrics().AltsCosted
		}
		t.Rows = append(t.Rows, []string{q.Name,
			itoa(ca), itoa(run(false)), itoa(run(true))})
	}
	t.Notes = append(t.Notes,
		"costed alternatives: lower is better pruning; both orders find the identical optimum (verified by tests)")
	return t
}

// AblationPlanSpace measures how each plan-space feature (bushy trees,
// merge joins, index nested-loops) affects the optimum and the space size —
// the classic System-R left-deep restriction appears as footnote 1 in the
// paper.
func (e *Env) AblationPlanSpace() *Table {
	t := &Table{Title: "Ablation: plan-space features (Q5; best cost and census size)",
		Header: []string{"space", "best-cost", "census-groups", "census-alts"}}
	q := tpch.Q5()
	variants := []struct {
		name  string
		space relalg.SpaceOptions
	}{
		{"full", relalg.DefaultSpace()},
		{"left-deep", func() relalg.SpaceOptions { s := relalg.DefaultSpace(); s.LeftDeepOnly = true; return s }()},
		{"no-mergejoin", func() relalg.SpaceOptions { s := relalg.DefaultSpace(); s.MergeJoin = false; return s }()},
		{"no-indexnl", func() relalg.SpaceOptions { s := relalg.DefaultSpace(); s.IndexNL = false; return s }()},
		{"hash-only", relalg.SpaceOptions{HashJoin: true, SortEnforcer: true}},
	}
	for _, v := range variants {
		o, plan := e.optimize(e.Model(q), v.space, core.PruneNone)
		m := o.Metrics()
		t.Rows = append(t.Rows, []string{v.name, f3(plan.Cost),
			itoa(m.GroupsEnumerated), itoa(m.AltsEnumerated)})
	}
	return t
}

func itoa(v int) string { return f0(float64(v)) }

func f0(v float64) string {
	if v == float64(int64(v)) {
		return trimZeros(v)
	}
	return f2(v)
}

func trimZeros(v float64) string {
	s := f2(v)
	for len(s) > 0 && (s[len(s)-1] == '0') {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}
