// Command reprobench regenerates every table and figure of the paper's
// evaluation section (§5) as text tables.
//
// Usage:
//
//	reprobench                  # run everything
//	reprobench -fig 4           # one figure (see -help for the list)
//	reprobench -table 3         # Table 3
//	reprobench -sf 0.01         # TPC-H scale factor
//	reprobench -slices 60       # stream length for Figures 9/10
//
// An unknown -fig or -table exits 2 before any data is generated.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/tpch"
)

// job is one runnable figure or table. jobs is the single list the help
// text, the dispatch and the validation are driven from, in the order a
// no-flag run prints them.
type job struct {
	flag, name string // selected by -<flag> <name>
	run        func(env *bench.Env, slices int) []*bench.Table
}

func one(t *bench.Table) []*bench.Table { return []*bench.Table{t} }

var jobs = []job{
	{"fig", "4", func(e *bench.Env, _ int) []*bench.Table { return e.Figure4() }},
	{"fig", "5", func(e *bench.Env, _ int) []*bench.Table { return e.Figure5() }},
	{"fig", "6", func(e *bench.Env, _ int) []*bench.Table { return e.Figure6(10, 0.5) }},
	{"fig", "7", func(e *bench.Env, _ int) []*bench.Table { return e.Figure7() }},
	{"fig", "8", func(e *bench.Env, _ int) []*bench.Table { return e.Figure8() }},
	{"fig", "9", func(e *bench.Env, n int) []*bench.Table { return one(e.Figure9(n)) }},
	{"fig", "10", func(e *bench.Env, n int) []*bench.Table { return e.Figure10(n) }},
	{"table", "3", func(e *bench.Env, _ int) []*bench.Table { return e.Table3() }},
	{"fig", "small", func(e *bench.Env, _ int) []*bench.Table { return one(e.SmallQueries()) }},
	{"fig", "ablation", func(e *bench.Env, _ int) []*bench.Table {
		return []*bench.Table{e.AblationSearchOrder(), e.AblationPlanSpace()}
	}},
}

// names lists the values -fig (or -table) accepts, in run order.
func names(flagName string) string {
	var out []string
	for _, j := range jobs {
		if j.flag == flagName {
			out = append(out, j.name)
		}
	}
	return strings.Join(out, ",")
}

// selectJobs resolves the -fig and -table values: everything when both are
// empty, otherwise the named figure and/or table. An unknown name is an
// error.
func selectJobs(fig, table string) ([]job, error) {
	if fig == "" && table == "" {
		return jobs, nil
	}
	var out []job
	for _, want := range []struct{ flag, name string }{{"fig", fig}, {"table", table}} {
		if want.name == "" {
			continue
		}
		found := false
		for _, j := range jobs {
			if j.flag == want.flag && j.name == want.name {
				out = append(out, j)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown -%s %q (have %s)", want.flag, want.name, names(want.flag))
		}
	}
	return out, nil
}

func main() {
	fig := flag.String("fig", "", "figure to run ("+names("fig")+"); empty = all")
	table := flag.String("table", "", "table to run ("+names("table")+"); empty = all")
	sf := flag.Float64("sf", 0.005, "TPC-H scale factor")
	seed := flag.Uint64("seed", 42, "generator seed")
	slices := flag.Int("slices", 120, "stream slices for Figures 9/10")
	repeats := flag.Int("repeats", 5, "timing repetitions (minimum is reported)")
	flag.Parse()

	selected, err := selectJobs(*fig, *table)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	env := bench.NewEnv(tpch.Config{ScaleFactor: *sf, Seed: *seed})
	env.Repeats = *repeats
	for _, j := range selected {
		for _, t := range j.run(env, *slices) {
			fmt.Println(t.String())
		}
	}
}
