// Command optcli optimizes a workload query with a selectable optimizer
// architecture and pruning configuration, printing the plan, metrics, and
// optionally the SearchSpace table / and-or-graph.
//
// Usage:
//
//	optcli -query q5 -arch declarative -prune all -graph
//	optcli -query q8join -arch volcano
//	optcli -query q3s -table            # paper Table 1
//	optcli -query q5 -reopt "D=8"       # apply a Figure 5 style update
//	optcli -query q5 -exec              # execute the plan
//	optcli -query q5 -analyze           # execute with every operator timed
//	                                    # (EXPLAIN ANALYZE: time/batches/rows,
//	                                    # est-vs-act cardinality per node)
//	optcli -sql "SELECT c.c_custkey FROM customer c, orders o \
//	  WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = 'MACHINERY'" -exec
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/sqlmini"
	"repro/internal/systemr"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

func main() {
	query := flag.String("query", "q5", "workload query: q1,q3s,q5,q5s,q6,q10,q8join,q8joins")
	sqlText := flag.String("sql", "", "ad-hoc SQL SELECT to optimize instead of a named query (string and date literals resolve through the TPC-H dictionary)")
	arch := flag.String("arch", "declarative", "optimizer: declarative, volcano, systemr")
	prune := flag.String("prune", "all", "pruning (declarative): none, evita, aggsel, aggsel+refcount, aggsel+b&b, all")
	sf := flag.Float64("sf", 0.005, "TPC-H scale factor")
	graph := flag.Bool("graph", false, "print the and-or-graph (declarative only)")
	table := flag.Bool("table", false, "print the SearchSpace table (declarative only)")
	reopt := flag.String("reopt", "", "comma list of updates, e.g. \"A=0.5,E=8\" (Q5 expressions) or \"scan:orders=4\"")
	doExec := flag.Bool("exec", false, "execute the chosen plan and print row count and timing")
	analyze := flag.Bool("analyze", false, "execute with every operator timed and print the EXPLAIN ANALYZE tree (implies -exec)")
	flag.Parse()

	cat := tpch.Generate(tpch.Config{ScaleFactor: *sf, Seed: 42})
	var q *relalg.Query
	if *sqlText != "" {
		// Ad-hoc SQL reaches the optimizer (and the -exec path) through
		// the same front door the server uses: sqlmini.Parse with the
		// workload dictionary resolving string and date literals.
		var err error
		q, err = sqlmini.Parse(*sqlText, cat, sqlmini.Options{
			Dict: tpch.Dict(), Date: tpch.Date,
		})
		if err != nil {
			log.Fatalf("parse -sql: %v", err)
		}
	} else {
		queries := map[string]*relalg.Query{}
		for name, qq := range tpch.Queries() {
			queries[strings.ToLower(name)] = qq
		}
		var ok bool
		q, ok = queries[strings.ToLower(*query)]
		if !ok {
			log.Fatalf("unknown query %q", *query)
		}
	}
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	space := relalg.DefaultSpace()

	switch strings.ToLower(*arch) {
	case "volcano":
		res, err := volcano.Optimize(m, space)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("volcano: cost %.3f in %v; %d groups, %d alternatives (%d costed, %d pruned)\n",
			res.Cost, res.Metrics.Elapsed, res.Metrics.Groups,
			res.Metrics.Alts, res.Metrics.CostedAlts, res.Metrics.PrunedAlts)
		fmt.Print(res.Plan.Explain(q))
		if *doExec || *analyze {
			execute(q, cat, res.Plan, *analyze)
		}
		return
	case "systemr":
		res, err := systemr.Optimize(m, space)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("systemr: cost %.3f in %v; %d groups, %d alternatives costed\n",
			res.Cost, res.Metrics.Elapsed, res.Metrics.Groups, res.Metrics.CostedAlts)
		fmt.Print(res.Plan.Explain(q))
		if *doExec || *analyze {
			execute(q, cat, res.Plan, *analyze)
		}
		return
	}

	modes := map[string]core.Pruning{
		"none": core.PruneNone, "evita": core.PruneEvita,
		"aggsel": core.PruneAggSel, "aggsel+refcount": core.PruneAggSelRefCount,
		"aggsel+b&b": core.PruneAggSelBound, "all": core.PruneAll,
	}
	mode, ok := modes[strings.ToLower(*prune)]
	if !ok {
		log.Fatalf("unknown pruning %q", *prune)
	}
	o, err := core.New(m, space, mode)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := o.Optimize()
	if err != nil {
		log.Fatal(err)
	}
	met := o.Metrics()
	liveG, liveA := o.LiveState()
	fmt.Printf("declarative (%s): cost %.3f in %v; enumerated %d groups / %d alternatives, alive %d / %d\n",
		mode, plan.Cost, met.Elapsed, met.GroupsEnumerated, met.AltsEnumerated, liveG, liveA)
	fmt.Print(plan.Explain(q))

	if *reopt != "" {
		exprs := map[string]relalg.RelSet{}
		if q.Name == "Q5" || q.Name == "Q5S" {
			for _, ex := range tpch.Q5Expressions() {
				exprs[strings.ToLower(ex.Name[:1])] = ex.Set
			}
		}
		for _, upd := range strings.Split(*reopt, ",") {
			parts := strings.SplitN(upd, "=", 2)
			if len(parts) != 2 {
				log.Fatalf("bad update %q", upd)
			}
			f, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				log.Fatalf("bad factor in %q: %v", upd, err)
			}
			key := strings.ToLower(strings.TrimSpace(parts[0]))
			if rest, ok := strings.CutPrefix(key, "scan:"); ok {
				rel := -1
				for i, rr := range q.Rels {
					if strings.EqualFold(rr.Table, rest) || strings.EqualFold(rr.Alias, rest) {
						rel = i
						break
					}
				}
				if rel < 0 {
					log.Fatalf("unknown relation %q", rest)
				}
				o.UpdateScanCostFactor(rel, f)
				fmt.Printf("\n== update: scan cost of %s x%g ==\n", rest, f)
			} else {
				set, ok := exprs[key]
				if !ok {
					log.Fatalf("unknown expression %q (use A..E with Q5)", key)
				}
				o.UpdateCardFactor(set, f)
				fmt.Printf("\n== update: cardinality of %s x%g ==\n", strings.ToUpper(key), f)
			}
			plan, err = o.Reoptimize()
			if err != nil {
				log.Fatal(err)
			}
			met = o.Metrics()
			fmt.Printf("incremental re-optimization: %v, touched %d entries / %d groups\n",
				met.Elapsed, met.TouchedEntries, met.TouchedGroups)
			fmt.Print(plan.Explain(q))
		}
	}
	if *doExec || *analyze {
		execute(q, cat, plan, *analyze)
	}
	if *table {
		fmt.Println("\n== SearchSpace (cf. Table 1) ==")
		fmt.Print(o.FormatSearchSpace())
	}
	if *graph {
		fmt.Println("\n== and-or-graph (cf. Figure 2) ==")
		fmt.Print(o.AndOrGraph())
	}
}

// execute runs the chosen plan through the vectorized executor and prints the
// result cardinality and execution time. With analyze it times every operator
// and prints the annotated EXPLAIN ANALYZE tree.
func execute(q *relalg.Query, cat *catalog.Catalog, plan *relalg.Plan, analyze bool) {
	comp := &exec.Compiler{Q: q, Cat: cat}
	v, stats, err := comp.CompileVec(plan)
	if err != nil {
		log.Fatal(err)
	}
	stats.SetTiming(analyze)
	start := time.Now()
	n, err := exec.CountVec(v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: %d result rows in %v\n", n, time.Since(start))
	if analyze {
		fmt.Print(stats.Format())
	}
}
