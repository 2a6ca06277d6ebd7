// prepared demonstrates the paper's second target domain (§1): repeated
// execution of the same query — a prepared statement — where each run
// yields better cost information and the optimizer re-optimizes with
// minimal overhead instead of from scratch.
//
// The demo is built on the serving layer (repro.NewServer), so it exercises
// exactly the production path: the statement lives in the shared plan cache,
// each Exec feeds observed cardinalities back to the entry's live
// incremental optimizer, and the cached plan is repaired in place — never
// re-planned from scratch — until feedback converges and repairs stop. A
// full Volcano optimization is re-run each round purely as the
// non-incremental comparator.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

func main() {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.005, Seed: 42, Skew: 0.5})
	q := tpch.Q10()

	srv, err := repro.NewServer(cat, repro.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sess := srv.Session()

	st, err := sess.PrepareQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	m0 := srv.Metrics()
	fmt.Printf("prepare: cache %s, initial optimization %v\n",
		map[bool]string{true: "hit", false: "miss"}[st.Hit], m0.FullOptTime)

	// The Volcano comparator optimizes over its own model so its factor
	// state cannot leak into the served plans.
	vm, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}

	for round := 1; round <= 5; round++ {
		res, err := st.Exec()
		if err != nil {
			log.Fatal(err)
		}

		m := srv.Metrics()
		entry := m.PerEntry[0]

		t0 := time.Now()
		if _, err := volcano.Optimize(vm, relalg.DefaultSpace()); err != nil {
			log.Fatal(err)
		}
		full := time.Since(t0)

		fmt.Printf("round %d: %5d rows on plan v%d; repaired=%-5t (cumulative repair time %10v, touched %4d entries) vs full optimization %10v\n",
			round, res.Rows, res.PlanVersion, res.Repaired,
			entry.RepairTime, entry.Touched, full)
	}

	m := srv.Metrics()
	entry := m.PerEntry[0]
	fmt.Printf("\nafter %d executions: %d from-scratch optimization(s), %d incremental repair(s), %d converged execution(s)\n",
		entry.Execs, entry.FullOpts, entry.Repairs, entry.Converged)
	fmt.Println("\nfinal plan:")
	fmt.Print(st.Plan().Explain(q))
}
