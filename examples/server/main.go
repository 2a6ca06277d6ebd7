// server is the quickstart for the concurrent query service
// (internal/server, surfaced as repro.NewServer): N concurrent sessions
// drive a mixed hot/cold workload against one shared plan cache, and the
// final metrics show the paper's economics measured across the workload —
// each distinct query structure pays exactly one from-scratch optimization,
// execution feedback repairs cached plans incrementally (for every session
// at once), and repairs stop when statistics converge.
//
// The cache is deliberately bounded (MaxEntries) to show the statistics
// plane at work: learned cardinalities live server-wide, keyed by canonical
// subexpression fingerprint, so evicting a plan never forgets what its
// executions taught the server — a structurally different spelling of the
// same join (the ad-hoc statement below reverses the FROM order, which the
// cache conservatively treats as a distinct structure) warm-starts from the
// factors its sibling already converged to.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro"
	"repro/internal/tpch"
)

func main() {
	const sessions = 4
	const rounds = 8

	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.005, Seed: 42, Skew: 0.5})
	srv, err := repro.NewServer(cat, repro.ServerOptions{
		MaxConcurrent: sessions,
		MaxEntries:    8, // bounded: eviction discards plans, never statistics
		Dict:          tpch.Dict(),
		Date:          tpch.Date,
		Named:         tpch.Queries(),
	})
	if err != nil {
		log.Fatal(err)
	}

	// The hot set: every session runs these as prepared statements each
	// round. The two ad-hoc statements are the same join spelled with
	// opposite FROM orders: distinct plan-cache entries (relation order is
	// structural), one shared learned history.
	hot := []string{"Q3S", "Q5", "Q10"}
	const adhoc = `SELECT c.c_custkey, o.o_orderdate
	  FROM customer c, orders o
	  WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = 'BUILDING'
	    AND o.o_orderdate >= '1995-01-01'`
	const adhocFlipped = `SELECT o.o_orderdate, c.c_custkey
	  FROM orders o, customer c
	  WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = 'BUILDING'
	    AND o.o_orderdate >= '1995-01-01'`

	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := srv.Session()
			for r := 0; r < rounds; r++ {
				name := hot[(s+r)%len(hot)]
				st, err := sess.PrepareNamed(name)
				if err != nil {
					log.Fatalf("session %d: prepare %s: %v", s, name, err)
				}
				if _, err := st.Exec(); err != nil {
					log.Fatalf("session %d: exec %s: %v", s, name, err)
				}
				if s == 0 && r == rounds/2 {
					if _, err := sess.Query(adhoc); err != nil {
						log.Fatalf("session %d: ad-hoc: %v", s, err)
					}
				}
			}
		}(s)
	}
	wg.Wait()

	// The flipped spelling arrives last: a guaranteed cache miss, but its
	// subexpressions all fingerprint-match the converged ad-hoc entry, so
	// its very first execution should need no repair at all.
	res, err := srv.Session().Query(adhocFlipped)
	if err != nil {
		log.Fatal(err)
	}

	m := srv.Metrics()
	fmt.Printf("%d sessions x %d rounds over %d distinct query structures:\n\n",
		sessions, rounds, m.Entries)
	fmt.Print(m)
	fmt.Printf("\nevery entry: full-opt=1 (the cache miss), then incremental repairs only;\n")
	fmt.Printf("converged executions (%d) skipped re-optimization entirely — the Figure 9\n", m.Converged)
	fmt.Printf("curve, measured across a concurrent workload.\n")
	fmt.Printf("\nthe reversed-FROM ad-hoc statement missed the cache but warm-started from\n")
	fmt.Printf("the statistics plane (%d fingerprints known): first exec repaired=%t.\n",
		m.StatsKeys, res.Repaired)
	srv.Shutdown()
}
