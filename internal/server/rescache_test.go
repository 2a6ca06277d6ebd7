package server

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqlmini"
	"repro/internal/testkit"
)

// sharedSubexprSQL is a hot set whose statements deliberately overlap: every
// statement contains the MACHINERY customer filter scan, and the first two
// share the customer⋈orders join core — the cross-query sharing the semantic
// result cache exists for. Distinct projections keep the plan-cache keys
// distinct while the cacheable subtrees fingerprint identically.
var sharedSubexprSQL = []string{
	`SELECT l.l_orderkey FROM customer c, orders o, lineitem l
	   WHERE c.c_mktsegment = 'MACHINERY' AND c.c_custkey = o.o_custkey
	     AND o.o_orderkey = l.l_orderkey`,
	`SELECT o.o_orderkey FROM customer c, orders o
	   WHERE c.c_mktsegment = 'MACHINERY' AND c.c_custkey = o.o_custkey`,
	`SELECT c.c_custkey FROM customer c WHERE c.c_mktsegment = 'MACHINERY'`,
}

// parseSQL parses one test statement with the server's dictionary.
func parseSQL(t *testing.T, srv *Server, sql string) *Stmt {
	t.Helper()
	st, err := srv.Session().Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeConcurrentStressResultCache extends the race-shard stress to the
// semantic result cache: goroutines hammer a hot set of statements that
// SHARE subexpressions, with result caching enabled. Every multiset must
// match the uncached serial baseline, and the cache must demonstrably serve
// (stores and cross-statement hits both nonzero).
func TestServeConcurrentStressResultCache(t *testing.T) {
	srv := testServer(t, Options{
		MaxConcurrent:    4,
		ResultCacheBytes: 32 << 20,
	})
	baselines := make([]map[string]int, len(sharedSubexprSQL))
	for i, sql := range sharedSubexprSQL {
		q, err := sqlmini.Parse(sql, srv.Catalog(), sqlmini.Options{
			Dict: srv.opts.Dict, Date: srv.opts.Date,
		})
		if err != nil {
			t.Fatal(err)
		}
		baselines[i] = serialBaseline(t, srv.Catalog(), q)
	}

	const goroutines = 8
	const rounds = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := srv.Session()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(sharedSubexprSQL)
				st, err := sess.Prepare(sharedSubexprSQL[i])
				if err != nil {
					t.Errorf("g%d r%d prepare: %v", g, r, err)
					return
				}
				res, err := st.Exec()
				if err != nil {
					t.Errorf("g%d r%d exec: %v", g, r, err)
					return
				}
				if !sameMultiset(multiset(res.Rows), baselines[i]) {
					t.Errorf("g%d r%d: statement %d diverged from the uncached serial baseline (%d rows)",
						g, r, i, len(res.Rows))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	m := srv.Metrics()
	if !m.ResultCacheEnabled {
		t.Fatal("result cache not enabled")
	}
	rc := m.ResultCache
	if rc.Stores == 0 {
		t.Fatal("stress run spooled nothing into the result cache")
	}
	if rc.Hits == 0 {
		t.Fatal("stress run never served from the result cache")
	}
	if rc.Bytes <= 0 || rc.Entries == 0 {
		t.Fatalf("result cache empty after the stress run: %+v", rc)
	}
	if rc.Invalidations != 0 {
		t.Fatalf("spurious invalidations on an immutable catalog: %+v", rc)
	}
	if m.Execs != goroutines*rounds || m.Execs != m.Converged+m.Repairs {
		t.Fatalf("execs = %d (want %d), converged %d + repairs %d: every execution is counted once and its feedback either converged or repaired",
			m.Execs, goroutines*rounds, m.Converged, m.Repairs)
	}
}

// TestResultCacheInvalidationDifferential: an Append to a base table bumps
// the catalog data version, every cached result over that table bypasses
// (counted as invalidations), and post-mutation executions match a fresh
// uncached baseline over the MUTATED data — served results never go stale.
func TestResultCacheInvalidationDifferential(t *testing.T) {
	srv := testServer(t, Options{ResultCacheBytes: 32 << 20})
	sql := sharedSubexprSQL[0]
	st := parseSQL(t, srv, sql)

	// Warm the cache, then confirm it serves.
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	warm := srv.ResultCache().Metrics()
	if warm.Stores == 0 || warm.Hits == 0 {
		t.Fatalf("cache not serving before the mutation: %+v", warm)
	}
	if !sameMultiset(multiset(res.Rows), serialBaseline(t, srv.Catalog(), st.Query())) {
		t.Fatal("warm result diverged before the mutation")
	}

	// Mutate customer while quiesced: clone the highest-key row under a
	// fresh key so the filtered scan's output genuinely changes.
	cust := srv.Catalog().MustTable("customer")
	row := testkit.Row(cust, 0)
	row[cust.MustCol("c_custkey")] = int64(cust.NumRows) + 1000
	cust.Append(row)
	cust.Analyze(0)

	res, err = st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	after := srv.ResultCache().Metrics()
	if after.Invalidations == 0 {
		t.Fatal("no cache invalidations after Append bumped the data version")
	}
	want := serialBaseline(t, srv.Catalog(), st.Query())
	if !sameMultiset(multiset(res.Rows), want) {
		t.Fatal("post-mutation result diverged from the uncached baseline over mutated data")
	}
	// The re-spooled entries serve the NEW data.
	res, err = st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if srv.ResultCache().Metrics().Hits == after.Hits {
		t.Fatal("cache never re-served after re-spooling the mutated table")
	}
	if !sameMultiset(multiset(res.Rows), want) {
		t.Fatal("re-warmed result diverged from the uncached baseline")
	}
}

// TestResultCacheFeedbackUnaffected is the server-level half of the §5.4
// bar: the RunStats-derived feedback must drive the entry identically with
// the cache on and off — same repair count, same converged plan version.
func TestResultCacheFeedbackUnaffected(t *testing.T) {
	run := func(opts Options) (versions []uint64, repairs []bool) {
		srv := testServer(t, opts)
		st := parseSQL(t, srv, sharedSubexprSQL[0])
		for i := 0; i < 6; i++ {
			res, err := st.Exec()
			if err != nil {
				t.Fatal(err)
			}
			versions = append(versions, res.PlanVersion)
			repairs = append(repairs, res.Repaired)
		}
		return versions, repairs
	}
	v0, r0 := run(Options{})
	v1, r1 := run(Options{ResultCacheBytes: 32 << 20})
	for i := range v0 {
		if v0[i] != v1[i] || r0[i] != r1[i] {
			t.Fatalf("feedback trajectory diverged with caching on:\nuncached versions=%v repairs=%v\ncached   versions=%v repairs=%v",
				v0, r0, v1, r1)
		}
	}
}

// TestResultCacheEventsAreTheRunsOwn: an execution's result-cache trace
// events report the probe hits and spools its own compile decided, so over
// serial executions they add up to the cache's counters.
func TestResultCacheEventsAreTheRunsOwn(t *testing.T) {
	srv := testServer(t, Options{ResultCacheBytes: 32 << 20, TraceEvents: 256})
	st := parseSQL(t, srv, sharedSubexprSQL[0])
	for i := 0; i < 3; i++ {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	var hits, spools int64
	for _, ev := range srv.trace.Events() {
		if ev.Kind == obs.KindResultCache {
			switch ev.Note {
			case "probe-hit":
				hits += ev.A
			case "spool":
				spools += ev.A
			default:
				t.Fatalf("unexpected result-cache event %s", ev)
			}
		}
	}
	rc := srv.ResultCache().Metrics()
	if hits == 0 || spools == 0 || hits != rc.Hits || spools != rc.Stores {
		t.Fatalf("traced %d probe hits and %d spools, the cache counted %d hits and %d stores",
			hits, spools, rc.Hits, rc.Stores)
	}
}

// TestTextIndexResolvesWithoutParse: a re-prepared statement text resolves
// through the plan cache's text index to the same shared entry, from any
// session, and a registered name is indexed the same way.
func TestTextIndexResolvesWithoutParse(t *testing.T) {
	srv := testServer(t, Options{})
	sess := srv.Session()
	a, err := sess.Prepare(sharedSubexprSQL[1])
	if err != nil {
		t.Fatal(err)
	}
	if a.Hit {
		t.Fatal("first prepare reported a hit")
	}
	if srv.plans.texts["sql:"+sharedSubexprSQL[1]] != a.entry {
		t.Fatal("the prepared text is not indexed to its entry")
	}
	b, err := sess.Prepare(sharedSubexprSQL[1])
	if err != nil {
		t.Fatal(err)
	}
	if !b.Hit || b.entry != a.entry {
		t.Fatal("re-prepare did not resolve to the shared entry")
	}
	n1, err := srv.Session().Prepare(sharedSubexprSQL[1])
	if err != nil {
		t.Fatal(err)
	}
	if !n1.Hit || n1.entry != a.entry {
		t.Fatal("fresh session did not share the entry")
	}
	s2 := srv.Session()
	q1, err := s2.PrepareNamed("Q1")
	if err != nil {
		t.Fatal(err)
	}
	q1b, err := s2.PrepareNamed("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if !q1b.Hit || q1b.entry != q1.entry || srv.plans.texts["name:Q1"] != q1.entry {
		t.Fatal("named re-prepare did not resolve through the text index")
	}
	m := srv.Metrics()
	if m.Hits != 3 {
		t.Fatalf("hits=%d, want 3 (the three re-prepares)", m.Hits)
	}
}

// TestTextIndexFollowsEviction: the text index holds exactly the texts of
// cached entries. A text indexed to an evicted entry would keep that entry —
// and its live optimizer — reachable, and re-prepare it as a hit past
// MaxEntries. After 4×MaxEntries distinct prepares the index holds exactly
// the live entries' texts, and the oldest statement re-prepares as a miss
// with its one from-scratch optimization.
func TestTextIndexFollowsEviction(t *testing.T) {
	const maxEntries = 8
	srv := testServer(t, Options{MaxEntries: maxEntries})
	sess := srv.Session()
	sql := func(i int) string {
		return fmt.Sprintf(`SELECT o.o_orderkey FROM customer c, orders o
		   WHERE c.c_custkey = o.o_custkey AND o.o_custkey > %d`, i)
	}
	for i := 0; i < 4*maxEntries; i++ {
		st, err := sess.Prepare(sql(i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Hit {
			t.Fatalf("statement %d: first prepare reported a hit", i)
		}
	}
	c := srv.plans
	c.mu.RLock()
	want := map[string]*planEntry{}
	for _, e := range c.entries {
		for _, text := range e.texts {
			want[text] = e
		}
	}
	if len(c.texts) != len(want) || len(want) != maxEntries {
		t.Errorf("the index holds %d texts, the %d live entries list %d, want %d",
			len(c.texts), len(c.entries), len(want), maxEntries)
	}
	for text, e := range c.texts {
		if want[text] != e {
			t.Errorf("indexed text %q is not listed by a live entry", text)
		}
	}
	c.mu.RUnlock()
	// The newest statement is still served from the index ...
	if st, err := sess.Prepare(sql(4*maxEntries - 1)); err != nil || !st.Hit {
		t.Fatalf("newest statement: hit=%v err=%v", st != nil && st.Hit, err)
	}
	// ... and the oldest, long evicted, is a miss that optimizes from scratch.
	st, err := sess.Prepare(sql(0))
	if err != nil {
		t.Fatal(err)
	}
	if st.Hit {
		t.Fatal("evicted statement re-prepared as a hit")
	}
	if em := st.entry.snapshot(); em.FullOpts != 1 {
		t.Fatalf("re-admitted entry full-opt=%d, want 1", em.FullOpts)
	}
	if m := srv.Metrics(); m.Entries > maxEntries {
		t.Fatalf("entries=%d exceeds MaxEntries=%d", m.Entries, maxEntries)
	}
}
