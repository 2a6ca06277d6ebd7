package server

import (
	"sync"
	"testing"
)

// Two structurally DIFFERENT statements with identical semantics: the FROM
// order is reversed, which CanonicalKey deliberately keeps distinct
// (relation order is structural — column ordinals are positional), so they
// occupy two plan-cache entries. Their subexpressions fingerprint
// identically, which is exactly what the shared statistics plane exists for.
const statsQueryA = `SELECT c.c_custkey FROM customer c, orders o
	WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = 'MACHINERY'`
const statsQueryB = `SELECT o2.o_custkey FROM orders o2, customer c2
	WHERE c2.c_custkey = o2.o_custkey AND c2.c_mktsegment = 'MACHINERY'`

// repairsOf returns the first live entry with the given cache key (-1
// sentinels when no entry matches; evicted entries have no per-entry line).
func repairsOf(m Metrics, key string) (repairs int64, warm int, fullOpts int64) {
	for _, em := range m.PerEntry {
		if em.Key == key {
			return em.Repairs, em.WarmSeeds, em.FullOpts
		}
	}
	return -1, -1, -1
}

// TestSharedStatsWarmStartAcrossEntries is the acceptance test for the
// statistics plane: concurrently warming query A teaches the shared store
// the true cardinalities of (customer), (orders) and (customer ⋈ orders);
// a first-ever Prepare+Exec of the structurally different query B then
// warm-starts from those fingerprints and repairs strictly less than a
// cold-store baseline; and with the eviction bound forcing churn, an
// evict-then-re-prepare cycle re-admits A with full-opt=1 on the fresh
// entry but zero additional repairs. Runs in the CI race shard.
func TestSharedStatsWarmStartAcrossEntries(t *testing.T) {
	// ---- cold-store baseline: B on a server that never saw A ----
	cold := testServer(t, Options{})
	stB, err := cold.Session().Prepare(statsQueryB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := stB.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	coldRepairs, coldWarm, _ := repairsOf(cold.Metrics(), stB.CacheKey())
	if coldRepairs < 1 {
		t.Fatalf("cold baseline never repaired (repairs=%d); the workload cannot "+
			"demonstrate warm-start", coldRepairs)
	}
	if coldWarm != 0 {
		t.Fatalf("cold baseline warm-seeded %d factors from an empty store", coldWarm)
	}

	// ---- warm path: MaxEntries=1 forces churn between A and B ----
	srv := testServer(t, Options{MaxEntries: 1, MaxConcurrent: 4})

	// Warm A from several goroutines at once: the store must absorb
	// concurrent folds of the same fingerprints.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := srv.Session()
			for i := 0; i < 3; i++ {
				st, err := sess.Prepare(statsQueryA)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := st.Exec(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := srv.Stats().Len(); n == 0 {
		t.Fatal("warming A left the statistics plane empty")
	}

	// First-ever prepare of B: a cache miss (different canonical key), but
	// the store already knows every subexpression B is made of.
	sess := srv.Session()
	warmB, err := sess.Prepare(statsQueryB)
	if err != nil {
		t.Fatal(err)
	}
	if warmB.Hit {
		t.Fatal("structurally different B hit A's cache entry")
	}
	for i := 0; i < 3; i++ {
		if _, err := warmB.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	warmRepairs, warmSeeds, _ := repairsOf(srv.Metrics(), warmB.CacheKey())
	if warmSeeds == 0 {
		t.Fatal("B's entry was not warm-started from the shared store")
	}
	if warmRepairs >= coldRepairs {
		t.Fatalf("warm-started B repaired %d times, cold baseline %d — no sharing benefit",
			warmRepairs, coldRepairs)
	}

	// Preparing B above evicted A (MaxEntries=1). Re-preparing A must miss,
	// pay its one from-scratch optimization on the fresh entry, and then
	// execute with zero additional repairs: the statistics survived.
	reA, err := sess.Prepare(statsQueryA)
	if err != nil {
		t.Fatal(err)
	}
	if reA.Hit {
		t.Fatal("A survived an eviction bound of 1 while B was admitted")
	}
	for i := 0; i < 2; i++ {
		res, err := reA.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if res.Repaired {
			t.Fatalf("re-admitted A repaired on exec %d despite warm statistics", i)
		}
	}
	repairs, warm, fullOpts := repairsOf(srv.Metrics(), reA.CacheKey())
	if fullOpts != 1 {
		t.Fatalf("re-admitted A full-opts=%d, want exactly 1 (the re-admission miss)", fullOpts)
	}
	if warm == 0 {
		t.Fatal("re-admitted A was not warm-started")
	}
	if repairs != 0 {
		t.Fatalf("re-admitted A repaired %d times, want 0", repairs)
	}
	m := srv.Metrics()
	if m.Evictions < 2 {
		t.Fatalf("evictions=%d, want at least 2 (A evicted for B, B evicted for A)", m.Evictions)
	}
	// Eviction must not erase history from the aggregate counters: three
	// from-scratch optimizations happened (A, B, re-admitted A) even though
	// only one entry is live.
	if m.FullOpts < 3 {
		t.Fatalf("aggregate full-opts=%d after churn, want >= 3 (evicted history retained)", m.FullOpts)
	}
	if m.Execs < 12+3+2 {
		t.Fatalf("aggregate execs=%d after churn, want all %d executions counted", m.Execs, 12+3+2)
	}
}

// TestEvictionLRUOrder: with a bound of 2, touching the older entry makes
// the other one the LRU victim.
func TestEvictionLRUOrder(t *testing.T) {
	srv := testServer(t, Options{MaxEntries: 2})
	sess := srv.Session()

	a, err := sess.PrepareNamed("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.PrepareNamed("Q6"); err != nil {
		t.Fatal(err)
	}
	// Touch Q1 so Q6 becomes least recently used.
	if _, err := sess.PrepareNamed("Q1"); err != nil {
		t.Fatal(err)
	}
	// Admitting a third structure evicts Q6, not Q1.
	if _, err := sess.PrepareNamed("Q5S"); err != nil {
		t.Fatal(err)
	}
	q1, err := sess.PrepareNamed("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if !q1.Hit {
		t.Fatal("recently used Q1 was evicted instead of the LRU entry")
	}
	if q1.entry != a.entry {
		t.Fatal("Q1 re-prepare did not find the original entry")
	}
	q6, err := sess.PrepareNamed("Q6")
	if err != nil {
		t.Fatal(err)
	}
	if q6.Hit {
		t.Fatal("LRU entry Q6 survived the bound")
	}
	if m := srv.Metrics(); m.Entries > 2 {
		t.Fatalf("entries=%d exceeds MaxEntries=2", m.Entries)
	}
}

// TestHeldStatementCountedAcrossEviction: a statement held across its
// entry's eviction keeps executing against the orphaned entry, and every one
// of those executions — and the feedback it produced — is in the server
// totals.
func TestHeldStatementCountedAcrossEviction(t *testing.T) {
	srv := testServer(t, Options{MaxEntries: 1})
	held := execSQL(t, srv, statsQueryA, 2)
	execSQL(t, srv, statsQueryB, 1) // evicts A's entry
	for i := 0; i < 3; i++ {
		if _, err := held.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Metrics()
	if m.Evictions != 1 || m.Entries != 1 {
		t.Fatalf("evictions=%d entries=%d, want the held statement's entry evicted", m.Evictions, m.Entries)
	}
	if m.Execs != 2+1+3 {
		t.Fatalf("execs=%d, want all %d counted (3 ran after the eviction)", m.Execs, 2+1+3)
	}
	if m.Execs != m.Converged+m.Repairs {
		t.Fatalf("execs=%d != converged %d + repairs %d", m.Execs, m.Converged, m.Repairs)
	}
}

// TestShutdownDrains: after Shutdown, executions are refused; Shutdown
// itself returns only after in-flight executions complete.
func TestShutdownDrains(t *testing.T) {
	srv := testServer(t, Options{})
	st, err := srv.Session().PrepareNamed("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	if _, err := st.Exec(); err == nil {
		t.Fatal("Exec succeeded after Shutdown")
	}
	srv.Shutdown() // idempotent
}
