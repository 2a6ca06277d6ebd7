package exec

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/rescache"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// statsEqual asserts two RunStats snapshots are byte-identical: same
// subexpression sets, same counts. This is the §5.4 soundness bar — the
// adaptive feedback loop must be provably unaffected by result caching.
func statsEqual(t *testing.T, name string, got, want map[relalg.RelSet]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: stats cover %d exprs, want %d", name, len(got), len(want))
	}
	for set, n := range want {
		if g, ok := got[set]; !ok || g != n {
			t.Fatalf("%s: cardinality of %v = %d (present=%v), want %d", name, set, g, ok, n)
		}
	}
}

// TestResultCacheSpoolProbeDifferential is the core spool/probe soundness
// gate, run over every workload query: a first cache-enabled execution
// (spooling) and a second (probing) must both reproduce the uncached result
// multiset AND the uncached RunStats byte for byte. The probe run must actually hit — a silently cold cache would
// pass the differential while testing nothing. Entries are column-sparse, so
// the same bar is then held across two fingerprint-equal consumers that read
// different columns of the shared subtrees (sparseCacheDifferential), and
// over subtrees that promise an order (orderedCacheDifferential).
func TestResultCacheSpoolProbeDifferential(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	t.Run("sparse", func(t *testing.T) { sparseCacheDifferential(t, cat, tpch.SegMachinery) })
	t.Run("sparse, empty result", func(t *testing.T) { sparseCacheDifferential(t, cat, -1) })
	t.Run("ordered: index-NL inner leaves", func(t *testing.T) {
		q := tpch.Q3S()
		orderedCacheDifferential(t, q, cat, indexNLPlan(t, q, cat))
	})
	t.Run("ordered: merge join inputs", func(t *testing.T) {
		q := tpch.Q5()
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		mr, err := volcano.Optimize(m, relalg.SpaceOptions{MergeJoin: true, SortEnforcer: true})
		if err != nil {
			t.Fatal(err)
		}
		orderedCacheDifferential(t, q, cat, mr.Plan)
	})
	for name, q := range tpch.Queries() {
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vr, err := volcano.Optimize(m, relalg.DefaultSpace())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fper := relalg.NewFingerprinter(q)
		cands := BuildCacheCandidates(q, vr.Plan, fper)

		base := &Compiler{Q: q, Cat: cat}
		v, baseStats, err := base.CompileVec(vr.Plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		baseRows, err := DrainVec(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := rowMultiset(baseRows)
		wantStats := baseStats.Snapshot()

		cache := rescache.New(64 << 20)
		for run, label := range []string{"spool", "probe"} {
			comp := &Compiler{Q: q, Cat: cat, Cache: cache, CacheCands: cands}
			v, stats, err := comp.CompileVec(vr.Plan)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, label, err)
			}
			rows, err := DrainVec(v)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, label, err)
			}
			if got := rowMultiset(rows); got != want {
				t.Fatalf("%s/%s: result multiset differs from uncached (%d vs %d rows)",
					name, label, len(rows), len(baseRows))
			}
			statsEqual(t, name+"/"+label, stats.Snapshot(), wantStats)
			met := cache.Metrics()
			if run == 0 && len(cands) > 0 && met.Stores == 0 {
				t.Fatalf("%s: spool run stored nothing despite %d candidates", name, len(cands))
			}
			if run == 1 && met.Stores > 0 && met.Hits == 0 {
				t.Fatalf("%s: probe run hit nothing despite %d stored entries",
					name, met.Entries)
			}
		}
	}
}

// orderedCacheDifferential spools and then serves, alone, the outermost
// subtrees of plan that promise an order: an index-NL join's inner leaf
// (PropIndexed), a merge join's sorted input. Cut to those candidates, the
// cache decides nothing above them, so the serving run probe-hits every one
// of them in place. Both runs must return the reference's rows and report
// its count at every node.
func orderedCacheDifferential(t *testing.T, q *relalg.Query, cat *catalog.Catalog, plan *relalg.Plan) {
	var cands []CacheCandidate
	for _, cand := range BuildCacheCandidates(q, plan, relalg.NewFingerprinter(q)) {
		inside := false
		for _, kept := range cands {
			inside = inside || cand.Expr.IsSubset(kept.Expr)
		}
		if cand.Node.Prop.Kind != relalg.PropAny && !inside {
			cands = append(cands, cand)
		}
	}
	if len(cands) == 0 {
		t.Fatalf("%s: no candidate promises an order\n%s", q.Name, plan.Explain(q))
	}
	for _, cand := range cands {
		t.Logf("%s: caching %v (%v, promises %v)", q.Name, cand.Expr, cand.Node.Phy, cand.Node.Prop)
	}
	ref := testkit.NewReference(q, cat)
	want := testkit.Canonical(ref.Rows(), nil)
	cache := rescache.New(64 << 20)
	for _, label := range []string{"spool", "probe"} {
		comp := &Compiler{Q: q, Cat: cat, Cache: cache, CacheCands: cands}
		v, st, err := comp.CompileVec(plan)
		if err != nil {
			t.Fatalf("%s/%s: %v", q.Name, label, err)
		}
		checkExecution(t, q.Name+"/"+label, comp, v, st, ref.Card, want, plan)
		hits, spools := comp.CacheDecisions()
		if (label == "spool" && spools != len(cands)) || (label == "probe" && hits != len(cands)) {
			t.Fatalf("%s/%s: %d probe hits and %d spools over %d candidates", q.Name, label, hits, spools, len(cands))
		}
	}
}

// sparseCacheDifferential runs two consumers of one cache whose plans are
// fingerprint-equal node for node — Q3S's joins under two aggregations — but
// whose subtrees carry different columns: narrow reads one lineitem column,
// wide one more. Every run must reproduce its uncached rows and RunStats;
// what changes is who hits. segment selects the customers: a value no
// customer has makes every entry over customer empty (N == 0), where "held,
// but empty" and "not held" must still be told apart.
func sparseCacheDifferential(t *testing.T, cat *catalog.Catalog, segment int64) {
	type consumer struct {
		q     *relalg.Query
		plan  *relalg.Plan
		cands []CacheCandidate
		rows  string
		stats map[relalg.RelSet]int64
	}
	consumerOf := func(agg *relalg.AggSpec) *consumer {
		q := tpch.Q3S()
		q.Scans[0].Val = segment
		q.Agg = agg
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		vr, err := volcano.Optimize(m, relalg.DefaultSpace())
		if err != nil {
			t.Fatal(err)
		}
		c := &consumer{q: q, plan: vr.Plan,
			cands: BuildCacheCandidates(q, vr.Plan, relalg.NewFingerprinter(q))}
		v, st, err := (&Compiler{Q: q, Cat: cat}).CompileVec(vr.Plan)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := DrainVec(v)
		if err != nil {
			t.Fatal(err)
		}
		c.rows, c.stats = rowMultiset(rows), st.Snapshot()
		return c
	}
	const lineitem = 2
	price := relalg.ColID{Rel: lineitem, Off: 5}
	narrow := consumerOf(&relalg.AggSpec{Sums: []relalg.ColID{price}, CountAll: true})
	wide := consumerOf(&relalg.AggSpec{Sums: []relalg.ColID{price},
		GroupBy: []relalg.ColID{{Rel: lineitem, Off: 6}}, CountAll: true})
	if len(narrow.cands) == 0 || len(narrow.cands) != len(wide.cands) || narrow.cands[0].FP != wide.cands[0].FP {
		t.Fatalf("consumers are not fingerprint-equal: %d vs %d candidates", len(narrow.cands), len(wide.cands))
	}

	cache := rescache.New(64 << 20)
	// run executes c against the shared cache, holds it to its uncached
	// result, and returns the cache activity of this one run.
	run := func(label string, c *consumer) (hits, misses, stores int64) {
		t.Helper()
		m0 := cache.Metrics()
		v, st, err := (&Compiler{Q: c.q, Cat: cat, Cache: cache, CacheCands: c.cands}).CompileVec(c.plan)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rows, err := DrainVec(v)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if rowMultiset(rows) != c.rows {
			t.Fatalf("%s: result differs from the uncached run", label)
		}
		statsEqual(t, label, st.Snapshot(), c.stats)
		m1 := cache.Metrics()
		return m1.Hits - m0.Hits, m1.Misses - m0.Misses, m1.Stores - m0.Stores
	}

	if _, _, stores := run("narrow spools", narrow); stores == 0 {
		t.Fatal("narrow consumer stored nothing")
	}
	if hits, misses, _ := run("narrow probes", narrow); hits != 1 || misses != 0 {
		t.Fatalf("narrow consumer over its own entries: %d hits %d misses, want the root hit alone", hits, misses)
	}
	// The narrow entries lack the wide consumer's extra lineitem column: a
	// miss wherever that column is carried — never a hit on a column the
	// entry does not hold — and the wide spool replaces them.
	if _, misses, stores := run("wide over narrow entries", wide); misses == 0 || stores == 0 {
		t.Fatalf("wide consumer over narrow entries: %d misses %d stores, want a miss and a re-spool", misses, stores)
	}
	if hits, misses, _ := run("wide probes", wide); hits != 1 || misses != 0 {
		t.Fatalf("wide consumer over its own entries: %d hits %d misses, want the root hit alone", hits, misses)
	}
	// A wide entry holds everything the narrow consumer reads.
	if hits, misses, stores := run("narrow over wide entries", narrow); hits != 1 || misses != 0 || stores != 0 {
		t.Fatalf("narrow consumer over wide entries: %d hits %d misses %d stores, want the root hit alone",
			hits, misses, stores)
	}
}

// TestResultCacheCandidateShape pins the candidacy rules on a concrete
// plan: candidates come out in pre-order, refuse unfiltered scans, and
// record a count point for every counted node of their subtree.
func TestResultCacheCandidateShape(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	q := tpch.Q3S()
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	fper := relalg.NewFingerprinter(q)
	cands := BuildCacheCandidates(q, vr.Plan, fper)
	if len(cands) == 0 {
		t.Fatal("no candidates on a 3-way join plan")
	}
	seen := map[string]bool{}
	for _, cand := range cands {
		if cand.Node.Log == relalg.LogScan && len(q.ScanPredsOf(cand.Node.Rel)) == 0 {
			t.Fatalf("candidate %v is an unfiltered scan", cand.Expr)
		}
		if fper.AmbiguousOrder(cand.Expr) {
			t.Fatalf("candidate %v has ambiguous canonical order", cand.Expr)
		}
		if len(cand.CanonOrder) != cand.Expr.Count() {
			t.Fatalf("candidate %v: %d canonical members, want %d",
				cand.Expr, len(cand.CanonOrder), cand.Expr.Count())
		}
		if len(cand.Counts) == 0 || cand.Counts[0].Set != cand.Expr {
			t.Fatalf("candidate %v: count points must start with the root, got %+v",
				cand.Expr, cand.Counts)
		}
		if seen[cand.FP] {
			t.Fatalf("duplicate candidate fingerprint %q", cand.FP)
		}
		seen[cand.FP] = true
	}
	// Pre-order: a candidate containing another must come first.
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			if cands[i].Expr.IsSubset(cands[j].Expr) && cands[i].Expr != cands[j].Expr {
				t.Fatalf("candidate %v precedes its superset %v", cands[i].Expr, cands[j].Expr)
			}
		}
	}
}

// TestResultCacheVersionPinning: a probe against entries pinned to an older
// data version must miss (and invalidate), and the following spool must
// repin the new version — end to end through the compiler.
func TestResultCacheVersionPinning(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	q := tpch.Q3S()
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	fper := relalg.NewFingerprinter(q)
	cands := BuildCacheCandidates(q, vr.Plan, fper)
	cache := rescache.New(64 << 20)

	run := func() string {
		comp := &Compiler{Q: q, Cat: cat, Cache: cache, CacheCands: cands}
		v, _, err := comp.CompileVec(vr.Plan)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := DrainVec(v)
		if err != nil {
			t.Fatal(err)
		}
		return rowMultiset(rows)
	}
	before := run()
	warm := cache.Metrics()
	if warm.Stores == 0 {
		t.Fatal("spool run stored nothing")
	}
	if run() != before {
		t.Fatal("warm probe changed the result")
	}
	if h := cache.Metrics().Hits; h == 0 {
		t.Fatal("second run did not probe-hit")
	}

	// Republish the customer table with the content it already has: a new
	// data version, so every cached entry over it must bypass.
	cust := cat.MustTable("customer")
	cols, n := cust.ColumnSnapshot()
	cust.ResetSnapshot(&storage.Snapshot{Cols: cols, N: n})
	cust.Analyze(0)

	hitsBefore := cache.Metrics().Hits
	after := run()
	met := cache.Metrics()
	if met.Invalidations == 0 {
		t.Fatal("no invalidation after ResetSnapshot bumped the data version")
	}
	if after != before {
		t.Fatal("post-invalidation run (same logical data) changed the result")
	}
	// Entries not over customer (e.g. the orders filter scan) may still hit;
	// the join cores over customer must not have.
	_ = hitsBefore
	// And the re-spooled entries must now serve again.
	hitsMid := cache.Metrics().Hits
	if run() != before {
		t.Fatal("re-warmed probe changed the result")
	}
	if cache.Metrics().Hits == hitsMid {
		t.Fatal("re-spooled entries never served")
	}
}
