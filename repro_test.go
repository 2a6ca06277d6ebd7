package repro

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/sqlmini"
	"repro/internal/tpch"
)

func TestFacadeEndToEnd(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42})
	opt, err := NewOptimizer(tpch.Q5(), cat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Expr != opt.Query().AllRels() {
		t.Fatal("plan does not cover the query")
	}
	baseline := plan.Cost

	// An 8x cardinality update must raise the (estimated) best cost.
	opt.UpdateCardFactor(opt.Query().AllRels(), 8)
	plan, err = opt.Reoptimize()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost <= baseline {
		t.Fatalf("8x root cardinality did not raise cost: %v <= %v", plan.Cost, baseline)
	}
	m := opt.Metrics()
	if m.TouchedEntries == 0 {
		t.Fatal("update touched nothing")
	}
	// Reverting must restore the original optimum exactly.
	opt.UpdateCardFactor(opt.Query().AllRels(), 1)
	plan, err = opt.Reoptimize()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost != baseline {
		t.Fatalf("revert did not restore optimum: %v != %v", plan.Cost, baseline)
	}
	if err := opt.inner.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opt.SearchSpace(), "*Expr") {
		t.Fatal("SearchSpace rendering broken")
	}
	if !strings.Contains(opt.AndOrGraph(), "OR ") {
		t.Fatal("AndOrGraph rendering broken")
	}
}

func TestFacadeOptions(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 1})
	space := relalg.DefaultSpace()
	space.LeftDeepOnly = true
	mode := core.PruneEvita
	opt, err := NewOptimizerOptions(tpch.Q3S(), cat, Options{Space: &space, Pruning: &mode})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Optimize(); err != nil {
		t.Fatal(err)
	}
	// Evita never releases a plan-table entry; the default, all of the
	// paper's pruning, does.
	full, err := NewOptimizerOptions(tpch.Q3S(), cat, Options{Space: &space})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Optimize(); err != nil {
		t.Fatal(err)
	}
	if e, f := opt.Metrics().GroupKills, full.Metrics().GroupKills; e != 0 || f == 0 {
		t.Fatalf("pruning option ignored: evita released %d groups, the default %d", e, f)
	}
	bad := core.Pruning{Suppress: true}
	if _, err := NewOptimizerOptions(tpch.Q3S(), cat, Options{Pruning: &bad}); err == nil {
		t.Fatal("invalid pruning accepted")
	}
}

func TestFacadeParseSQL(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 42})
	q, err := sqlmini.Parse(
		`SELECT SUM(l.l_extendedprice) FROM orders o, lineitem l
		 WHERE o.o_orderkey = l.l_orderkey AND o.o_orderdate < '1995-03-15'`,
		cat, sqlmini.Options{Date: tpch.Date})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimizer(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Expr != q.AllRels() {
		t.Fatal("SQL-derived plan incomplete")
	}
}

// TestFacadeStatsRestart simulates the reproserve kill/restart cycle through
// the public facade: a server converges on a workload, saves its statistics
// plane with atomic rotation, and a brand-new server (fresh plan cache,
// fresh optimizers) loads the snapshot and re-prepares the same workload —
// one full optimization per entry, warm-started factors, and repairs no
// worse than the converged pre-restart state.
func TestFacadeStatsRestart(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42, Skew: 0.5})
	path := filepath.Join(t.TempDir(), "stats.json")
	ageing := StatsStoreOptions{DecayHalfLife: 200, StaleAfter: 10000}

	// First life: converge, then persist on "shutdown".
	before := NewStatsStoreWith(ageing)
	srv1, err := NewServer(cat, ServerOptions{Stats: before, Named: tpch.Queries()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv1.Session().PrepareNamed("Q3S")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	srv1.Shutdown()
	if err := before.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// Second life: a different process would start from the file alone.
	after := NewStatsStoreWith(ageing)
	if err := after.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if after.Clock() != before.Clock() || after.Len() != before.Len() {
		t.Fatalf("snapshot lost state: clock %d/%d keys %d/%d",
			after.Clock(), before.Clock(), after.Len(), before.Len())
	}
	srv2, err := NewServer(cat, ServerOptions{Stats: after, Named: tpch.Queries()})
	if err != nil {
		t.Fatal(err)
	}
	re, err := srv2.Session().PrepareNamed("Q3S")
	if err != nil {
		t.Fatal(err)
	}
	if re.Hit {
		t.Fatal("fresh server reported a plan-cache hit")
	}
	for i := 0; i < 3; i++ {
		res, err := re.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if res.Repaired {
			t.Fatalf("restarted server repaired on exec %d despite loaded statistics", i)
		}
	}
	m := srv2.Metrics()
	if m.FullOpts != 1 {
		t.Fatalf("restarted server full-opts=%d, want exactly 1 (the re-prepare miss)", m.FullOpts)
	}
	if m.WarmSeeds == 0 {
		t.Fatal("restarted server was not warm-started from the snapshot")
	}
	if m.Repairs != 0 {
		t.Fatalf("restarted server repairs=%d, want 0 (no worse than converged)", m.Repairs)
	}
}
