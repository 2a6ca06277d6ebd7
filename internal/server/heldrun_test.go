package server

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/testkit"
)

// appendOrders appends n orders, two lines each, under fresh keys above the
// table's largest: copies of existing rows, so they pass and fail the
// workload's filters like the rows they copy.
func appendOrders(t *testing.T, cat *catalog.Catalog, n int) {
	t.Helper()
	orders, li := cat.MustTable("orders"), cat.MustTable("lineitem")
	okey, lkey := orders.MustCol("o_orderkey"), li.MustCol("l_orderkey")
	cols, rows := orders.ColumnSnapshot()
	next := slices.Max(cols[okey][:rows]) + 1
	var newOrders, newLines [][]int64
	for i := 0; i < n; i++ {
		o, l := testkit.Row(orders, (i*7)%rows), testkit.Row(li, i)
		o[okey], l[lkey] = next+int64(i), next+int64(i)
		newOrders, newLines = append(newOrders, o), append(newLines, l, slices.Clone(l))
	}
	if err := orders.AppendRows(newOrders); err != nil {
		t.Fatal(err)
	}
	if err := li.AppendRows(newLines); err != nil {
		t.Fatal(err)
	}
}

// converge executes st until an execution's feedback repairs nothing, and
// returns that execution's result.
func converge(t *testing.T, label string, st *Stmt) *Result {
	t.Helper()
	for i := 0; i < 10; i++ {
		res, err := st.Exec()
		if err != nil {
			t.Fatalf("%s warm-up: %v", label, err)
		}
		if !res.Repaired {
			return res
		}
	}
	t.Fatalf("%s: still repairing after 10 executions", label)
	return nil
}

// TestHeldRunMatchesFresh is the serving half of the reopen differential.
// Q1, Q3S, Q5 and Q10 are served from a DataDir-bound catalog (so trees with
// segment-pruned scans are reopened too), unbounded and under a budget that
// spills. After the entries converge, each round
// appends orders and lineitems and then has several sessions execute every
// statement at once. Every execution's rows and fed-back cardinalities must
// equal those of a tree compiled freshly for the plan version it ran, whose
// rows and counts must in turn equal testkit.Reference over the tables as
// they are now; and the server must have compiled fewer trees than it
// executed. One session's first execution of each round is an ExplainAnalyze:
// the analyze arm, a timed execution on a held tree among untimed ones.
//
// Handing a run back before its RunStats are read lets a concurrent borrower
// reset them under the reader: under -race that is reported as a race, and
// without it as fed-back cards that differ from the fresh tree's.
func TestHeldRunMatchesFresh(t *testing.T) {
	const (
		sessions = 3
		execs    = 2 // per session and statement in a round
		rounds   = 3
		budget   = 2 << 10
	)
	names := []string{"Q1", "Q3S", "Q5", "Q10"}
	for _, mem := range []int64{0, budget} {
		label := fmt.Sprintf("budget=%d", mem)
		srv := testServer(t, Options{DataDir: t.TempDir(),
			MaxConcurrent: sessions, MemBudgetBytes: mem})
		t.Cleanup(func() { srv.Shutdown() })
		stmts := map[string]*Stmt{}
		for _, name := range names {
			st, err := srv.Session().PrepareNamed(name)
			if err != nil {
				t.Fatal(err)
			}
			converge(t, label+" "+name, st)
			stmts[name] = st
		}

		for round := 1; round <= rounds; round++ {
			appendOrders(t, srv.cat, 40)
			for _, name := range names {
				at := fmt.Sprintf("%s %s round %d", label, name, round)
				first := stmts[name].entry.cur.Load()
				var mu sync.Mutex
				var got []*Result
				var wg sync.WaitGroup
				for s := 0; s < sessions; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						st, err := srv.Session().PrepareNamed(name)
						if err != nil {
							t.Error(err)
							return
						}
						for i := 0; i < execs; i++ {
							var res *Result
							if s == 0 && i == 0 {
								var analyzed string
								res, analyzed, err = st.ExplainAnalyze()
								if err == nil && !strings.Contains(analyzed, "time=") {
									t.Errorf("%s: EXPLAIN ANALYZE without times:\n%s", at, analyzed)
								}
							} else {
								res, err = st.Exec()
							}
							if err != nil {
								t.Errorf("%s: %v", at, err)
								return
							}
							mu.Lock()
							got = append(got, res)
							mu.Unlock()
						}
					}()
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}
				// Feedback may repair the plan mid-round; the data does not
				// change within one, so a tree compiled now for either
				// version sees what the executions saw.
				last := stmts[name].entry.cur.Load()
				fresh := map[uint64]*freshResult{}
				for _, res := range got {
					f := fresh[res.PlanVersion]
					if f == nil {
						switch res.PlanVersion {
						case first.version:
							f = checkFresh(t, at, srv, stmts[name].Query(), first.plan)
						case last.version:
							f = checkFresh(t, at, srv, stmts[name].Query(), last.plan)
						default:
							t.Fatalf("%s: plan v%d ran, neither the round's first v%d nor its last v%d",
								at, res.PlanVersion, first.version, last.version)
						}
						fresh[res.PlanVersion] = f
					}
					if !sameMultiset(multiset(res.Rows), f.rows) {
						t.Fatalf("%s (plan v%d): %d rows differ from a fresh tree's", at, res.PlanVersion, len(res.Rows))
					}
					if !reflect.DeepEqual(res.cards, f.cards) {
						t.Fatalf("%s (plan v%d): fed back %v, a fresh tree counts %v", at, res.PlanVersion, res.cards, f.cards)
					}
				}
			}
		}
		m := srv.Metrics()
		t.Logf("%s: %d executions, %d trees compiled, %d spilled", label, m.Execs, m.Compiles, m.SpilledQueries)
		if m.Compiles >= m.Execs {
			t.Fatalf("%s: %d trees compiled for %d executions: no held run was reused", label, m.Compiles, m.Execs)
		}
		if (mem > 0) != (m.SpilledQueries > 0) {
			t.Fatalf("%s: %d executions spilled", label, m.SpilledQueries)
		}
	}
}

// freshResult is what a freshly compiled tree returned: its rows as a
// multiset and its RunStats.
type freshResult struct {
	rows  map[string]int
	cards map[relalg.RelSet]int64
}

// checkFresh compiles plan into a new tree with the server's execution
// options — what Server.run did for every request before runs were held —
// drains it, and checks its rows and counts against testkit.Reference.
func checkFresh(t *testing.T, at string, srv *Server, q *relalg.Query, plan *relalg.Plan) *freshResult {
	t.Helper()
	comp := &exec.Compiler{Q: q, Cat: srv.cat, Mem: exec.NewMemTracker(srv.opts.MemBudgetBytes)}
	root, stats, err := comp.CompileVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.DrainVec(root)
	if err != nil {
		t.Fatal(err)
	}
	var schema []relalg.ColID // aggregate rows are already plan-independent
	if q.Agg == nil {
		if schema, err = comp.PlanSchema(plan); err != nil {
			t.Fatal(err)
		}
	}
	ref := testkit.NewReference(q, srv.cat)
	if testkit.Canonical(rows, schema) != testkit.Canonical(ref.Rows(), nil) {
		t.Fatalf("%s: a fresh tree's %d rows differ from the reference", at, len(rows))
	}
	cards := stats.Snapshot()
	for set, n := range cards {
		if want := ref.Card(set); n != want {
			t.Fatalf("%s: a fresh tree counts %d rows for %v, the reference %d", at, n, set, want)
		}
	}
	return &freshResult{rows: multiset(rows), cards: cards}
}

// TestHeldRunProfiles: EXPLAIN ANALYZE and slow-query tracing run on held
// trees. On a converged statement of a serial server, two ExplainAnalyze
// calls compile nothing, and both render the same rows and batches per node
// as a freshly compiled tree: a held tree's spans start every execution at
// zero. The untimed execution that follows leaves its tree untimed. A server
// that traces every execution as slow compiles fewer trees than it executes,
// and every dump carries a time on every executed node.
//
// A garbage collection empties a sync.Pool's idle runs, and a run handed back
// on one P is not found by a borrower on another, so the test runs with the
// collector off on one P: the counts it asserts are the held runs', not the
// runtime's.
func TestHeldRunProfiles(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	times := regexp.MustCompile(` time=[^\]]*`)
	names := []string{"Q3S", "Q5", "Q10"}
	srv := testServer(t, Options{})
	for _, name := range names {
		st, err := srv.Session().PrepareNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		converge(t, name, st)
		snap := st.entry.cur.Load()
		comp := &exec.Compiler{Q: st.Query(), Cat: srv.cat, Mem: exec.NewMemTracker(0)}
		root, stats, err := comp.CompileVec(snap.plan)
		if err != nil {
			t.Fatal(err)
		}
		stats.SetTiming(true)
		if _, err := exec.DrainVec(root); err != nil {
			t.Fatal(err)
		}
		fresh := times.ReplaceAllString(stats.Format(), "")
		before := srv.Metrics().Compiles
		for i := 1; i <= 2; i++ {
			_, analyzed, err := st.ExplainAnalyze()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(analyzed, "time=") {
				t.Fatalf("%s: analyze %d renders no times:\n%s", name, i, analyzed)
			}
			if got := times.ReplaceAllString(analyzed, ""); got != fresh {
				t.Fatalf("%s: analyze %d on a held tree renders\n%s\na fresh tree\n%s", name, i, got, fresh)
			}
		}
		if n := srv.Metrics().Compiles - before; n != 0 && !raceEnabled {
			t.Fatalf("%s: two ExplainAnalyze calls on a converged statement compiled %d trees", name, n)
		}
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
		// The tree the untimed execution handed back.
		run, _ := snap.runs.Get().(*heldRun)
		if run == nil {
			if raceEnabled {
				continue // sync.Pool drops held runs at random under -race
			}
			t.Fatalf("%s: no idle run after an execution", name)
		}
		if text := run.stats.Format(); strings.Contains(text, "time=") {
			t.Fatalf("%s: an untimed execution after EXPLAIN ANALYZE renders times:\n%s", name, text)
		}
		snap.runs.Put(run)
	}

	slow := testServer(t, Options{TraceSlowQuery: time.Nanosecond})
	for _, name := range names {
		st, err := slow.Session().PrepareNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if _, err := st.Exec(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m := slow.Metrics(); m.Compiles >= m.Execs {
		t.Fatalf("every execution traced as slow: %d trees compiled for %d executions", m.Compiles, m.Execs)
	}
	dumps := slow.SlowTraces()
	if len(dumps) == 0 {
		t.Fatal("no slow-query dump")
	}
	for _, dump := range dumps {
		nodes := 0
		for _, line := range strings.Split(dump, "\n") {
			if !strings.Contains(line, "| rows=") {
				continue
			}
			nodes++
			if !strings.Contains(line, "time=") {
				t.Fatalf("a slow-query dump's executed node has no time: %q in\n%s", line, dump)
			}
		}
		if nodes == 0 {
			t.Fatalf("a slow-query dump without an executed node:\n%s", dump)
		}
	}
}

// TestFailedRunIsNotReused: an execution that fails at spill time, because
// its spill directory was removed, leaves its tree in no defined state, so
// the run is dropped rather than handed back. Once the directory is back,
// the next execution of the statement compiles a tree and succeeds.
func TestFailedRunIsNotReused(t *testing.T) {
	spill := filepath.Join(t.TempDir(), "spill")
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, Options{MemBudgetBytes: 2 << 10, SpillDir: spill})
	st, err := srv.Session().PrepareNamed("Q5")
	if err != nil {
		t.Fatal(err)
	}
	want := multiset(converge(t, "Q5", st).Rows)
	if srv.Metrics().SpilledQueries == 0 {
		t.Fatal("Q5 never spilled under the budget: the failure below would not happen")
	}

	if err := os.RemoveAll(spill); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err == nil {
		t.Fatal("an execution that must spill succeeded without its spill directory")
	}
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	before := srv.Metrics().Compiles
	res, err := st.Exec()
	if err != nil {
		t.Fatalf("the execution after the failed one: %v", err)
	}
	if !sameMultiset(multiset(res.Rows), want) {
		t.Fatal("the execution after the failed one returned different rows")
	}
	if after := srv.Metrics().Compiles; after != before+1 {
		t.Fatalf("the execution after the failed one compiled %d trees, want 1", after-before)
	}
}

// TestServeHitSteadyStateAllocs pins what a converged plan-cache hit costs
// once its plan version holds an idle run: Q3S at SF 0.002, executed
// serially through one prepared statement. Compiling per request allocated
// ≈ 349 kB in 169 allocations an execution; a held run ≈ 4.6 kB in 19. The
// ceilings leave room for an occasional tree compiled after the GC has taken
// the idle one, or after the goroutine moved to another P.
func TestServeHitSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops held runs at random under -race")
	}
	const (
		n             = 200
		ceilingBytes  = 24 << 10
		ceilingAllocs = 48
	)
	srv := testServer(t, Options{})
	st, err := srv.Session().PrepareNamed("Q3S")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	allocs := (after.Mallocs - before.Mallocs) / n
	t.Logf("a converged Q3S execution: %d B in %d allocations", bytes, allocs)
	if bytes > ceilingBytes || allocs > ceilingAllocs {
		t.Fatalf("a converged Q3S execution allocates %d B in %d allocations, ceiling %d B and %d",
			bytes, allocs, ceilingBytes, ceilingAllocs)
	}
}
