package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
func appendOrders(t testing.TB, cat *catalog.Catalog, n int) { appendOrdersFrom(t, cat, n, 0) }

// appendOrdersFrom is appendOrders copying the orders from the from-th on,
// seven apart, and the lines from the from-th on.
func appendOrdersFrom(t testing.TB, cat *catalog.Catalog, n, from int) {
	t.Helper()
	orders, li := cat.MustTable("orders"), cat.MustTable("lineitem")
	okey, lkey := orders.MustCol("o_orderkey"), li.MustCol("l_orderkey")
	cols, rows := orders.ColumnSnapshot()
	_, lines := li.ColumnSnapshot()
	next := slices.Max(cols[okey][:rows]) + 1
	var newOrders, newLines [][]int64
	for i := 0; i < n; i++ {
		o, l := testkit.Row(orders, ((from+i)*7)%rows), testkit.Row(li, (from+i)%lines)
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

// appendCopies appends copies of n of tab's rows, the column named key, if
// any, set to fresh values above the table's largest. A copied line keeps its
// order, so the joins over lineitem count it.
func appendCopies(t *testing.T, tab *catalog.Table, key string, n int) {
	t.Helper()
	cols, rows := tab.ColumnSnapshot()
	var next int64
	if key != "" {
		next = slices.Max(cols[tab.MustCol(key)][:rows]) + 1
	}
	copies := make([][]int64, n)
	for i := range copies {
		copies[i] = testkit.Row(tab, (i*7)%rows)
		if key != "" {
			copies[i][tab.MustCol(key)] = next + int64(i)
		}
	}
	if err := tab.AppendRows(copies); err != nil {
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
// Q1, Q3S, Q5, Q5S, Q6 and Q10 are served from a DataDir-bound catalog (so trees with
// segment-pruned scans are reopened too), unbounded and under a budget that
// spills. After the entries converge, each round appends — orders and
// lineitems in the first three, customers only in the fourth, lineitems only
// in the fifth — and then has several sessions execute every statement at
// once. Every execution's rows and fed-back cardinalities must equal those of
// a tree compiled freshly for the plan version it ran, whose rows and counts
// must in turn equal testkit.Reference over the tables as they are now; and
// the server must have compiled fewer trees than it executed. Unbounded, held
// runs must keep hash-join tables in every round, inserting what the
// appends added (a kept table that missed a row would feed back the old
// count), maintain Q1's and Q6's aggregation (Q6 has no group key), folding
// the appended lineitems into the table they kept, and maintain the join
// statements' results, absorbing only what each join's output gained; under
// the budget none.
// One session's first execution of each round is an ExplainAnalyze: the
// analyze arm, a timed execution on a held tree among untimed ones.
//
// Handing a run back before its RunStats are read lets a concurrent borrower
// reset them under the reader: under -race that is reported as a race, and
// without it as fed-back cards that differ from the fresh tree's.
func TestHeldRunMatchesFresh(t *testing.T) {
	const (
		sessions = 3
		execs    = 2 // per session and statement in a round
		budget   = 2 << 10
	)
	names := []string{"Q1", "Q3S", "Q5", "Q5S", "Q6", "Q10"}
	joins := map[string]bool{"Q3S": true, "Q5": true, "Q5S": true, "Q10": true}
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

		appends := []func(){
			func() { appendOrders(t, srv.cat, 40) },
			func() { appendOrders(t, srv.cat, 40) },
			func() { appendOrders(t, srv.cat, 40) },
			func() { appendCopies(t, srv.cat.MustTable("customer"), "c_custkey", 20) },
			func() { appendCopies(t, srv.cat.MustTable("lineitem"), "", 40) },
		}
		for round := 1; round <= len(appends); round++ {
			appends[round-1]()
			m0 := srv.Metrics()
			var maintained [2]int64 // by the aggregations over one scan, by the join statements
			for _, name := range names {
				at := fmt.Sprintf("%s %s round %d", label, name, round)
				before := srv.Metrics().ResultsMaintained
				first := stmts[name].entry.cur.Load()
				var mu sync.Mutex
				var got []heldExec
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
							var x heldExec
							if s == 0 && i == 0 {
								var analyzed string
								x.res, analyzed, err = st.ExplainAnalyze()
								if err == nil && !strings.Contains(analyzed, "time=") {
									t.Errorf("%s: EXPLAIN ANALYZE without times:\n%s", at, analyzed)
								}
							} else {
								x.res, x.rows, err = execRows(st)
							}
							if err != nil {
								t.Errorf("%s: %v", at, err)
								return
							}
							mu.Lock()
							got = append(got, x)
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
				for _, x := range got {
					res := x.res
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
					if res.Rows != f.n || x.rows != nil && !sameMultiset(multiset(x.rows), f.rows) {
						t.Fatalf("%s (plan v%d): %d rows differ from a fresh tree's %d", at, res.PlanVersion, res.Rows, f.n)
					}
					if !reflect.DeepEqual(res.cards, f.cards) {
						t.Fatalf("%s (plan v%d): fed back %v, a fresh tree counts %v", at, res.PlanVersion, res.cards, f.cards)
					}
				}
				n := srv.Metrics().ResultsMaintained - before
				if joins[name] {
					maintained[1] += n
				} else {
					maintained[0] += n
				}
			}
			m1 := srv.Metrics()
			if n := m1.BuildsReused - m0.BuildsReused; (mem == 0) != (n > 0) {
				t.Fatalf("%s round %d: held runs kept %d hash-join tables", label, round, n)
			}
			if (mem == 0) != (maintained[0] > 0) || (mem == 0) != (maintained[1] > 0) {
				t.Fatalf("%s round %d: held runs maintained %d aggregations over one scan and %d join results",
					label, round, maintained[0], maintained[1])
			}
		}
		m := srv.Metrics()
		t.Logf("%s: %d executions, %d trees compiled, %d join tables kept, %d results maintained, %d spilled",
			label, m.Execs, m.Compiles, m.BuildsReused, m.ResultsMaintained, m.SpilledQueries)
		if m.Compiles >= m.Execs {
			t.Fatalf("%s: %d trees compiled for %d executions: no held run was reused", label, m.Compiles, m.Execs)
		}
		if (mem > 0) != (m.SpilledQueries > 0) {
			t.Fatalf("%s: %d executions spilled", label, m.SpilledQueries)
		}
	}
}

// TestKeptBuildSeesEveryAppend: state a run keeps — a held run's join
// tables and result, a result-cache entry — stands for exactly the rows its
// scans bound. A held run's next execution absorbs the rows above the
// watermark each scan bound, never a count read before the bind, and a
// spool's catalog.Pin records the tables' snapshots before its subtree's
// scans bind theirs. One session executes the statement in a loop while the
// test appends orders, so appends land at any point of its executions,
// inside build and probe drains among them, and then executes it from a
// second session; with straddle (the result-cache and delta-joins arms) that
// session's first execution of a round has a second append land while it
// streams its rows — inside the root's probe drain for a statement without
// an aggregation — and is not checked. Every execution that starts after an
// append has returned and ends before the next one begins — the second
// session's last, and the loop's between appends — must feed back what
// testkit.Reference counts over the tables as that append left them. Were a
// watermark or pin read after the scans bound, or a delta's start read
// before, an execution would keep a table or result missing an appended
// row, or count one twice. The arms: held runs keeping Q3S's join tables, a
// result cache probed, spooled into and invalidated, held runs of Q1
// maintaining its aggregation, whose rows are checked as well (a fold that
// missed an appended lineitem, or read one twice, would return other sums),
// and held runs of Q5S maintaining its joins' result. CI runs it under -race
// -count=10.
func TestKeptBuildSeesEveryAppend(t *testing.T) {
	t.Run("kept-tables", func(t *testing.T) {
		m := keptStateSeesEveryAppend(t, "Q3S", Options{MaxConcurrent: 2}, false)
		if m.BuildsReused == 0 {
			t.Fatalf("%d executions kept no hash-join table", m.Execs)
		}
	})
	t.Run("result-cache", func(t *testing.T) {
		m := keptStateSeesEveryAppend(t, "Q3S", Options{MaxConcurrent: 2, ResultCacheBytes: 64 << 20}, true)
		if rc := m.ResultCache; rc.Hits == 0 || rc.Stores == 0 || rc.Invalidations == 0 {
			t.Fatalf("%d executions: result cache %+v, want hits, stores and invalidations", m.Execs, rc)
		}
	})
	t.Run("maintained-aggregates", func(t *testing.T) {
		m := keptStateSeesEveryAppend(t, "Q1", Options{MaxConcurrent: 2}, false)
		if m.ResultsMaintained == 0 {
			t.Fatalf("%d executions maintained no aggregation", m.Execs)
		}
	})
	t.Run("delta-joins", func(t *testing.T) {
		m := keptStateSeesEveryAppend(t, "Q5S", Options{MaxConcurrent: 2}, true)
		if m.ResultsMaintained == 0 {
			t.Fatalf("%d executions maintained no join result", m.Execs)
		}
	})
}

// TestEmptyAppendKeepsJoinTables: a held run keeps a join table while the
// snapshots under its build side only grow, and an empty append publishes
// none. A converged Q3S on a serial server keeps as many join tables after
// AppendRows(nil) on each of its tables as after no append at all, without
// compiling, and maintains its result both times; after a one-row append
// to customer, which every build reads, it keeps them all too, inserting
// the row, and maintains its result again; after customer is reset to its
// own rows, a new snapshot epoch, it keeps none and maintains nothing. It
// runs with the collector off on one P, as TestHeldRunProfiles does, so the
// counts are the held run's.
func TestEmptyAppendKeepsJoinTables(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race a sync.Pool drops held runs at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv := testServer(t, Options{})
	st, err := srv.Session().PrepareNamed("Q3S")
	if err != nil {
		t.Fatal(err)
	}
	converge(t, "Q3S", st)
	kept := func(after string) (tables, maintained int64) {
		t.Helper()
		m0 := srv.Metrics()
		if _, err := st.Exec(); err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
		m1 := srv.Metrics()
		if m1.Compiles != m0.Compiles {
			t.Fatalf("after %s: the execution compiled a tree", after)
		}
		return m1.BuildsReused - m0.BuildsReused, m1.ResultsMaintained - m0.ResultsMaintained
	}
	steady, m := kept("no append")
	if steady == 0 || m != 1 {
		t.Fatalf("a converged Q3S kept %d join tables and maintained %d results", steady, m)
	}
	for _, name := range []string{"customer", "orders", "lineitem"} {
		if err := srv.Catalog().MustTable(name).AppendRows(nil); err != nil {
			t.Fatal(err)
		}
	}
	if n, m := kept("empty appends"); n != steady || m != 1 {
		t.Fatalf("after empty appends Q3S kept %d join tables, %d without them, and maintained %d results", n, steady, m)
	}
	appendCopies(t, srv.Catalog().MustTable("customer"), "c_custkey", 1)
	if n, m := kept("a one-row append"); n != steady || m != 1 {
		t.Fatalf("after a one-row append to customer Q3S kept %d join tables, want %d, and maintained %d results", n, steady, m)
	}
	customer := srv.Catalog().MustTable("customer")
	customer.ResetSnapshot(customer.Store().Snapshot())
	if n, m := kept("a reset"); n != 0 || m != 0 {
		t.Fatalf("after a reset of customer Q3S kept %d join tables and maintained %d results", n, m)
	}
}

// keptStateSeesEveryAppend runs TestKeptBuildSeesEveryAppend's rounds of the
// named statement on a server with opts and returns its metrics. With
// straddle, the appending session's first execution of a round has a second
// append land while it streams.
func keptStateSeesEveryAppend(t *testing.T, name string, opts Options, straddle bool) Metrics {
	const rounds = 40
	srv := testServer(t, opts)
	prepare := func() *Stmt {
		st, err := srv.Session().PrepareNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := prepare()
	converge(t, name, st)
	loop := prepare()
	// An aggregation's rows are plan-independent: they are checked too.
	agg := st.Query().Agg != nil
	type reference struct {
		*testkit.Reference
		rows string // the canonical rows of an aggregation
	}
	newReference := func() *reference {
		ref := &reference{Reference: testkit.NewReference(st.Query(), srv.cat)}
		if agg {
			ref.rows = testkit.Canonical(ref.Rows(), nil)
		}
		return ref
	}
	check := func(who string, res *Result, rows []exec.Row, ref *reference) {
		for set, n := range res.cards {
			if want := ref.Card(set); n != want {
				t.Errorf("%s: an execution started after the append counts %d rows for %v, the reference %d", who, n, set, want)
			}
		}
		if agg && testkit.Canonical(rows, nil) != ref.rows {
			t.Errorf("%s: an execution started after the append returns other rows than the reference", who)
		}
	}
	// quiet is the reference over the tables as the last append left them,
	// nil while an append is in flight; checked counts the loop's checks.
	var quiet atomic.Pointer[reference]
	var checked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ref := quiet.Load()
			res, rows, err := execRows(loop)
			if err != nil {
				t.Error(err)
				return
			}
			if ref != nil && quiet.Load() == ref { // no append began during the execution
				check("the looping session", res, rows, ref)
				checked.Add(1)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	for round := 1; round <= rounds && !t.Failed(); round++ {
		quiet.Store(nil)
		appendOrders(t, srv.cat, 5)
		if straddle {
			// The append left no entry over orders, so this execution
			// spools afresh; a second append lands while it streams its
			// rows, after its scans bound their snapshots, so the entry it
			// stores is stale.
			var once sync.Once
			appendAgain := func() { once.Do(func() { appendOrders(t, srv.cat, 5) }) }
			if _, err := st.ExecInto(func(*exec.Batch) error { appendAgain(); return nil }); err != nil {
				t.Fatal(err)
			}
			appendAgain()
		}
		ref := newReference()
		quiet.Store(ref)
		res, rows, err := execRows(st)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d, the appending session", round), res, rows, ref)
		for n := checked.Load(); checked.Load() < n+2 && !t.Failed(); {
			runtime.Gosched() // the loop's next two executions start after the append
		}
	}
	return srv.Metrics()
}

// heldExec is one execution of TestHeldRunMatchesFresh: its result, and its
// rows unless it was the analyze arm, which counts.
type heldExec struct {
	res  *Result
	rows []exec.Row
}

// freshResult is what a freshly compiled tree returned: its rows as a
// multiset, their count and its RunStats.
type freshResult struct {
	rows  map[string]int
	n     int64
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
	return &freshResult{rows: multiset(rows), n: int64(len(rows)), cards: cards}
}

// TestHeldRunProfiles: EXPLAIN ANALYZE and slow-query tracing run on held
// trees. On a converged statement of a serial server, two ExplainAnalyze
// calls compile nothing, and both render the same rows and batches per node
// as a freshly compiled tree: no table changes here, so every node of a held
// tree emits its empty delta, starts from the rows and batches it counted
// when its stream last ended, and is marked maintained before its time. The untimed
// execution that follows leaves its tree untimed. A server that traces every
// execution as slow compiles fewer trees than it executes, and every dump
// carries a time on every node that ran.
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
			// Under -race the pool may have dropped the held run.
			if !strings.Contains(analyzed, "time=") || !strings.Contains(analyzed, " maintained") && !raceEnabled {
				t.Fatalf("%s: analyze %d renders no times or no maintained node:\n%s", name, i, analyzed)
			}
			if got := times.ReplaceAllString(analyzed, ""); strings.ReplaceAll(got, " maintained]", "]") != fresh {
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

// TestFailedRunIsNotReused: an execution that fails leaves its tree in no
// defined state, so the run is dropped rather than handed back, and nothing it
// counted is fed back. A converged Q5 that spills under the budget fails
// twice: at spill time, because its spill directory was removed, and in its
// sink, which errors on the first batch it is handed, as the rows verb's does
// when its client has gone. Each failure counts one failed execution, and the
// failed run's tracker holds nothing afterwards: Drain closed its tree. After
// each failure the next execution compiles a tree and returns the converged
// rows. The sink's failure leaves the spill directory empty and moves no
// execution counter and no plan version. The sink arm runs again on an
// unbounded server, whose held runs keep their join tables: the execution
// after the failure keeps none, since there is no held tree to keep them in,
// and the one after it does. Over the wire, on one admission slot, a client
// gone mid-rows ends ServeConn with the write error, counts a failed
// execution, and the slot is free for the next execution; through
// ServeListener, a client that resets its connection counts a connection
// error. The collector is off and the test on one P, so an idle run is always
// found.
func TestFailedRunIsNotReused(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spill := filepath.Join(t.TempDir(), "spill")
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, Options{MaxConcurrent: 1, MemBudgetBytes: 2 << 10, SpillDir: spill})
	plain := testServer(t, Options{MaxConcurrent: 1})
	prepare := func(srv *Server) (*Stmt, map[string]int) {
		t.Helper()
		st, err := srv.Session().PrepareNamed("Q5")
		if err != nil {
			t.Fatal(err)
		}
		converge(t, "Q5", st)
		_, rows, err := execRows(st)
		if err != nil {
			t.Fatal(err)
		}
		return st, multiset(rows)
	}
	st, want := prepare(srv)
	if srv.Metrics().SpilledQueries == 0 {
		t.Fatal("Q5 never spilled under the budget: the failures below would not happen")
	}
	// idle returns the run st's next execution borrows, nil under -race,
	// whose sync.Pool drops held runs at random.
	idle := func(st *Stmt) *heldRun {
		t.Helper()
		if raceEnabled {
			return nil
		}
		snap := st.entry.cur.Load()
		run, _ := snap.runs.Get().(*heldRun)
		if run == nil {
			t.Fatal("no idle run after a successful execution")
		}
		snap.runs.Put(run)
		return run
	}
	// failed checks what the failure of st's execution on run left.
	failed := func(arm string, st *Stmt, run *heldRun, m0 Metrics) {
		t.Helper()
		if run != nil && run.mem.Used() != 0 {
			t.Fatalf("the failed %s execution's tracker still holds %d bytes: its tree was not closed", arm, run.mem.Used())
		}
		if m1 := st.sess.srv.Metrics(); m1.FailedExecs != m0.FailedExecs+1 {
			t.Fatalf("the %s failure moved the failed executions %d→%d", arm, m0.FailedExecs, m1.FailedExecs)
		}
	}
	recovers := func(arm string, st *Stmt, want map[string]int) {
		t.Helper()
		m0 := st.sess.srv.Metrics()
		_, rows, err := execRows(st)
		if err != nil {
			t.Fatalf("the execution after the %s failure: %v", arm, err)
		}
		if !sameMultiset(multiset(rows), want) {
			t.Fatalf("the execution after the %s failure returned different rows", arm)
		}
		if m1 := st.sess.srv.Metrics(); m1.Compiles != m0.Compiles+1 || m1.BuildsReused != m0.BuildsReused {
			t.Fatalf("the execution after the %s failure compiled %d trees, want 1, and kept %d join tables, want 0",
				arm, m1.Compiles-m0.Compiles, m1.BuildsReused-m0.BuildsReused)
		}
	}

	if err := os.RemoveAll(spill); err != nil {
		t.Fatal(err)
	}
	m0, run := srv.Metrics(), idle(st)
	if _, err := st.Exec(); err == nil {
		t.Fatal("an execution that must spill succeeded without its spill directory")
	}
	failed("spill", st, run, m0)
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	recovers("spill", st, want)

	gone := errors.New("client gone")
	sinkFails := func(st *Stmt) {
		t.Helper()
		m0, v0, run := st.sess.srv.Metrics(), st.entry.cur.Load().version, idle(st)
		batches := 0
		if _, err := st.ExecInto(func(*exec.Batch) error { batches++; return gone }); !errors.Is(err, gone) || batches != 1 {
			t.Fatalf("a sink failing on its first batch: error %v after %d batches", err, batches)
		}
		failed("sink", st, run, m0)
		m1, v1 := st.sess.srv.Metrics(), st.entry.cur.Load().version
		if m1.Execs != m0.Execs || m1.Converged != m0.Converged || m1.Repairs != m0.Repairs || v1 != v0 {
			t.Fatalf("the failed execution moved execs %d→%d, converged %d→%d, repairs %d→%d or plan v%d→v%d",
				m0.Execs, m1.Execs, m0.Converged, m1.Converged, m0.Repairs, m1.Repairs, v0, v1)
		}
	}
	sinkFails(st)
	if left, err := os.ReadDir(spill); err != nil || len(left) != 0 {
		t.Fatalf("the failed execution left %d spill files (%v)", len(left), err)
	}
	recovers("sink", st, want)

	pst, pwant := prepare(plain)
	if plain.Metrics().BuildsReused == 0 && !raceEnabled {
		t.Fatal("the unbounded server's held runs kept no join table: the check below would be empty")
	}
	sinkFails(pst)
	recovers("unbounded sink", pst, pwant)
	m0 = plain.Metrics()
	if _, err := pst.Exec(); err != nil {
		t.Fatal(err)
	}
	if plain.Metrics().BuildsReused == m0.BuildsReused && !raceEnabled {
		t.Fatal("the execution after the recovery kept no join table")
	}

	reset := errors.New("connection reset")
	conn := struct {
		io.Reader
		io.Writer
	}{strings.NewReader("prepare all SELECT l.l_orderkey, l.l_partkey FROM lineitem l\nrows all\nquit\n"),
		&failingWriter{left: 8 << 10, err: reset}}
	m0 = srv.Metrics()
	if err := srv.ServeConn(conn); !errors.Is(err, reset) {
		t.Fatalf("ServeConn over a client gone mid-rows returned %v, want the write error", err)
	}
	admitted := make(chan error, 1)
	go func() { _, err := st.Exec(); admitted <- err }()
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the gone client's execution still holds the admission slot")
	}
	if m1 := srv.Metrics(); m1.Execs != m0.Execs+1 || m1.QueueWaits != m0.QueueWaits || m1.FailedExecs != m0.FailedExecs+1 {
		t.Fatalf("the gone client's execution counted: execs %d→%d, queue waits %d→%d, failed executions %d→%d",
			m0.Execs, m1.Execs, m0.QueueWaits, m1.QueueWaits, m0.FailedExecs, m1.FailedExecs)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeListener(ln) }()
	defer func() { ln.Close(); <-served }()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(c, "prepare all SELECT l.l_orderkey, l.l_partkey FROM lineitem l\nrows all\n"); err != nil {
		t.Fatal(err)
	}
	c.(*net.TCPConn).SetLinger(0) // Close resets the connection
	c.Close()
	for deadline := time.Now().Add(10 * time.Second); srv.Metrics().ConnErrors == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a reset connection counted no connection error")
		}
	}
}

// failingWriter takes left bytes, then fails every write with err.
type failingWriter struct {
	left int
	err  error
}

func (w *failingWriter) Write(b []byte) (int, error) {
	if len(b) > w.left {
		w.left = 0
		return 0, w.err
	}
	w.left -= len(b)
	return len(b), nil
}

// TestServeHitSteadyStateAllocs pins what a converged plan-cache hit costs
// once its plan version holds an idle run: Q3S at SF 0.002, executed
// serially through one prepared statement. Compiling per request allocated
// ≈ 349 kB in 169 allocations an execution; a held run drained into rows
// ≈ 4.8 kB in 19; a held run that counts 344 B in 6. The ceilings keep the
// headroom the 4.8 kB run had (about 5× the bytes, 2.5× the allocations). A
// tree compiled after the GC took the idle one, or after the goroutine moved
// to another P, costs more than that room over 200 executions, so the test
// runs with the collector off on one P.
func TestServeHitSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops held runs at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		n             = 200
		ceilingBytes  = 1792
		ceilingAllocs = 15
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
