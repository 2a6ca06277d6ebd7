package server

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/relalg"
)

// freshCost optimizes the statement's query from scratch, as a miss without
// a template does, under a model with no warm start.
func freshCost(t *testing.T, srv *Server, st *Stmt) float64 {
	t.Helper()
	m, err := cost.NewModel(st.Query(), srv.Catalog(), cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.New(m, relalg.ServedSpace(), core.PruneAll)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	return plan.Cost
}

func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestCloneLeafGuardOnDiskStore: on the disk store a scan predicate on a
// table's zone column makes its table scan cheaper (zone pruning reads only
// part of the rows), so two statements over one join graph can price one
// leaf differently. The statement whose lineitem predicate hits the zone
// column clones the one whose predicate misses it, and the third clones the
// second: each must reach a fresh optimization's cost, which holds only
// while Clone's staged scan updates re-price every leaf from the new
// statement's model.
func TestCloneLeafGuardOnDiskStore(t *testing.T) {
	srv := testServer(t, Options{DataDir: t.TempDir()})
	defer srv.Shutdown()
	li := srv.Catalog().MustTable("lineitem")
	if zc := li.ZoneCols(); len(zc) != 1 || zc[0] != li.MustCol("l_orderkey") {
		t.Fatalf("lineitem zone columns %v, want l_orderkey's", zc)
	}
	sess := srv.Session()
	for i, c := range []struct {
		sql   string
		clone bool
	}{
		{`SELECT COUNT(*) FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity < 10`, false},
		{`SELECT COUNT(*) FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND l.l_orderkey < 400`, true},
		{`SELECT COUNT(*) FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey AND l.l_orderkey < 900`, true},
	} {
		st, err := sess.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.Plan().Cost, freshCost(t, srv, st); !sameCost(got, want) {
			t.Fatalf("statement %d: prepared plan costs %v, a fresh optimization %v\n%s", i, got, want, st.Plan().Explain(st.Query()))
		}
		if em := st.entry.snapshot(); (em.Clones == 1) != c.clone {
			t.Fatalf("statement %d: clones=%d, want a clone: %v", i, em.Clones, c.clone)
		}
	}
}

// checkShapeIndex fails unless every template the shape index names is
// cached, initialized without error and registered under its own shape.
func checkShapeIndex(t *testing.T, c *planCache) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for shape, e := range c.shapes {
		if c.entries[e.key] != e {
			t.Fatalf("shape %q: template %s is not cached", shape, e.hash)
		}
		if e.shape != shape {
			t.Fatalf("shape %q: template %s registered as %q", shape, e.hash, e.shape)
		}
		e.mu.Lock()
		ok := e.opt != nil && e.initErr == nil
		e.mu.Unlock()
		if !ok {
			t.Fatalf("shape %q: template %s is not initialized", shape, e.hash)
		}
	}
}

// TestShapeIndexFollowsEviction: the shape index names only cached,
// initialized entries. An entry resolved but not yet initialized, one whose
// initialization failed and one the LRU bound evicted are never templates:
// a miss of the evicted entry's shape optimizes from scratch and becomes the
// next template.
func TestShapeIndexFollowsEviction(t *testing.T) {
	srv := testServer(t, Options{MaxEntries: 3})
	defer srv.Shutdown()
	sess := srv.Session()
	shapeX := func(k int) string {
		return fmt.Sprintf(`SELECT COUNT(*) FROM orders o, customer c WHERE o.o_custkey = c.c_custkey AND o.o_orderkey < %d`, k)
	}
	prepare := func(sql string, wantClone bool) *Stmt {
		t.Helper()
		st, err := sess.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if em := st.entry.snapshot(); (em.Clones == 1) != wantClone {
			t.Fatalf("%s: clones=%d, want a clone: %v", sql, em.Clones, wantClone)
		}
		checkShapeIndex(t, srv.plans)
		return st
	}
	a := prepare(shapeX(100), false)
	if n := len(srv.plans.shapes); n != 1 || srv.plans.shapes[a.entry.shape] != a.entry {
		t.Fatalf("after one miss the shape index holds %d templates, want A", n)
	}

	// Resolved, not initialized: not a template.
	q, err := sess.Prepare(shapeX(200))
	if err != nil {
		t.Fatal(err)
	}
	if srv.plans.template(a.entry.shape) != q.entry {
		t.Fatal("the newest initialized entry of the shape is not its template")
	}
	pending, _ := srv.plans.resolve(&relalg.Query{Name: "pending", Rels: q.Query().Rels, Joins: q.Query().Joins,
		Scans: []relalg.ScanPred{{Col: relalg.ColID{Rel: 0, Off: 0}, Op: relalg.CmpLT, Val: 300}}})
	checkShapeIndex(t, srv.plans)
	for _, e := range srv.plans.shapes {
		if e == pending {
			t.Fatal("an uninitialized entry is a template")
		}
	}

	// A sticky initialization error: never registered.
	bad := &relalg.Query{Name: "bad", Rels: []relalg.RelRef{{Alias: "x", Table: "no_such_table"}}}
	if _, err := sess.PrepareQuery(bad); err == nil {
		t.Fatal("prepare over a missing table succeeded")
	}
	checkShapeIndex(t, srv.plans)

	// Evict every shape-X entry with misses of other shapes.
	prepare(`SELECT COUNT(*) FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey`, false)
	prepare(`SELECT COUNT(*) FROM supplier s, nation n WHERE s.s_nationkey = n.n_nationkey`, false)
	prepare(`SELECT COUNT(*) FROM part p, partsupp ps WHERE p.p_partkey = ps.ps_partkey`, false)
	if srv.plans.template(a.entry.shape) != nil {
		t.Fatal("an evicted entry is still its shape's template")
	}
	prepare(shapeX(400), false)
	prepare(shapeX(500), true)
}

// TestConcurrentSameShapeMisses prepares statements of one join graph from
// concurrent sessions, so misses clone templates that other misses are
// registering, and compares them with a serial run on a second server. In
// the first phase the statements only prepare: each plan must cost what the
// serial run's does. In the second, half the sessions execute those
// statements, whose feedback repairs the templates, while the other half
// prepare and execute a second batch that clones them: every result must
// equal the serial run's, and once the server is quiet every entry's
// optimizer must hold a fresh optimization's cost under its own model and
// pass CheckInvariants. Run it under -race: a clone reads its template's
// state under the template's mu, which the template's feedback takes to
// repair it.
func TestConcurrentSameShapeMisses(t *testing.T) {
	const n = 8
	sqls := make([]string, 2*n)
	for i := range sqls {
		from := "lineitem l, orders o, customer c"
		if i%2 == 1 {
			from = "customer c, orders o, lineitem l"
		}
		sqls[i] = fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey AND l.l_quantity < %d`, from, 3+3*i)
	}
	prepare := func(srv *Server, sql string) (*Stmt, float64) {
		st, err := srv.Session().Prepare(sql)
		if err != nil {
			t.Error(err)
			return nil, 0
		}
		return st, st.Plan().Cost
	}
	exec := func(srv *Server, sql string) map[string]int {
		st, _ := prepare(srv, sql)
		if st == nil {
			return nil
		}
		_, rows, err := execRows(st)
		if err != nil {
			t.Error(err)
			return nil
		}
		return multiset(rows)
	}

	serial := testServer(t, Options{})
	defer serial.Shutdown()
	wantCost := make([]float64, n)
	for i := range wantCost {
		var st *Stmt
		st, wantCost[i] = prepare(serial, sqls[i])
		if f := freshCost(t, serial, st); !sameCost(wantCost[i], f) {
			t.Fatalf("serial %d: cost %v, fresh %v", i, wantCost[i], f)
		}
	}
	if m := serial.Metrics(); m.FullOpts != n || m.Clones != n-1 {
		t.Fatalf("serial run: full-opts=%d clones=%d, want %d and %d", m.FullOpts, m.Clones, n, n-1)
	}
	wantRows := make([]map[string]int, 2*n)
	for i, sql := range sqls {
		wantRows[i] = exec(serial, sql)
	}

	srv := testServer(t, Options{})
	defer srv.Shutdown()
	gotCost := make([]float64, n)
	gotRows := make([]map[string]int, 2*n)
	var wg sync.WaitGroup
	for i := range gotCost {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, gotCost[i] = prepare(srv, sqls[i])
		}()
	}
	wg.Wait()
	for i := range gotCost {
		if !sameCost(gotCost[i], wantCost[i]) {
			t.Fatalf("statement %d: concurrent cost %v, serial %v", i, gotCost[i], wantCost[i])
		}
	}
	for i := range sqls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gotRows[i] = exec(srv, sqls[i])
		}()
	}
	wg.Wait()
	for i := range sqls {
		if !sameMultiset(gotRows[i], wantRows[i]) {
			t.Fatalf("statement %d: concurrent rows %v, serial %v", i, gotRows[i], wantRows[i])
		}
	}
	m := srv.Metrics()
	if m.FullOpts != 2*n || m.Clones == 0 {
		t.Fatalf("concurrent run: full-opts=%d clones=%d, want %d and some", m.FullOpts, m.Clones, 2*n)
	}
	for _, e := range srv.plans.list() {
		e.mu.Lock()
		best, _ := e.opt.BestCost()
		fresh, err := core.New(e.model, relalg.ServedSpace(), core.PruneAll)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fresh.Optimize()
		if err == nil {
			err = e.opt.CheckInvariants()
		}
		e.mu.Unlock()
		if err != nil {
			t.Fatalf("entry %s: %v", e.name, err)
		}
		if !sameCost(best, plan.Cost) {
			t.Fatalf("entry %s: cost %v, a fresh optimization under its model %v", e.name, best, plan.Cost)
		}
	}
}
