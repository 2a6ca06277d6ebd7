package server

import (
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/tpch"
)

// restartNamed is the workload replayed on both sides of a restart:
// single-table aggregation (Q1, Q6) and grouped multi-way joins (Q5, Q10).
// All four aggregate, so their output schema is fixed by the query; the
// projection-less join queries (Q3S, Q5S) emit columns in plan order, which
// two servers with different plan-cache warmup may legitimately permute.
var restartNamed = []string{"Q1", "Q6", "Q5", "Q10"}

const restartAdhoc = `SELECT o.o_orderkey, o.o_custkey FROM orders o WHERE o.o_orderkey < 500`

// execWorkload runs the restart workload once and returns one multiset per
// statement.
func execWorkload(t *testing.T, srv *Server) map[string]map[string]int {
	t.Helper()
	out := map[string]map[string]int{}
	sess := srv.Session()
	for _, name := range restartNamed {
		st, err := sess.PrepareNamed(name)
		if err != nil {
			t.Fatalf("prepare %s: %v", name, err)
		}
		_, rows, err := execRows(st)
		if err != nil {
			t.Fatalf("exec %s: %v", name, err)
		}
		out[name] = multiset(rows)
	}
	st, err := sess.Prepare(restartAdhoc)
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := execRows(st)
	if err != nil {
		t.Fatal(err)
	}
	out["adhoc"] = multiset(rows)
	return out
}

// TestStorageRestartDifferential is the persistence acceptance bar: a server
// seeded into a data directory, mutated, and flushed must serve byte-identical
// result multisets after a restart that loads the directory instead of
// regenerating — and the mutation must invalidate version-pinned cached
// results before the restart.
func TestStorageRestartDifferential(t *testing.T) {
	dir := t.TempDir()

	// In-memory baseline over identically generated data: the persistent
	// server must match it exactly before any mutation.
	want := execWorkload(t, testServer(t, Options{}))

	srv := testServer(t, Options{DataDir: dir, ResultCacheBytes: 32 << 20})
	if info := srv.StorageInfo(); info.Seeded == 0 || info.Loaded != 0 {
		t.Fatalf("first boot should seed every generated table: %+v", info)
	}
	got := execWorkload(t, srv)
	for k := range want {
		if !sameMultiset(got[k], want[k]) {
			t.Fatalf("disk-backed server diverged from in-memory baseline on %s", k)
		}
	}
	if warm := srv.ResultCache().Metrics(); warm.Stores == 0 {
		t.Fatalf("result cache not spooling on the disk-backed server: %+v", warm)
	}

	// Mutate lineitem: duplicating a row of an existing order bumps the data
	// version, so every cached result over lineitem must bypass
	// (invalidation), and the aggregates must reflect the extra row.
	li := srv.Catalog().MustTable("lineitem")
	v1 := li.DataVersion()
	if err := li.AppendRows([][]int64{testkit.Row(li, 0)}); err != nil {
		t.Fatal(err)
	}
	li.Analyze(catalog.DefaultHistogramBuckets)
	if v := li.DataVersion(); v <= v1 {
		t.Fatalf("Append did not advance the data version: %d -> %d", v1, v)
	}
	want2 := execWorkload(t, srv)
	if inv := srv.ResultCache().Metrics().Invalidations; inv == 0 {
		t.Fatal("no result-cache invalidations after Append bumped the data version")
	}
	if sameMultiset(want2["Q1"], want["Q1"]) {
		t.Fatal("mutation did not change the Q1 result; the differential would be vacuous")
	}

	_, liRows := srv.Catalog().MustTable("lineitem").ColumnSnapshot()
	liVersion := srv.Catalog().MustTable("lineitem").DataVersion()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Restart: every table loads from the directory (zero regeneration),
	// versions never regress, and the workload reproduces the post-mutation
	// truth exactly — including the appended customer row.
	srv2 := testServer(t, Options{DataDir: dir, ResultCacheBytes: 32 << 20})
	info := srv2.StorageInfo()
	if info.Loaded == 0 || info.Seeded != 0 {
		t.Fatalf("restart regenerated instead of loading: %+v", info)
	}
	if _, n := srv2.Catalog().MustTable("lineitem").ColumnSnapshot(); n != liRows {
		t.Fatalf("lineitem rows across restart: %d, want %d", n, liRows)
	}
	if v := srv2.Catalog().MustTable("lineitem").DataVersion(); v < liVersion {
		t.Fatalf("data version regressed across restart: %d -> %d", liVersion, v)
	}
	got2 := execWorkload(t, srv2)
	for k := range want2 {
		if !sameMultiset(got2[k], want2[k]) {
			t.Fatalf("restarted server diverged from pre-shutdown truth on %s", k)
		}
	}
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Shutdown (and its flush) must be idempotent.
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenHoldsOneCopy pins what a reopen costs and where the loaded rows
// land. A database of several segments per clustered table plus an
// unflushed log tail is closed without a final flush and reopened into a
// token catalog (as a restarted server does). The reopened tables must hold
// the pre-shutdown columns value for value — each segment decoded at its
// offset, the log's rows after the last — and the heap may grow by at most
// 1.3x the data's own size (8 B a cell): one copy, no row-major mirror
// beside it. The same ceiling must hold after the first append to the
// exactly-sized loaded snapshot, which copies every column into a grown
// array; a growth policy that doubles breaks it.
//
// Mutation check (PR 18; unmutated 1.00x at open, 1.23x after the append):
// rebuilding a row mirror from the snapshot in BindDir measured 2.41x at
// open, growCap's former doubling 1.94x after the append; both fail. So
// does replaying the log one row early (the column comparison).
func TestOpenHoldsOneCopy(t *testing.T) {
	dir := t.TempDir()
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 5})
	if _, err := cat.BindDir(dir, 0); err != nil {
		t.Fatal(err)
	}
	flush := func() {
		for _, name := range cat.Names() {
			tb := cat.MustTable(name)
			if err := tb.Store().Flush(tb.DataVersion()); err != nil {
				t.Fatal(err)
			}
		}
	}
	orders, li := cat.MustTable("orders"), cat.MustTable("lineitem")
	nextKey := int64(orders.NumRows)
	// appendOrders adds n new orders, two lines each, under fresh ascending
	// keys: arrival order is key order, so a flushed segment's clustered
	// sort keeps every row where the snapshot had it.
	appendOrders := func(n int) {
		var os, ls [][]int64
		for i := 0; i < n; i++ {
			o, l := testkit.Row(orders, i), testkit.Row(li, i)
			o[0], l[0] = nextKey, nextKey
			os, ls = append(os, o), append(ls, l, slices.Clone(l))
			nextKey++
		}
		if err := orders.AppendRows(os); err != nil {
			t.Fatal(err)
		}
		if err := li.AppendRows(ls); err != nil {
			t.Fatal(err)
		}
	}
	flush()
	for k := 0; k < 3; k++ {
		appendOrders(300)
		flush()
	}
	appendOrders(100) // stays in the log
	want := map[string][][]int64{}
	var cells, rows int
	for _, name := range cat.Names() {
		tb := cat.MustTable(name)
		cols, n := tb.ColumnSnapshot()
		for _, col := range cols {
			want[name] = append(want[name], col[:n])
		}
		cells, rows = cells+n*len(cols), rows+n
		if err := tb.Store().Close(); err != nil {
			t.Fatal(err)
		}
	}

	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	reopened := tpch.Generate(tpch.Config{ScaleFactor: 1e-4, Seed: 1})
	before := heap()
	sum, err := reopened.BindDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	grew := heap() - before
	if sum.Loaded != len(want) || sum.Rows != rows {
		t.Fatalf("reopen loaded %+v, want %d tables of %d rows", sum, len(want), rows)
	}
	ceiling := func(cells int) int64 { return int64(1.3 * 8 * float64(cells)) }
	t.Logf("open: heap grew %d B for %d B of data (%.2fx)", grew, 8*cells, float64(grew)/float64(8*cells))
	if grew > ceiling(cells) {
		t.Fatalf("open grew the heap by %d B for %d B of data: more than one copy is held", grew, 8*cells)
	}
	for name, cols := range want {
		got, n := reopened.MustTable(name).ColumnSnapshot()
		for c := range cols {
			if !slices.Equal(got[c][:n], cols[c]) {
				t.Fatalf("%s column %d differs across the reopen (%d rows, want %d)", name, c, n, len(cols[c]))
			}
		}
	}

	// The first append after open grows every column of the two tables.
	cat, orders, li = reopened, reopened.MustTable("orders"), reopened.MustTable("lineitem")
	appendOrders(100)
	cells += 100*len(orders.ColNames) + 200*len(li.ColNames)
	grew = heap() - before
	t.Logf("first append: heap grew %d B for %d B of data (%.2fx)", grew, 8*cells, float64(grew)/float64(8*cells))
	if grew > ceiling(cells) {
		t.Fatalf("after the first append the heap holds %d B for %d B of data: growth headroom too large", grew, 8*cells)
	}
	runtime.KeepAlive(want)
	if err := reopened.FlushDir(); err != nil {
		t.Fatal(err)
	}
}

// TestStorageConcurrentAppendExec is the mutation-safety race test: a writer
// appends rows to a table while reader goroutines execute queries over it.
// Under -race this catches any executor reading columns an Append reallocated
// — the hazard the atomic snapshot swap in storage.Store closes. (Analyze
// stays out of the writer loop: it reads a snapshot and is safe beside
// appends, but it republishes statistics the planner reads unsynchronized.)
// Afterwards a quiesced execution must match a fresh serial baseline over the
// final data.
func TestStorageConcurrentAppendExec(t *testing.T) {
	srv := testServer(t, Options{MaxConcurrent: 4, ResultCacheBytes: 8 << 20})
	cust := srv.Catalog().MustTable("customer")
	tmpl := testkit.Row(cust, 0)
	ckey := cust.MustCol("c_custkey")

	var stop atomic.Bool
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; !stop.Load(); i++ {
			row := append([]int64(nil), tmpl...)
			row[ckey] = int64(1<<20 + i)
			if err := cust.AppendRows([][]int64{row}); err != nil {
				t.Errorf("concurrent append: %v", err)
				return
			}
		}
	}()

	names := []string{"Q3S", "Q10", "Q6"}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			sess := srv.Session()
			for r := 0; r < 12; r++ {
				st, err := sess.PrepareNamed(names[(g+r)%len(names)])
				if err != nil {
					t.Errorf("g%d r%d prepare: %v", g, r, err)
					return
				}
				if _, err := st.Exec(); err != nil {
					t.Errorf("g%d r%d exec: %v", g, r, err)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	stop.Store(true)
	writer.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: the server's result over the mutated table must equal a
	// fresh serial optimize+execute over the same catalog. Q10 aggregates,
	// so its output schema is plan-independent.
	cust.Analyze(0)
	st, err := srv.Session().PrepareNamed("Q10")
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := execRows(st)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(multiset(rows), serialBaseline(t, srv.Catalog(), srv.opts.Named["Q10"])) {
		t.Fatal("post-quiesce result diverged from the serial baseline over mutated data")
	}
}

// zoneStatements are the statements TestSegScanZonePruningDifferential
// checks on the disk store: each has a predicate on lineitem's clustered
// column, l_orderkey, selective (< 400, in the first segment), beyond every
// seeded key (> maxKey) and under a join.
func zoneStatements(maxKey int64) []string {
	return []string{
		`SELECT l.l_orderkey, l.l_quantity, l.l_extendedprice FROM lineitem l WHERE l.l_orderkey < 400`,
		`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l WHERE l.l_orderkey > ` + itoa(maxKey),
		`SELECT o.o_orderkey, l.l_quantity FROM orders o, lineitem l
		   WHERE o.o_orderkey = l.l_orderkey AND l.l_orderkey < 400`,
	}
}

// TestSegScanZonePruningDifferential builds a disk-backed lineitem with two
// zone-disjoint segments plus an unflushed tail, proves the store actually
// prunes, and then checks that statements with selective and non-selective
// zone predicates, whose lineitem scans read only the ranges the zone maps
// keep, return what testkit.Reference computes, served and freshly compiled.
func TestSegScanZonePruningDifferential(t *testing.T) {
	dir := t.TempDir()

	// Cycle 1: seed from the generator, flush one sorted segment per table.
	srv := testServer(t, Options{DataDir: dir})
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Cycle 2: append a strictly higher key range so the next flush writes a
	// second segment whose l_orderkey zone is disjoint from the first.
	srv = testServer(t, Options{DataDir: dir})
	li := srv.Catalog().MustTable("lineitem")
	okey := li.MustCol("l_orderkey")
	cols, n := li.ColumnSnapshot()
	maxKey := slices.Max(cols[okey][:n])
	var batch [][]int64
	for i := 0; i < 500; i++ {
		row := testkit.Row(li, i)
		row[okey] = maxKey + 1 + int64(i)
		batch = append(batch, row)
	}
	if err := li.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	li.Analyze(0)
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Cycle 3: load both segments, append an unflushed tail, and test.
	srv = testServer(t, Options{DataDir: dir})
	defer srv.Shutdown()
	li = srv.Catalog().MustTable("lineitem")
	tail := testkit.Row(li, 0)
	tail[okey] = maxKey + 1000
	if err := li.AppendRows([][]int64{tail}); err != nil {
		t.Fatal(err)
	}
	li.Analyze(0)

	st := li.Store()
	if zc := li.ZoneCols(); len(zc) != 1 || zc[0] != okey {
		t.Fatalf("lineitem zone cols = %v, want [%d]", zc, okey)
	}

	// Storage level: a predicate selecting only the low key range must skip
	// the high segment entirely.
	it := st.Scan([]storage.Pred{{Col: okey, Op: storage.CmpLT, Val: 200}}, 0)
	scanned := 0
	for {
		_, n, ok := it.Next()
		if !ok {
			break
		}
		scanned += n
	}
	pruned := it.PrunedRows()
	it.Release()
	if pruned == 0 {
		t.Fatal("zone maps pruned nothing for a range hitting only the first segment")
	}
	if _, total := li.ColumnSnapshot(); scanned+pruned != total {
		t.Fatalf("scanned %d + pruned %d != %d rows", scanned, pruned, total)
	}

	// Every statement's served rows and a fresh tree's rows and counts must
	// equal the reference's over the same tables.
	for _, sql := range zoneStatements(maxKey) {
		stmt, err := srv.Session().Prepare(sql)
		if err != nil {
			t.Fatalf("prepare %q: %v", sql, err)
		}
		fresh := checkFresh(t, sql, srv, stmt.Query(), stmt.Plan())
		_, rows, err := execRows(stmt)
		if err != nil {
			t.Fatalf("exec %q: %v", sql, err)
		}
		if !sameMultiset(multiset(rows), fresh.rows) {
			t.Fatalf("%q: served rows differ from the reference's", sql)
		}
	}
}

// TestZonePredicateCostsPinned: on the seeded disk store a table scan is
// priced by the fraction of rows zone pruning leaves, so every zone-predicate
// statement of TestSegScanZonePruningDifferential and
// TestCloneLeafGuardOnDiskStore costs what its plan cost when a segment scan
// competed with the table scan as an access path (the pinned values), and
// less than on the in-memory store, where nothing is pruned.
func TestZonePredicateCostsPinned(t *testing.T) {
	disk := testServer(t, Options{DataDir: t.TempDir()})
	defer disk.Shutdown()
	mem := testServer(t, Options{})
	li := disk.Catalog().MustTable("lineitem")
	cols, n := li.ColumnSnapshot()
	maxKey := slices.Max(cols[li.MustCol("l_orderkey")][:n])
	sqls := append(zoneStatements(maxKey),
		`SELECT COUNT(*) FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND l.l_orderkey < 400`,
		`SELECT COUNT(*) FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey AND l.l_orderkey < 900`)
	pinned := []float64{52.78675491181931, 23.025996093750003, 202.86312867419554, 202.86312867419554, 313.14130859374995}
	for i, sql := range sqls {
		ds, err := disk.Session().Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := mem.Session().Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		got := ds.Plan().Cost
		if !sameCost(got, pinned[i]) {
			t.Fatalf("statement %d costs %v on the disk store, pinned %v\n%s", i, got, pinned[i], ds.Plan().Explain(ds.Query()))
		}
		if want := freshCost(t, disk, ds); !sameCost(got, want) {
			t.Fatalf("statement %d: prepared plan costs %v, a fresh optimization %v", i, got, want)
		}
		if m := ms.Plan().Cost; got >= m {
			t.Fatalf("statement %d costs %v on the disk store, not below the in-memory %v", i, got, m)
		}
	}
}

// itoa formats an int64 without pulling strconv into the test imports twice.
func itoa(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestMetricsFreshServerNoNaN: a server that has executed nothing must render
// finite numbers everywhere — the JSON snapshot and the Prometheus text both
// contain no NaN (empty histograms report zero quantiles).
func TestMetricsFreshServerNoNaN(t *testing.T) {
	srv := testServer(t, Options{ResultCacheBytes: 1 << 20})
	b, err := json.Marshal(srv.Metrics())
	if err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if s := string(b); strings.Contains(s, "NaN") {
		t.Fatalf("fresh-server metrics JSON contains NaN:\n%s", s)
	}
	var sb strings.Builder
	srv.WriteProm(&sb)
	text := sb.String()
	if strings.Contains(text, "NaN") || strings.Contains(text, "nan") {
		t.Fatalf("fresh-server prom text contains NaN:\n%s", text)
	}
	for _, want := range []string{"repro_exec_latency_seconds_p99 0", "repro_execs_total 0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("fresh-server prom text missing %q:\n%s", want, text)
		}
	}
}
