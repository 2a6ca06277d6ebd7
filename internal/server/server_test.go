package server

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/tpch"
)

func testCatalog() *catalog.Catalog {
	return tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42, Skew: 0.5})
}

func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Dict == nil {
		opts.Dict = tpch.Dict()
		opts.Date = tpch.Date
	}
	if opts.Named == nil {
		opts.Named = tpch.Queries()
	}
	srv, err := New(testCatalog(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// multiset renders a result set order-insensitively.
func multiset(rows []exec.Row) map[string]int {
	m := map[string]int{}
	for _, r := range rows {
		m[fmt.Sprint([]int64(r))]++
	}
	return m
}

// serialBaseline executes q once through a fresh optimizer and a serial
// executor — the single-session reference every concurrent result must
// match (any correct plan produces the same multiset).
// execRows executes st through ExecInto with a sink that collects its rows,
// and holds the count the execution reports to what the sink saw.
func execRows(st *Stmt) (*Result, []exec.Row, error) {
	var rows []exec.Row
	res, err := st.ExecInto(func(b *exec.Batch) error {
		rows = exec.AppendRows(rows, b)
		return nil
	})
	if err == nil && res.Rows != int64(len(rows)) {
		err = fmt.Errorf("the execution reports %d rows, its sink saw %d", res.Rows, len(rows))
	}
	return res, rows, err
}

func serialBaseline(t *testing.T, cat *catalog.Catalog, q *relalg.Query) map[string]int {
	t.Helper()
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.New(m, relalg.DefaultSpace(), core.PruneAll)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	comp := &exec.Compiler{Q: q, Cat: cat}
	v, _, err := comp.CompileVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.DrainVec(v)
	if err != nil {
		t.Fatal(err)
	}
	return multiset(rows)
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

func TestCanonicalKeyNormalizesSpelling(t *testing.T) {
	srv := testServer(t, Options{})
	sess := srv.Session()

	a, err := sess.Prepare(`SELECT c.c_custkey FROM customer c, orders o
		WHERE c.c_mktsegment = 'MACHINERY' AND c.c_custkey = o.o_custkey`)
	if err != nil {
		t.Fatal(err)
	}
	// Different aliases, reordered predicates, flipped join direction.
	b, err := sess.Prepare(`SELECT cust.c_custkey FROM customer cust, orders ord
		WHERE ord.o_custkey = cust.c_custkey AND cust.c_mktsegment = 'MACHINERY'`)
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheKey() != b.CacheKey() {
		t.Fatalf("spelling variants got distinct keys:\n%s\n%s", a.CacheKey(), b.CacheKey())
	}
	if a.Hit || !b.Hit {
		t.Fatalf("expected miss-then-hit, got %v then %v", a.Hit, b.Hit)
	}
	if a.entry != b.entry {
		t.Fatal("equal keys did not share the cache entry")
	}

	// A different literal is a different structure.
	c, err := sess.Prepare(`SELECT c.c_custkey FROM customer c, orders o
		WHERE c.c_mktsegment = 'BUILDING' AND c.c_custkey = o.o_custkey`)
	if err != nil {
		t.Fatal(err)
	}
	if c.CacheKey() == a.CacheKey() {
		t.Fatal("different literal collided with the cached structure")
	}
}

func TestPreparedAcrossSessionsSharesOptimizer(t *testing.T) {
	srv := testServer(t, Options{})
	s1, s2 := srv.Session(), srv.Session()

	st1, err := s1.PrepareNamed("Q3S")
	if err != nil {
		t.Fatal(err)
	}
	if st1.Hit {
		t.Fatal("first prepare reported a cache hit")
	}
	// Session 1 executes until the entry converges.
	for i := 0; i < 4; i++ {
		if _, err := st1.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	v1 := st1.entry.cur.Load().version

	// Session 2 binds the same structure: it must get the repaired plan
	// without paying any optimization.
	st2, err := s2.PrepareNamed("Q3S")
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Hit {
		t.Fatal("second session missed the cache")
	}
	if st2.entry != st1.entry {
		t.Fatal("sessions did not share the cache entry")
	}
	res, err := st2.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanVersion != v1 {
		t.Fatalf("session 2 executed plan v%d, want the repaired v%d", res.PlanVersion, v1)
	}

	m := srv.Metrics()
	if m.FullOpts != 1 {
		t.Fatalf("full optimizations = %d, want exactly 1 for one cached structure", m.FullOpts)
	}
	if m.Repairs < 1 {
		t.Fatal("no incremental repairs recorded")
	}
}

// TestServeConcurrentStress is the race-shard workhorse: many goroutines
// hammer one server over a mixed hot/cold query set. Every result multiset
// must match the serial single-session baseline, cached entries must be
// repaired incrementally (repair count > 0, and exactly one from-scratch
// optimization per entry), and entry plans must converge after warmup.
func TestServeConcurrentStress(t *testing.T) {
	hot := []string{"Q3S", "Q5", "Q10"}
	cold := []string{"Q1", "Q6", "Q5S"}

	srv := testServer(t, Options{MaxConcurrent: 4})
	baselines := map[string]map[string]int{}
	for _, name := range append(append([]string{}, hot...), cold...) {
		baselines[name] = serialBaseline(t, srv.Catalog(), srv.opts.Named[name])
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
				name := hot[(g+r)%len(hot)]
				if (g+r)%5 == 0 {
					name = cold[(g+r)%len(cold)] // occasional cold query
				}
				st, err := sess.PrepareNamed(name)
				if err != nil {
					t.Errorf("g%d r%d prepare %s: %v", g, r, name, err)
					return
				}
				_, rows, err := execRows(st)
				if err != nil {
					t.Errorf("g%d r%d exec %s: %v", g, r, name, err)
					return
				}
				if !sameMultiset(multiset(rows), baselines[name]) {
					t.Errorf("g%d r%d: %s result diverged from serial baseline (%d rows)",
						g, r, name, len(rows))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Warmup is over: every further execution must reuse the converged
	// plan — no repair, no from-scratch re-optimization, stable version.
	sess := srv.Session()
	before := srv.Metrics()
	for _, name := range hot {
		st, err := sess.PrepareNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Hit {
			t.Fatalf("%s missed the cache after the stress run", name)
		}
		v0 := st.entry.cur.Load().version
		for i := 0; i < 2; i++ {
			res, rows, err := execRows(st)
			if err != nil {
				t.Fatal(err)
			}
			if res.Repaired {
				t.Errorf("%s still repairing after warmup (exec %d)", name, i)
			}
			if !sameMultiset(multiset(rows), baselines[name]) {
				t.Errorf("%s post-warmup result diverged", name)
			}
		}
		if v := st.entry.cur.Load().version; v != v0 {
			t.Errorf("%s plan did not converge: version moved %d -> %d", name, v0, v)
		}
	}
	after := srv.Metrics()
	if after.FullOpts != before.FullOpts {
		t.Errorf("from-scratch re-optimizations after warmup: %d", after.FullOpts-before.FullOpts)
	}

	for _, em := range after.PerEntry {
		if em.FullOpts != 1 {
			t.Errorf("entry %s: %d full optimizations, want exactly 1", em.Query, em.FullOpts)
		}
	}
	// The hot entries saw skewed data: their feedback must have repaired
	// the cached plan incrementally at least once.
	var hotRepairs int64
	for _, em := range after.PerEntry {
		for _, name := range hot {
			if em.Query == name {
				hotRepairs += em.Repairs
			}
		}
	}
	if hotRepairs == 0 {
		t.Error("no incremental repairs across the hot set")
	}
	if after.Misses != int64(len(hot)+len(cold)) {
		t.Errorf("misses = %d, want one per distinct structure (%d)",
			after.Misses, len(hot)+len(cold))
	}
	if want := int64(goroutines*rounds + 2*len(hot)); after.Execs != want || after.Execs != after.Converged+after.Repairs {
		t.Errorf("execs = %d (want %d), converged %d + repairs %d: every execution is counted once and its feedback either converged or repaired",
			after.Execs, want, after.Converged, after.Repairs)
	}
}

// TestProtoSessionRoundTrip drives one wire session through every verb that
// executes: rows before and after the repair its first execution feeds back,
// exec, analyze and run. Every reply but the reports ("| " lines), with
// elapsed= masked, must equal the golden transcript, which the executor's
// drain recorded before rows streamed from a sink; each rows reply's row
// lines must be the serial baseline's multiset, as many as its ok rows=.
func TestProtoSessionRoundTrip(t *testing.T) {
	srv := testServer(t, Options{})

	var out strings.Builder
	script := strings.Join([]string{
		"query q3 Q3S",
		"rows q3",
		"exec q3",
		"analyze q3",
		"explain q3",
		"rows q3",
		"rows nope",
		"run SELECT c.c_custkey FROM customer c WHERE c.c_mktsegment = 'MACHINERY'",
		"names",
		"metrics",
		"bogus",
		"quit",
	}, "\n") + "\n"
	if err := srv.ServeConn(&rwPair{r: strings.NewReader(script), w: &out}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"repaired=true",
		"| HashJoin", // explain renders an operator tree
		"| EXPLAIN ANALYZE",
		"misses=2", // Q3S + the ad-hoc run
	} {
		if !strings.Contains(got, want) {
			t.Errorf("protocol transcript missing %q:\n%s", want, got)
		}
	}

	elapsed := regexp.MustCompile(`elapsed=\S+`)
	var masked strings.Builder
	base := serialBaseline(t, srv.Catalog(), tpch.Q3S())
	var rows []string
	streams := 0
	for _, l := range strings.SplitAfter(got, "\n") {
		if l == "" || strings.HasPrefix(l, "| ") {
			continue
		}
		masked.WriteString(elapsed.ReplaceAllString(l, "elapsed=*"))
		if r, ok := strings.CutPrefix(l, "row "); ok {
			rows = append(rows, "["+strings.TrimSuffix(r, "\n")+"]")
			continue
		}
		if len(rows) > 0 {
			m := map[string]int{}
			for _, r := range rows {
				m[r]++
			}
			if want := fmt.Sprintf("ok rows=%d ", len(rows)); !strings.HasPrefix(l, want) || !sameMultiset(m, base) {
				t.Errorf("%d row lines, then %q: not the serial baseline's rows, or not %q", len(rows), l, want)
			}
			rows, streams = nil, streams+1
		}
	}
	if streams != 2 {
		t.Errorf("%d rows replies streamed rows, want 2", streams)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "proto_transcript.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if masked.String() != string(golden) {
		t.Errorf("the transcript differs from testdata/proto_transcript.golden:\n%s", masked.String())
	}
}

// rwPair glues a reader and writer into an io.ReadWriter for ServeConn.
type rwPair struct {
	r *strings.Reader
	w *strings.Builder
}

func (p *rwPair) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p *rwPair) Write(b []byte) (int, error) { return p.w.Write(b) }
