package main

import (
	"fmt"
	"strings"

	"repro/internal/aqp"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/fbstore"
	"repro/internal/relalg"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// serve-adhoc: plan-cache-miss serving. One connection sends "run <sql>" of
// structurally distinct three- to six-way TPC-H join statements — more of
// them than the bounded plan cache holds, so every op parses, misses, evicts,
// warm-starts a cost model from the statistics plane, optimizes from
// scratch, executes and feeds back. It uses the optimizer and the serving
// layer the other way from reopt-storm and serve-hot: initial optimization
// instead of repair, miss instead of hit. Bookkeeping that speeds repair but
// slows a first optimization, or a cache change that helps hits but slows
// eviction, shows here.

const (
	adhocMaxEntries  = 128
	adhocResultCache = 8 << 20
)

// fk is one foreign-key edge of the TPC-H schema, from the referencing
// ("many") table to the referenced one.
type fk struct{ from, fromCol, to, toCol string }

// adhocFKs are the edges statements grow along. Growing only from the many
// side to the one side keeps a single fact table at the root of every
// statement, so no join multiplies rows beyond the fact table's size.
var adhocFKs = []fk{
	{"lineitem", "l_orderkey", "orders", "o_orderkey"},
	{"lineitem", "l_suppkey", "supplier", "s_suppkey"},
	{"lineitem", "l_partkey", "part", "p_partkey"},
	{"orders", "o_custkey", "customer", "c_custkey"},
	{"customer", "c_nationkey", "nation", "n_nationkey"},
	{"supplier", "s_nationkey", "nation", "n_nationkey"},
	{"nation", "n_regionkey", "region", "r_regionkey"},
	{"partsupp", "ps_partkey", "part", "p_partkey"},
	{"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
}

// adhocPred is a scan-predicate template: column, operator, and the
// exclusive upper bound of its seeded constant ("date" draws a date
// literal, a word list draws a dictionary string).
type adhocPred struct {
	col, op string
	max     int64
	date    bool
	words   []string
}

var adhocPreds = map[string][]adhocPred{
	"lineitem": {{col: "l_shipdate", op: ">=", date: true}, {col: "l_shipdate", op: "<", date: true},
		{col: "l_quantity", op: "<", max: 50}, {col: "l_discount", op: ">=", max: 11},
		{col: "l_returnflag", op: "=", words: []string{"A", "N", "R"}}},
	"orders": {{col: "o_orderdate", op: "<", date: true}, {col: "o_orderdate", op: ">=", date: true},
		{col: "o_shippriority", op: "=", max: 3}},
	"customer": {{col: "c_mktsegment", op: "=", words: []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}},
		{col: "c_custkey", op: "<", max: 75}},
	"supplier": {{col: "s_suppkey", op: "<", max: 5}},
	"part":     {{col: "p_size", op: "<", max: 50}, {col: "p_size", op: ">=", max: 50}},
	"partsupp": {{col: "ps_availqty", op: "<", max: 9999}},
	"nation":   {{col: "n_regionkey", op: "<>", max: 5}},
	"region":   {{col: "r_name", op: "=", words: []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}}},
}

// adhocGroupBy lists, per table, a small-domain column worth grouping on.
var adhocGroupBy = map[string]string{
	"lineitem": "l_returnflag", "orders": "o_shippriority", "customer": "c_mktsegment",
	"part": "p_size", "nation": "n_name", "region": "r_name",
}

// adhocSum lists, per table, a column worth summing.
var adhocSum = map[string]string{"lineitem": "l_extendedprice", "partsupp": "ps_availqty", "orders": "o_custkey"}

// adhocRoots are the fact tables statements start from, in the proportion
// they are drawn.
var adhocRoots = []string{"lineitem", "lineitem", "lineitem", "orders", "partsupp"}

// adhocSQL draws the i-th statement: a fact table, two to five tables
// reached from it along foreign keys, a shuffled FROM order, one or two scan
// predicates with seeded constants, and an aggregate so the result stays
// small. The join width and the fact table follow from i, so every seed has
// the same mix of statement sizes; the seed decides everything else.
func adhocSQL(r *stats.Rand, i int) string {
	tables := []string{adhocRoots[i/4%len(adhocRoots)]}
	in := map[string]bool{tables[0]: true}
	var joins []fk
	for want := 3 + i%4; len(tables) < want; {
		var open []fk
		for _, e := range adhocFKs {
			if in[e.from] && !in[e.to] {
				open = append(open, e)
			}
		}
		if len(open) == 0 {
			break
		}
		e := open[r.Intn(len(open))]
		in[e.to] = true
		tables = append(tables, e.to)
		joins = append(joins, e)
	}
	// FROM order is part of the cache key.
	shuffle(r, len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	alias := map[string]string{}
	from := make([]string, len(tables))
	for i, t := range tables {
		alias[t] = fmt.Sprintf("t%d", i)
		from[i] = t + " " + alias[t]
	}
	var where []string
	for _, e := range joins {
		where = append(where, fmt.Sprintf("%s.%s = %s.%s", alias[e.from], e.fromCol, alias[e.to], e.toCol))
	}
	for n := 1 + r.Intn(2); n > 0; n-- {
		t := tables[r.Intn(len(tables))]
		p := adhocPreds[t][r.Intn(len(adhocPreds[t]))]
		var lit string
		switch {
		case p.date:
			d := r.Intn(2490)
			lit = fmt.Sprintf("'%04d-%02d-%02d'", 1992+d/360, d%360/30+1, d%30+1)
		case p.words != nil:
			lit = "'" + p.words[r.Intn(len(p.words))] + "'"
		default:
			lit = fmt.Sprint(1 + r.Int64n(p.max))
		}
		where = append(where, fmt.Sprintf("%s.%s %s %s", alias[t], p.col, p.op, lit))
	}
	sel, group := "COUNT(*)", ""
	if t := tables[r.Intn(len(tables))]; adhocSum[t] != "" && r.Intn(2) == 0 {
		sel += fmt.Sprintf(", SUM(%s.%s)", alias[t], adhocSum[t])
	}
	if t := tables[r.Intn(len(tables))]; adhocGroupBy[t] != "" && r.Intn(2) == 0 {
		col := alias[t] + "." + adhocGroupBy[t]
		sel, group = col+", "+sel, " GROUP BY "+col
	}
	return "SELECT " + sel + " FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ") + group
}

// adhocStatements draws n statements with pairwise-distinct plan-cache
// keys, so within a round every op misses.
func adhocStatements(seed uint64, cat *catalog.Catalog, n int) ([]string, []*relalg.Query, error) {
	r := stats.NewRand(seed ^ 0x5eed0004)
	seen := map[string]bool{}
	sqls := make([]string, 0, n)
	queries := make([]*relalg.Query, 0, n)
	for len(sqls) < n {
		sql := adhocSQL(r, len(sqls))
		q, err := parseAdhoc(sql, cat)
		if err != nil {
			return nil, nil, fmt.Errorf("generated statement %q: %w", sql, err)
		}
		if key := server.CanonicalKey(q); !seen[key] {
			seen[key] = true
			sqls = append(sqls, sql)
			queries = append(queries, q)
		}
	}
	return sqls, queries, nil
}

func parseAdhoc(sql string, cat *catalog.Catalog) (*relalg.Query, error) {
	return sqlmini.Parse(sql, cat, sqlmini.Options{Dict: tpch.Dict(), Date: tpch.Date})
}

type serveAdhoc struct {
	cfg    config
	sf     float64
	length int
	cat    *catalog.Catalog
	wire   *wire
	sw     serverWindow

	sqls     []string
	queries  []*relalg.Query
	lastRows []int64

	// The traced run re-enacts misses on a second server with the same
	// options and history, so the measured server keeps missing.
	shadow     *server.Server
	shadowSess *server.Session
	chainStats *fbstore.StatsStore
}

func newServeAdhoc(cfg config) *serveAdhoc {
	w := &serveAdhoc{cfg: cfg, sf: 0.0005, length: 1000}
	if cfg.small {
		w.sf, w.length = 0.005, 150
	}
	return w
}

func (w *serveAdhoc) shape() (int, int) { return 1, w.length }

func (w *serveAdhoc) roundsPerSecond() float64 { return 1.5 }

func (w *serveAdhoc) describe() map[string]any {
	return map[string]any{"sf": w.sf, "storage": "memory", "max_entries": adhocMaxEntries,
		"result_cache_bytes": adhocResultCache}
}

func (w *serveAdhoc) newServer() (*server.Server, error) {
	return server.New(w.cat, server.Options{
		Parallelism: 1, MaxEntries: adhocMaxEntries, ResultCacheBytes: adhocResultCache,
		Named: tpch.Queries(), Dict: tpch.Dict(), Date: tpch.Date,
	})
}

func (w *serveAdhoc) setup(sb *spanBuf) error {
	w.cat = tpch.Generate(tpch.Config{ScaleFactor: w.sf, Seed: w.cfg.seed})
	var err error
	if w.sqls, w.queries, err = adhocStatements(w.cfg.seed, w.cat, w.length); err != nil {
		return err
	}
	w.lastRows = make([]int64, w.length)
	srv, err := w.newServer()
	if err != nil {
		return err
	}
	w.sw = serverWindow{srv: srv}
	if w.wire, err = listen(srv, 1); err != nil {
		return err
	}
	// Warm-up round: fills the plan cache to its bound so every later op
	// evicts, teaches the statistics plane every fingerprint so later
	// misses warm-start, and fills the result cache to its budget.
	for pos := range w.sqls {
		if err := w.op(0, pos, nil); err != nil {
			return err
		}
	}
	if sb == nil {
		return nil
	}
	if w.shadow, err = w.newServer(); err != nil {
		return err
	}
	w.shadowSess = w.shadow.Session()
	w.chainStats = fbstore.New()
	for _, sql := range w.sqls {
		if _, err := w.shadowSess.Query(sql); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveAdhoc) op(_, pos int, _ *spanBuf) error {
	reply, err := w.wire.clients[0].do("run "+w.sqls[pos], nil)
	if err != nil {
		return err
	}
	w.lastRows[pos], err = rowCount(reply)
	return err
}

// connectedSets enumerates q's connected sub-expressions, the sets a cache
// miss fingerprints to warm-start its model from the statistics plane.
func connectedSets(q *relalg.Query) []relalg.RelSet {
	all := q.AllRels()
	var sets []relalg.RelSet
	all.ProperSubsets(func(sub relalg.RelSet) {
		if q.Connected(sub) {
			sets = append(sets, sub)
		}
	})
	return append(sets, all)
}

// enact takes the statement through a miss twice. First layer by layer,
// through the public functions a miss calls, one span each; that chain is
// what the layer shares are computed from. Then as the server does it, on
// the shadow server, for the serving layer's own overheads; those spans are
// kept out of the shares so the two accounts are not added together.
func (w *serveAdhoc) enact(_, pos int, sb *spanBuf) error {
	sql := w.sqls[pos]
	sb.begin("sqlmini.parse")
	q, err := parseAdhoc(sql, w.cat)
	sb.end()
	if err != nil {
		return err
	}
	sb.begin("server.canonical_key")
	server.CanonicalKey(q)
	sb.end()
	sb.begin("relalg.fingerprint")
	fp := relalg.NewFingerprinter(q)
	sets := connectedSets(q)
	for _, s := range sets {
		fp.Fingerprint(s)
	}
	sb.end()
	sb.begin("cost.model_build")
	m, err := cost.NewModel(q, w.cat, cost.DefaultParams())
	sb.end()
	if err != nil {
		return err
	}
	sb.begin("fbstore.warm_start")
	cal := aqp.NewSharedCalibrator(w.chainStats, fp.Fingerprint, true, 0)
	cal.WarmStart(m, sets)
	sb.end()
	sb.begin("core.optimize")
	var plan *relalg.Plan
	o, err := core.New(m, relalg.DefaultSpace(), core.PruneAll)
	if err == nil {
		plan, err = o.Optimize()
	}
	sb.end()
	if err != nil {
		return err
	}
	sb.begin("exec.compile")
	comp := &exec.Compiler{Q: q, Cat: w.cat, Parallelism: 1}
	v, rs, err := comp.CompileVec(plan)
	sb.end()
	if err != nil {
		return err
	}
	sb.begin("exec.run")
	_, err = exec.CountVec(v)
	sb.end()
	if err != nil {
		return err
	}
	sb.begin("aqp.observe")
	cal.Observe(rs.Snapshot(), m)
	sb.end()

	sb.begin("shadow.prepare_miss")
	st, err := w.shadowSess.Prepare(sql)
	sb.end()
	if err != nil {
		return err
	}
	if st.Hit {
		return fmt.Errorf("shadow server hit on %q", sql)
	}
	sb.begin("shadow.exec")
	res, err := st.Exec()
	if err == nil {
		sb.child("shadow.exec_run", res.Elapsed)
	}
	sb.end()
	return err
}

func (w *serveAdhoc) endRound(*spanBuf) error { return nil }

func (w *serveAdhoc) mark() { w.sw.mark() }

func (w *serveAdhoc) since(rounds int) map[string]float64 { return w.sw.since(rounds) }

// verify checks every statement's last row count, then fetches every
// statement's rows over the wire and compares their checksum, against the
// reference evaluation.
func (w *serveAdhoc) verify() (int, error) {
	failed := 0
	cl := w.wire.clients[0]
	for pos, q := range w.queries {
		want, err := reference(w.cat, q)
		if err != nil {
			return 0, err
		}
		if w.cfg.corrupt && pos == 0 {
			want.sum++
		}
		if _, err := cl.do("prepare v "+w.sqls[pos], nil); err != nil {
			return 0, err
		}
		got, err := cl.fetch("v")
		if err != nil {
			return 0, err
		}
		if got != want || w.lastRows[pos] != want.rows {
			if failed == 0 {
				mismatch("%q: run gave %d rows, rows gave %+v, reference %+v\n", w.sqls[pos], w.lastRows[pos], got, want)
			}
			failed++
		}
	}
	return failed, nil
}

func (w *serveAdhoc) close() error {
	var err error
	if w.wire != nil {
		err = w.wire.close()
	}
	if w.shadow != nil {
		if sErr := w.shadow.Shutdown(); err == nil {
			err = sErr
		}
	}
	return err
}

func (w *serveAdhoc) probes(rec *recorder) (map[string]float64, error) {
	out, err := optimizerProbes(w.cat)
	if err != nil {
		return nil, err
	}
	out["sqlmini.parse_us"] = medianUs(rec, "sqlmini.parse")
	out["relalg.fingerprint_us"] = medianUs(rec, "relalg.fingerprint")
	out["cost.model_build_us"] = medianUs(rec, "cost.model_build")
	out["core.optimize_us"] = medianUs(rec, "core.optimize")
	out["server.prepare_miss_us"] = medianUs(rec, "shadow.prepare_miss")
	out["server.exec_overhead_us"] = median(perOpUs(rec,
		func(us []float64) float64 { return us[0] - us[1] }, "shadow.exec", "shadow.exec_run"))
	// The wire's cost is the round trip minus the same miss in-process.
	out["server.wire_overhead_us"] = median(perOpUs(rec,
		func(us []float64) float64 { return us[0] - us[1] - us[2] }, "client.op", "shadow.prepare_miss", "shadow.exec"))
	return out, nil
}
