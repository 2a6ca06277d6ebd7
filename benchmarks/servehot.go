package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// serve-hot: the steady state of a deployed server. TPC-H on the
// log-structured disk backend — seeded, flushed, shut down and recovered
// from its directory during set-up — serves prepared named statements over
// loopback TCP to two closed-loop connections. Every op is a plan-cache hit:
// the optimizer idles after convergence and executor, storage read path and
// wire protocol do the work. Between rounds a batch of new orders is
// appended through the WAL (timed as a span, not as an op: fsync latency on
// a shared disk does not repeat), so reads run over segments plus a log
// tail.

// hotStatements are the executed statements in Zipf rank order. Q8Join and
// Q8JoinS are prepared, so their plans sit in the cache, but never executed:
// one execution takes over a second and 700 MB at this scale.
var hotStatements = []string{"Q1", "Q3S", "Q5", "Q5S", "Q6", "Q10"}

const (
	hotClients     = 2
	hotZipf        = 1.2
	hotWarmExecs   = 4  // executions of each statement per client in set-up
	hotSeedChunks  = 3  // extra flushed segments of new orders written while seeding
	hotBatchOrders = 64 // new orders appended between rounds (~256 lineitem rows)
)

// orderBatch is a set of new orders with their lineitems.
type orderBatch struct{ orders, lineitems [][]int64 }

type serveHot struct {
	cfg    config
	sf     float64
	length int
	dir    string
	wire   *wire
	sw     serverWindow
	sess   []*server.Session // in-process sessions the traced run re-enacts ops through

	sched    [][]int   // per client: index into hotStatements per position
	lastRows [][]int64 // per client: row count each position's last execution returned

	gen        *stats.Rand  // draws the appended orders
	nextKey    int64        // next unused order key
	firstNew   int64        // first order key written after the initial seed
	applied    []orderBatch // every batch appended so far, for the reference copy
	tracedRows int          // rows appended under a storage.append span
}

func newServeHot(cfg config) *serveHot {
	w := &serveHot{cfg: cfg, sf: 0.02, length: 600}
	if cfg.small {
		w.sf, w.length = 0.005, 40
	}
	return w
}

func (w *serveHot) shape() (int, int) { return hotClients, w.length }

func (w *serveHot) roundsPerSecond() float64 { return 1 }

func (w *serveHot) describe() map[string]any {
	return map[string]any{"sf": w.sf, "storage": "disk (seed, flush, reopen)", "result_cache": "off",
		"statement_mix": fmt.Sprintf("Zipf(%.1f) over %v", hotZipf, hotStatements)}
}

func (w *serveHot) tpchConfig() tpch.Config {
	return tpch.Config{ScaleFactor: w.sf, Seed: w.cfg.seed}
}

// newOrders draws n new orders and their lineitems with the generator's
// distributions, keyed from w.nextKey on.
func (w *serveHot) newOrders(cat *catalog.Catalog, n int) orderBatch {
	nCust := int64(cat.MustTable("customer").NumRows)
	nPart := int64(cat.MustTable("part").NumRows)
	nSupp := int64(cat.MustTable("supplier").NumRows)
	maxDate := tpch.Date(1998, 12, 1)
	var b orderBatch
	for i := 0; i < n; i++ {
		key := w.nextKey
		w.nextKey++
		odate := w.gen.Int64n(maxDate)
		b.orders = append(b.orders, []int64{key, w.gen.Int64n(nCust), odate, w.gen.Int64n(3)})
		for j := 1 + w.gen.Intn(7); j > 0; j-- {
			b.lineitems = append(b.lineitems, []int64{
				key, w.gen.Int64n(nPart), w.gen.Int64n(nSupp), odate + 1 + w.gen.Int64n(120),
				1 + w.gen.Int64n(50), 100 + w.gen.Int64n(100000), w.gen.Int64n(11),
				w.gen.Int64n(tpch.NumFlags), w.gen.Int64n(2),
			})
		}
	}
	return b
}

// apply appends a batch to cat's orders and lineitem tables.
func apply(cat *catalog.Catalog, b orderBatch) error {
	if err := cat.MustTable("orders").AppendRows(b.orders); err != nil {
		return err
	}
	return cat.MustTable("lineitem").AppendRows(b.lineitems)
}

func (w *serveHot) serverOptions() server.Options {
	return server.Options{
		DataDir: w.dir, Parallelism: 1,
		Named: tpch.Queries(), Dict: tpch.Dict(), Date: tpch.Date,
	}
}

// seed writes the database: the generated tables as one segment each, then
// a few chunks of new orders, each appended through the WAL and flushed as
// its own segment so the clustered tables have several zone-mapped segments
// with disjoint key ranges.
func (w *serveHot) seed() error {
	cat := tpch.Generate(w.tpchConfig())
	w.gen = stats.NewRand(w.cfg.seed ^ 0x5eed0003)
	w.nextKey = int64(cat.MustTable("orders").NumRows)
	w.firstNew = w.nextKey
	w.applied = nil
	srv, err := server.New(cat, w.serverOptions())
	if err != nil {
		return err
	}
	flush := func() error {
		for _, name := range []string{"orders", "lineitem"} {
			t := cat.MustTable(name)
			if err := t.Store().Flush(t.DataVersion()); err != nil {
				return err
			}
		}
		return nil
	}
	if err := flush(); err != nil {
		return err
	}
	for k := 0; k < hotSeedChunks; k++ {
		b := w.newOrders(cat, int(w.firstNew)/50) // 2 % of the seeded orders
		if err := apply(cat, b); err != nil {
			return err
		}
		w.applied = append(w.applied, b)
		if err := flush(); err != nil {
			return err
		}
	}
	return srv.Shutdown()
}

// hotSchedule draws each client's seeded statement sequence: indexes into
// hotStatements in exact Zipf proportions by rank (so every seed has the
// same mix), in seeded order.
func hotSchedule(seed uint64, length int) [][]int {
	r := stats.NewRand(seed ^ 0x5eed0002)
	var total float64
	for k := range hotStatements {
		total += math.Pow(float64(k+1), -hotZipf)
	}
	sched := make([][]int, hotClients)
	for c := range sched {
		seq := make([]int, 0, length)
		var cum float64
		for k := range hotStatements {
			cum += math.Pow(float64(k+1), -hotZipf) / total
			for len(seq) < int(math.Round(cum*float64(length))) {
				seq = append(seq, k)
			}
		}
		shuffle(r, len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		sched[c] = seq
	}
	return sched
}

func (w *serveHot) setup(sb *spanBuf) error {
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.workdir, "serve-hot-*"); err != nil {
		return err
	}
	sb.begin("storage.seed_flush")
	err = w.seed()
	sb.end()
	if err != nil {
		return fmt.Errorf("seed: %w", err)
	}

	// Reboot from the directory: the catalog the process generates is a
	// schema with token rows, and the disk wins over it.
	sb.begin("storage.open")
	srv, err := server.New(tpch.Generate(tpch.Config{ScaleFactor: 1e-4, Seed: 1}), w.serverOptions())
	sb.end()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if info := srv.StorageInfo(); info.Loaded != 8 {
		return fmt.Errorf("reopen loaded %d of 8 tables from %s", info.Loaded, w.dir)
	}
	w.sw = serverWindow{srv: srv}
	if w.wire, err = listen(srv, hotClients); err != nil {
		return err
	}

	w.sched = hotSchedule(w.cfg.seed, w.length)
	w.lastRows = make([][]int64, hotClients)
	w.sess = w.sess[:0]
	for c, cl := range w.wire.clients {
		for _, name := range sortedKeys(tpch.Queries()) {
			if _, err := cl.do("query "+name+" "+name, nil); err != nil {
				return err
			}
		}
		w.lastRows[c] = make([]int64, w.length)
		w.sess = append(w.sess, srv.Session())
	}
	// Warm-up: a few executions of every statement let feedback converge
	// the cached plans, after which every timed op is a pure cache hit.
	for c := range w.wire.clients {
		for k := 0; k < hotWarmExecs; k++ {
			for s := range hotStatements {
				if _, err := w.exec(c, s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *serveHot) exec(c, stmt int) (int64, error) {
	reply, err := w.wire.clients[c].do("exec "+hotStatements[stmt], nil)
	if err != nil {
		return 0, err
	}
	return rowCount(reply)
}

func (w *serveHot) op(c, pos int, _ *spanBuf) error {
	n, err := w.exec(c, w.sched[c][pos])
	w.lastRows[c][pos] = n
	return err
}

// enact runs the same statement through an in-process session: the
// statement-handle hit, then Stmt.Exec, whose own account of its execution
// time becomes the executor's child span.
func (w *serveHot) enact(c, pos int, sb *spanBuf) error {
	name := hotStatements[w.sched[c][pos]]
	sb.begin("server.prepare_hit")
	st, err := w.sess[c].PrepareNamed(name)
	sb.end()
	if err != nil {
		return err
	}
	sb.begin("server.exec")
	res, err := st.Exec()
	if err == nil {
		sb.child("exec.run", res.Elapsed)
	}
	sb.end()
	return err
}

func (w *serveHot) endRound(sb *spanBuf) error {
	b := w.newOrders(w.sw.srv.Catalog(), hotBatchOrders)
	sb.begin("storage.append")
	err := apply(w.sw.srv.Catalog(), b)
	sb.end()
	if sb != nil {
		w.tracedRows += len(b.orders) + len(b.lineitems)
	}
	w.applied = append(w.applied, b)
	return err
}

func (w *serveHot) mark() { w.sw.mark() }

func (w *serveHot) since(rounds int) map[string]float64 { return w.sw.since(rounds) }

// verify rebuilds the data in memory — generated tables plus every appended
// batch — and checks each position's last row count (which saw all batches
// but the last) and, after applying the last batch, the checksum of every
// statement fetched over the wire.
func (w *serveHot) verify() (int, error) {
	ref := tpch.Generate(w.tpchConfig())
	last := len(w.applied) - 1
	for _, b := range w.applied[:last] {
		if err := apply(ref, b); err != nil {
			return 0, err
		}
	}
	queries := tpch.Queries()
	want := make([]int64, len(hotStatements))
	for s, name := range hotStatements {
		a, err := reference(ref, queries[name])
		if err != nil {
			return 0, err
		}
		want[s] = a.rows
	}
	if w.cfg.corrupt {
		want[0]++
	}
	failed := 0
	for c := range w.sched {
		for pos, s := range w.sched[c] {
			if w.lastRows[c][pos] != want[s] {
				if failed == 0 {
					mismatch("%s: %d rows over the wire, reference %d\n", hotStatements[s], w.lastRows[c][pos], want[s])
				}
				failed++
			}
		}
	}
	if err := apply(ref, w.applied[last]); err != nil {
		return 0, err
	}
	for _, name := range hotStatements {
		got, err := w.wire.clients[0].fetch(name)
		if err != nil {
			return 0, err
		}
		exp, err := reference(ref, queries[name])
		if err != nil {
			return 0, err
		}
		if got != exp {
			mismatch("%s: wire result %+v, reference %+v\n", name, got, exp)
			failed++
		}
	}
	return failed, nil
}

func (w *serveHot) close() error {
	var err error
	if w.wire != nil {
		err = w.wire.close()
	}
	if rmErr := os.RemoveAll(w.dir); err == nil {
		err = rmErr
	}
	return err
}

func (w *serveHot) probes(rec *recorder) (map[string]float64, error) {
	cat := w.sw.srv.Catalog()
	out, err := execProbes(cat)
	if err != nil {
		return nil, err
	}
	out["server.prepare_hit_us"] = medianUs(rec, "server.prepare_hit")
	diff := func(us []float64) float64 { return us[0] - us[1] }
	out["server.exec_overhead_us"] = median(perOpUs(rec, diff, "server.exec", "exec.run"))
	out["server.wire_overhead_us"] = median(perOpUs(rec, diff, "client.op", "server.exec"))
	out["storage.seed_flush_ms"] = median(rec.durations("storage.seed_flush"))
	out["storage.open_ms"] = median(rec.durations("storage.open"))

	var appendMs float64
	for _, d := range rec.durations("storage.append") {
		appendMs += d
	}
	out["storage.append_us_per_row"] = 1e3 * appendMs / float64(w.tracedRows)

	li := cat.MustTable("lineitem")
	store := li.Store()
	snap := store.Snapshot()
	scanMs, err := minOf(3, func() error {
		it := store.Scan(nil, 0)
		defer it.Release()
		var sum int64
		for cols, n, ok := it.Next(); ok; cols, n, ok = it.Next() {
			for _, v := range cols[4][:n] {
				sum += v
			}
		}
		probeSink = sum
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["storage.scan_rows_per_s"] = float64(snap.N) / (scanMs / 1e3)
	it := store.Scan([]storage.Pred{{Col: 0, Op: storage.CmpGE, Val: w.firstNew}}, 0)
	out["storage.segscan_pruned_ratio"] = float64(it.PrunedRows()) / float64(snap.N)
	it.Release()

	var disk, data int64
	err = filepath.WalkDir(w.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		disk += info.Size()
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, name := range cat.Names() {
		t := cat.MustTable(name)
		_, n := t.ColumnSnapshot()
		data += int64(n) * int64(len(t.ColNames)) * 8
	}
	out["storage.disk_bytes_per_data_byte"] = float64(disk) / float64(data)

	// Analyze last: it republishes every table's statistics.
	analyzeMs, err := minOf(1, func() error { cat.AnalyzeAll(catalog.DefaultHistogramBuckets); return nil })
	out["catalog.analyze_ms"] = analyzeMs
	return out, err
}

var probeSink int64

// execProbes times the executor alone on the Volcano plan of workload
// queries over cat: compile, then serial vectorized execution.
func execProbes(cat *catalog.Catalog) (map[string]float64, error) {
	out := map[string]float64{}
	queries := tpch.Queries()
	for _, name := range []string{"Q1", "Q3S", "Q5", "Q10"} {
		q := queries[name]
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			return nil, err
		}
		vr, err := volcano.Optimize(m, relalg.DefaultSpace())
		if err != nil {
			return nil, err
		}
		runOnce := func() error {
			comp := &exec.Compiler{Q: q, Cat: cat, Parallelism: 1}
			v, _, err := comp.CompileVec(vr.Plan)
			if err != nil {
				return err
			}
			_, err = exec.CountVec(v)
			return err
		}
		ms, err := minOf(5, runOnce)
		if err != nil {
			return nil, err
		}
		out["exec.run_ms."+name] = ms
		switch name {
		case "Q1":
			_, n := cat.MustTable("lineitem").ColumnSnapshot()
			out["exec.rows_per_s.Q1"] = float64(n) / (ms / 1e3)
		case "Q5":
			compileMs, err := minOf(5, func() error {
				comp := &exec.Compiler{Q: q, Cat: cat, Parallelism: 1}
				_, _, err := comp.CompileVec(vr.Plan)
				return err
			})
			if err != nil {
				return nil, err
			}
			out["exec.compile_us.Q5"] = 1e3 * compileMs
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 5
			for i := 0; i < runs; i++ {
				if err := runOnce(); err != nil {
					return nil, err
				}
			}
			runtime.ReadMemStats(&after)
			out["exec.allocs_per_op.Q5"] = float64(after.Mallocs-before.Mallocs) / runs
		}
	}
	return out, nil
}
