package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/server"
	"repro/internal/volcano"
)

// What the two serving workloads share: a listener serving the line
// protocol on loopback TCP, closed-loop protocol clients, the
// order-independent result checksum, the independent reference evaluation,
// and the window over server.Metrics.

// wire is a server listening on loopback plus its connected clients.
type wire struct {
	srv     *server.Server
	ln      net.Listener
	served  chan error
	clients []*client
}

// listen starts srv.ServeListener on an ephemeral loopback port and
// connects n clients.
func listen(srv *server.Server, n int) (*wire, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &wire{srv: srv, ln: ln, served: make(chan error, 1)}
	go func() { w.served <- srv.ServeListener(ln) }()
	for i := 0; i < n; i++ {
		c, err := dial(ln.Addr().String())
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, c)
	}
	return w, nil
}

// close hangs up the clients, stops the listener, waits for the accept loop
// to return, and drains the server (which flushes a disk-backed catalog).
func (w *wire) close() error {
	for _, c := range w.clients {
		c.conn.Close()
	}
	w.ln.Close()
	if err := <-w.served; err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return w.srv.Shutdown()
}

// client is one protocol connection: strictly request, then reply.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriter(conn)}
	if _, err := c.reply(nil); err != nil { // the greeting
		conn.Close()
		return nil, err
	}
	return c, nil
}

// do sends one command and returns the text after "ok " of its reply;
// continuation lines ("row ...") go to onLine.
func (c *client) do(cmd string, onLine func(string)) (string, error) {
	if _, err := c.w.WriteString(cmd); err != nil {
		return "", err
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.reply(onLine)
}

func (c *client) reply(onLine func(string)) (string, error) {
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return "", err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "ok"):
			return strings.TrimPrefix(line[2:], " "), nil
		case strings.HasPrefix(line, "err"):
			return "", fmt.Errorf("server: %s", strings.TrimPrefix(line[3:], " "))
		case onLine != nil:
			onLine(line)
		}
	}
}

// rowCount extracts N from an "rows=N version=..." reply.
func rowCount(reply string) (int64, error) {
	rest, ok := strings.CutPrefix(reply, "rows=")
	if !ok {
		return 0, fmt.Errorf("reply %q carries no row count", reply)
	}
	field, _, _ := strings.Cut(rest, " ")
	return strconv.ParseInt(field, 10, 64)
}

// answer is a result set reduced to what the check compares.
type answer struct {
	rows int64
	sum  uint64
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// add folds one row into the checksum. Rows are summed, so row order does
// not matter; so are the mixed values within a row, because the column
// order of an un-aggregated join result follows the join order of whichever
// plan produced it.
func (a *answer) add(row []int64) {
	var h uint64
	for _, v := range row {
		h += mix(uint64(v))
	}
	a.rows++
	a.sum += mix(h)
}

// fetch executes a prepared statement with "rows" and checksums the reply.
func (c *client) fetch(stmt string) (answer, error) {
	var a answer
	var bad error
	var row []int64
	reply, err := c.do("rows "+stmt, func(line string) {
		rest, ok := strings.CutPrefix(line, "row ")
		if !ok {
			return
		}
		row = row[:0]
		for _, f := range strings.Fields(rest) {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				bad = err
			}
			row = append(row, v)
		}
		a.add(row)
	})
	if err != nil {
		return a, err
	}
	if bad != nil {
		return a, bad
	}
	if n, err := rowCount(reply); err != nil || n != a.rows {
		return a, fmt.Errorf("reply %q after %d row lines", reply, a.rows)
	}
	return a, nil
}

// reference evaluates q independently of everything the server caches: a
// fresh model over cat, the Volcano baseline's plan, serial execution, no
// plan, statistics or result cache.
func reference(cat *catalog.Catalog, q *relalg.Query) (answer, error) {
	var a answer
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		return a, err
	}
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		return a, err
	}
	comp := &exec.Compiler{Q: q, Cat: cat, Parallelism: 1}
	v, _, err := comp.CompileVec(vr.Plan)
	if err != nil {
		return a, err
	}
	rows, err := exec.DrainVec(v)
	if err != nil {
		return a, err
	}
	for _, r := range rows {
		a.add(r)
	}
	return a, nil
}

// serverWindow reads server.Metrics deltas for the per-layer metrics.
type serverWindow struct {
	srv    *server.Server
	marked server.Metrics
}

func (sw *serverWindow) mark() { sw.marked = sw.srv.Metrics() }

// since reports the counters per round over the window. The queue-wait and
// peak-memory digests are cumulative histograms, reported as they stand.
func (sw *serverWindow) since(rounds int) map[string]float64 {
	m, m0 := sw.srv.Metrics(), sw.marked
	n := float64(rounds)
	out := map[string]float64{
		"server.execs":             float64(m.Execs-m0.Execs) / n,
		"server.plan_hits":         float64(m.Hits-m0.Hits) / n,
		"server.plan_misses":       float64(m.Misses-m0.Misses) / n,
		"server.evictions":         float64(m.Evictions-m0.Evictions) / n,
		"server.fullopts":          float64(m.FullOpts-m0.FullOpts) / n,
		"server.repairs":           float64(m.Repairs-m0.Repairs) / n,
		"server.repair_ms_total":   float64(m.RepairTime-m0.RepairTime) / 1e6 / n,
		"server.queue_wait_p99_ms": float64(m.QueueWait.P99) / 1e6,
		"exec.peak_tracked_mb_p99": float64(m.PeakMem.P99) / (1 << 20),
		"rescache.evictions":       float64(m.ResultCache.Evictions-m0.ResultCache.Evictions) / n,
		"rescache.bytes":           float64(m.ResultCache.Bytes),
		"rescache.hit_ratio":       0,
		"fbstore.warm_seeds":       float64(m.WarmSeeds-m0.WarmSeeds) / n,
	}
	if probes := (m.ResultCache.Hits - m0.ResultCache.Hits) + (m.ResultCache.Misses - m0.ResultCache.Misses); probes > 0 {
		out["rescache.hit_ratio"] = float64(m.ResultCache.Hits-m0.ResultCache.Hits) / float64(probes)
	}
	return out
}

// perOpUs returns, for every traced op that recorded all the named spans,
// their durations in microseconds in the order named, through fn.
func perOpUs(rec *recorder, fn func(us []float64) float64, names ...string) []float64 {
	type key struct{ round, op int }
	var out []float64
	for _, buf := range rec.bufs {
		byOp := map[key][]float64{}
		for _, s := range buf.spans {
			for i, name := range names {
				if s.Name != name {
					continue
				}
				k := key{s.Round, s.Op}
				if byOp[k] == nil {
					byOp[k] = make([]float64, len(names)+1)
				}
				byOp[k][i] = float64(s.End-s.Start) / 1e3
				byOp[k][len(names)]++
			}
		}
		for _, us := range byOp {
			if int(us[len(names)]) == len(names) {
				out = append(out, fn(us))
			}
		}
	}
	return out
}

// medianUs is the median duration of the named spans in microseconds.
func medianUs(rec *recorder, name string) float64 {
	return 1e3 * median(rec.durations(name))
}
