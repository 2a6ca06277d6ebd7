package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file implements the server's front door: a line-oriented text
// protocol, one session per connection. Requests are single lines; responses
// are one "ok ..." or "err ..." line, preceded by zero or more continuation
// lines ("row ..." for result rows, "| ..." for reports), so clients can
// drive it with a plain line reader (or a human with netcat).
//
// Commands:
//
//	prepare <stmt> <sql...>   parse SQL, bind to the shared plan cache
//	query   <stmt> <name>     bind a registered named query (Options.Named)
//	exec    <stmt>            execute; reply with the row count
//	rows    <stmt>            execute; stream result rows, then the count
//	run     <sql...>          one-shot prepare (anonymous) + exec
//	explain <stmt>            print the current cached plan
//	analyze <stmt>            execute with per-operator profiling; print the
//	                          EXPLAIN ANALYZE tree, then the row count
//	names                     list the registered named queries
//	metrics                   print the server metrics report
//	trace                     print the lifecycle event ring and slow-query
//	                          dumps (needs Options.TraceEvents or
//	                          TraceSlowQuery), as /traces does
//	quit                      close the session
type protoSession struct {
	sess  *Session
	stmts map[string]*Stmt
	w     *bufio.Writer
	wmu   sync.Mutex // guards w: concurrent handlers are not used today,
	// but the protocol layer must not interleave lines if they ever are
}

// ServeConn runs the line protocol over one connection (a TCP conn, a
// pipe, or stdin/stdout glued together). It opens one Session and blocks
// until EOF, "quit", or a transport error. Protocol-level errors (bad
// command, failed parse) are reported to the client and do not terminate
// the connection.
func (s *Server) ServeConn(rw io.ReadWriter) error {
	ps := &protoSession{
		sess:  s.Session(),
		stmts: map[string]*Stmt{},
		w:     bufio.NewWriter(rw),
	}
	ps.reply("ok repro serve session=%d (commands: prepare query exec rows run explain analyze names metrics trace quit)", ps.sess.ID)
	sc := bufio.NewScanner(rw)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !ps.handle(s, line) {
			return nil
		}
	}
	return sc.Err()
}

// ServeListener accepts connections and serves each in its own goroutine
// until the listener is closed.
func (s *Server) ServeListener(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			_ = s.ServeConn(conn)
		}()
	}
}

// line buffers one continuation line without flushing — used for row
// streams and multi-line reports, which are always terminated by a reply.
func (ps *protoSession) line(format string, args ...any) {
	ps.wmu.Lock()
	fmt.Fprintf(ps.w, format+"\n", args...)
	ps.wmu.Unlock()
}

// reply terminates a response and flushes everything buffered so far.
func (ps *protoSession) reply(format string, args ...any) {
	ps.wmu.Lock()
	fmt.Fprintf(ps.w, format+"\n", args...)
	ps.w.Flush()
	ps.wmu.Unlock()
}

// handle executes one command line; it returns false when the session
// should close.
func (ps *protoSession) handle(s *Server, line string) bool {
	verb, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch strings.ToLower(verb) {
	case "quit", "exit":
		ps.reply("ok bye")
		return false

	case "prepare", "query":
		name, text, ok := strings.Cut(rest, " ")
		text = strings.TrimSpace(text)
		if !ok || text == "" {
			ps.reply("err usage: prepare <stmt> <sql> | query <stmt> <named-query>")
			return true
		}
		prepare := ps.sess.Prepare
		if strings.EqualFold(verb, "query") {
			prepare = ps.sess.PrepareNamed
		}
		st, err := prepare(text)
		if err != nil {
			ps.reply("err %v", err)
			return true
		}
		ps.stmts[name] = st
		ps.reply("ok prepared %s cache=%s key=%s", name, hitMiss(st.Hit), keyHash(st.CacheKey()))

	case "exec", "rows":
		st, ok := ps.stmts[rest]
		if !ok {
			ps.reply("err unknown statement %q (prepare it first)", rest)
			return true
		}
		res, err := st.Exec()
		if err != nil {
			ps.reply("err %v", err)
			return true
		}
		if strings.EqualFold(verb, "rows") {
			for _, r := range res.Rows {
				ps.line("row %s", rowString(r))
			}
		}
		ps.reply("ok rows=%d version=%d repaired=%t elapsed=%v",
			len(res.Rows), res.PlanVersion, res.Repaired, res.Elapsed.Round(time.Microsecond))

	case "run":
		if rest == "" {
			ps.reply("err usage: run <sql>")
			return true
		}
		res, err := ps.sess.Query(rest)
		if err != nil {
			ps.reply("err %v", err)
			return true
		}
		ps.reply("ok rows=%d version=%d repaired=%t elapsed=%v",
			len(res.Rows), res.PlanVersion, res.Repaired, res.Elapsed.Round(time.Microsecond))

	case "explain":
		st, ok := ps.stmts[rest]
		if !ok {
			ps.reply("err unknown statement %q (prepare it first)", rest)
			return true
		}
		snap := st.entry.cur.Load()
		for _, l := range strings.Split(strings.TrimRight(snap.plan.Explain(st.Query()), "\n"), "\n") {
			ps.line("| %s", l)
		}
		ps.reply("ok cost=%.3f version=%d", snap.plan.Cost, snap.version)

	case "analyze":
		st, ok := ps.stmts[rest]
		if !ok {
			ps.reply("err unknown statement %q (prepare it first)", rest)
			return true
		}
		res, analyzed, err := st.ExplainAnalyze()
		if err != nil {
			ps.reply("err %v", err)
			return true
		}
		for _, l := range strings.Split(strings.TrimRight(analyzed, "\n"), "\n") {
			ps.line("| %s", l)
		}
		ps.reply("ok rows=%d version=%d repaired=%t elapsed=%v",
			len(res.Rows), res.PlanVersion, res.Repaired, res.Elapsed.Round(time.Microsecond))

	case "trace":
		events, slow, err := s.traces(func(l string) { ps.line("| %s", l) })
		if err != nil {
			ps.reply("err %v", err)
			return true
		}
		ps.reply("ok events=%d slow=%d", events, slow)

	case "names":
		names := make([]string, 0, len(s.opts.Named))
		for n := range s.opts.Named {
			names = append(names, n)
		}
		sort.Strings(names)
		ps.reply("ok named=%s", strings.Join(names, ","))

	case "metrics":
		for _, l := range strings.Split(strings.TrimRight(s.Metrics().String(), "\n"), "\n") {
			ps.line("| %s", l)
		}
		ps.reply("ok")

	default:
		ps.reply("err unknown command %q", verb)
	}
	return true
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func rowString(r []int64) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}
