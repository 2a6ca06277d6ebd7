package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
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
//	rows    <stmt>            execute; stream the result rows as they are
//	                          produced, then the count
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
//
// Only rows sends a result set; exec, run and analyze count it. A rows
// execution holds its admission slot while the client reads, and a write
// that fails because the client has gone ends the execution as a failed one.
// A client that stalls without going away holds the slot until it reads. An
// execution that fails after its first rows replies err after them.
type protoSession struct {
	sess  *Session
	stmts map[string]*Stmt
	w     *bufio.Writer
	row   []byte // writeRows' line buffer
}

// ServeConn runs the line protocol over one connection (a TCP conn, a
// pipe, or stdin/stdout glued together). It opens one Session and blocks
// until EOF, "quit", or a transport error, which it returns; a failed write
// is one. Protocol-level errors (bad command, failed parse) are reported to
// the client and do not terminate the connection.
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
		if err := ps.w.Flush(); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ServeListener accepts connections and serves each in its own goroutine
// until the listener is closed. A connection that ends in an error (a client
// gone mid-reply) is counted in Metrics.ConnErrors.
func (s *Server) ServeListener(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			if s.ServeConn(conn) != nil {
				s.connErrors.Add(1)
			}
		}()
	}
}

// report buffers text as "| " continuation lines, which a reply terminates.
func (ps *protoSession) report(text string) {
	for _, l := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		fmt.Fprintf(ps.w, "| %s\n", l)
	}
}

// reply terminates a response and flushes everything buffered so far. A
// failed write sticks to the writer, and ServeConn returns it.
func (ps *protoSession) reply(format string, args ...any) {
	fmt.Fprintf(ps.w, format+"\n", args...)
	ps.w.Flush()
}

// done replies to an execution: its error, or its count.
func (ps *protoSession) done(res *Result, err error) {
	if err != nil {
		ps.reply("err %v", err)
		return
	}
	ps.reply("ok rows=%d version=%d repaired=%t elapsed=%v",
		res.Rows, res.PlanVersion, res.Repaired, res.Elapsed.Round(time.Microsecond))
}

// writeRows is the rows verb's sink: it buffers one "row" line per live row
// of b, in the writer that flushes to the client as it fills, and returns
// the write error that ends the execution when the client has gone.
func (ps *protoSession) writeRows(b *exec.Batch) error {
	for k := range b.Len() {
		i := k
		if b.Sel != nil {
			i = b.Sel[k]
		}
		ps.row = append(ps.row[:0], "row "...)
		for c, col := range b.Cols {
			if c > 0 {
				ps.row = append(ps.row, ' ')
			}
			ps.row = strconv.AppendInt(ps.row, col[i], 10)
		}
		ps.row = append(ps.row, '\n')
		if _, err := ps.w.Write(ps.row); err != nil {
			return err
		}
	}
	return nil
}

// handle executes one command line; it returns false when the session
// should close.
func (ps *protoSession) handle(s *Server, line string) bool {
	verb, rest, _ := strings.Cut(line, " ")
	verb, rest = strings.ToLower(verb), strings.TrimSpace(rest)
	st, known := ps.stmts[rest]
	if !known && slices.Contains([]string{"exec", "rows", "explain", "analyze"}, verb) {
		ps.reply("err unknown statement %q (prepare it first)", rest)
		return true
	}
	switch verb {
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
		if verb == "query" {
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
		var each func(*exec.Batch) error
		if verb == "rows" {
			each = ps.writeRows
		}
		ps.done(st.ExecInto(each))

	case "run":
		if rest == "" {
			ps.reply("err usage: run <sql>")
			return true
		}
		ps.done(ps.sess.Query(rest))

	case "explain":
		snap := st.entry.cur.Load()
		ps.report(snap.plan.Explain(st.Query()))
		ps.reply("ok cost=%.3f version=%d", snap.plan.Cost, snap.version)

	case "analyze":
		res, analyzed, err := st.ExplainAnalyze()
		if err == nil {
			ps.report(analyzed)
		}
		ps.done(res, err)

	case "trace":
		events, slow, err := s.traces(ps.report)
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
		ps.report(s.Metrics().String())
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
