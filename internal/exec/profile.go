package exec

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/relalg"
)

// Per-operator execution profiles (EXPLAIN ANALYZE). The counter is the
// span: CompileVec gives every counted plan node — scans and joins — and
// the aggregation above them exactly one shim (spanOp) that adds the batches
// it passes and the rows they stand for into the node's obs.Span, and the
// Rows of the scan and join spans are the cardinalities RunStats reports.
// Feedback, EstErr, the result-cache spool and EXPLAIN ANALYZE therefore
// read one count.
//
// Maintenance is the kept count plus the delta: a held tree keeps its
// state across executions — each unbounded hash join its table, the root
// its result (the aggregation's table, or the rows a tree without one
// emitted) — and where the base tables under a node only grew since the
// last execution, the node emits only the rows its output gained
// (deltaIter). Its shim then starts from what it counted when the stream
// last ended (kept) and adds the new rows, so its rows are a fresh run's,
// and is marked maintained, as is a join whose kept table took new build
// rows while it emitted its whole output. EXPLAIN ANALYZE renders the mark
// before the time. A maintained node's batches are those of the executions
// that read the rows, which may split them where a fresh run's windows would
// not. Reuse is replay: a result-cache hit's subtree compiles to
// record-only shims (compileCandidate), which wrap no operator, replay the
// entry's counts and render "not executed (cached)".
//
// Timing is a property of an execution, not of a compile: the run's owner
// calls RunStats.SetTiming before Open, and only a timed execution reads the
// clock, twice per batch and node. A held tree is therefore profiled like any
// other execution of it, and profiling never changes results or feedback.
// An Enforce node has no shim: it compiles to its child, because nothing the
// executor runs reads an order.

// spanOp is the one shim of a compiled plan node.
type spanOp struct {
	in VecIterator
	sp obs.Span
	st *RunStats // the execution's timing switch
	// node is the plan node (nil for the aggregation), cols its output
	// width — the columns still read at or above it (live.go) — and counting
	// marks a hash join compiled in counting mode (live.go): its rows are the
	// multiplicities summed, its batches what was emitted. in is nil for a
	// record-only shim (a result-cache hit's node).
	node       *relalg.Plan
	cols       int
	counting   bool
	replayed   bool     // sp is kept, replayed
	maintained bool     // sp is kept plus the execution's delta
	kept       obs.Span // what the node counted when its stream last ended
}

// replay sets the span to the kept one, marked replayed.
func (s *spanOp) replay() { s.sp, s.replayed = s.kept, true }

// deltaIter is an operator of a held tree that can emit only the rows its
// output gained since its last execution: asked before Open (setDelta), it
// does so if what it and its inputs kept allows, and says after Open whether
// it does (isDelta). Scans, hash joins and their shims are; askDelta and
// gotDelta treat any other operator as one that always emits its whole
// output.
type deltaIter interface {
	setDelta(want bool)
	isDelta() bool
}

// askDelta asks v's next Open for its delta, or for its whole output.
func askDelta(v VecIterator, want bool) {
	if d, ok := v.(deltaIter); ok {
		d.setDelta(want)
	}
}

// gotDelta reports whether the opened v emits only its delta.
func gotDelta(v VecIterator) bool {
	d, ok := v.(deltaIter)
	return ok && d.isDelta()
}

func (s *spanOp) setDelta(want bool) { askDelta(s.in, want) }
func (s *spanOp) isDelta() bool      { return gotDelta(s.in) }

// opened starts the span of an execution that emits only the node's delta
// at what the node counted when its stream last ended, and marks it; a join
// whose kept table took new rows is marked too.
func (s *spanOp) opened() {
	if gotDelta(s.in) {
		s.sp.Rows, s.sp.Batches = s.sp.Rows+s.kept.Rows, s.sp.Batches+s.kept.Batches
		s.maintained = true
	} else if j, ok := s.in.(*vecHashJoinOp); ok && j.grew {
		s.maintained = true
	}
}

// start reads the clock when the execution is timed.
func (s *spanOp) start() (t0 time.Time) {
	if s.st.timed {
		t0 = time.Now()
	}
	return t0
}

// stop adds the time since start to a timed execution's span.
func (s *spanOp) stop(t0 time.Time) {
	if s.st.timed {
		s.sp.Nanos += int64(time.Since(t0))
	}
}

func (s *spanOp) Open() error {
	t0 := s.start()
	err := s.in.Open()
	if err == nil {
		s.opened()
	}
	s.stop(t0)
	return err
}

func (s *spanOp) Next() (*Batch, error) {
	t0 := s.start()
	b, err := s.in.Next()
	switch {
	case b != nil:
		s.sp.Batches++
		s.sp.Rows += b.Rows()
	case err == nil:
		s.kept = s.sp
	}
	s.stop(t0)
	return b, err
}

func (s *spanOp) Close() error {
	t0 := s.start()
	err := s.in.Close()
	s.stop(t0)
	return err
}

// drainCols forwards the materializing fast path through the shim — wrapping
// must not make a build side copy columns its scan would lend. The drain is
// one logical batch carrying every live row: by definition the node's output
// cardinality; one that emits only the node's delta adds it to the kept
// count, as one more batch if it has rows.
func (s *spanOp) drainCols(buf, dbuf *colData) (colData, error) {
	t0 := s.start()
	d, err := drainVecCols(s.in, buf, dbuf)
	if err == nil {
		s.opened()
		if d.n > 0 || !gotDelta(s.in) {
			s.sp.Batches++
		}
		s.sp.Rows += int64(d.n)
		s.kept = s.sp
	}
	s.stop(t0)
	return d, err
}

// SetTiming switches per-operator wall time on or off for the tree's next
// executions. Call it before Open; an untimed execution reads no clock.
func (s *RunStats) SetTiming(on bool) { s.timed = on }

// node returns the shim of plan node p, nil when p has none.
func (s *RunStats) node(p *relalg.Plan) *spanOp {
	for _, op := range s.ops {
		if op.node == p {
			return op
		}
	}
	return nil
}

// Format renders the latest execution as an EXPLAIN ANALYZE tree: the
// physical plan annotated per node with the optimizer's estimated cardinality
// against the actual row count (and their q-error — the paper's estimation
// error, made visible per query), plus the operator's output width (cols:
// what it carries upward), batches and, when the execution was timed,
// cumulative wall time. A join that ran in counting mode is marked
// "counted": its rows are the multiplicities summed — equal to act, as for
// every operator — while its batches are what it actually emitted. A node
// under a result-cache hit renders its replayed act, marked "not executed
// (cached)". A node that emitted only what its output gained since the last
// execution is marked "maintained" — its rows and batches count the kept
// ones with the new — and so are a join whose kept table took new build
// rows and an aggregation that kept its table. A merge or index nested-loops join that
// ran is marked "via hash": the executor runs every join on the hash join.
// An Enforce node renders as elided. Call it after the tree is drained and
// before it is opened again.
func (s *RunStats) Format() string {
	var b strings.Builder
	b.WriteString("EXPLAIN ANALYZE\n")
	if s.agg != nil {
		fmt.Fprintf(&b, "HashAggregate  [rows=%d batches=%d%s]\n", s.agg.sp.Rows, s.agg.sp.Batches, s.timeOf(s.agg))
	}
	s.format(s.plan, &b, 0)
	return b.String()
}

// timeOf renders op's time annotation: "maintained" if so, then the time
// if the execution was timed.
func (s *RunStats) timeOf(op *spanOp) string {
	mark := ""
	if op.maintained {
		mark = " maintained"
	}
	if !s.timed {
		return mark
	}
	return fmt.Sprintf("%s time=%v", mark, op.sp.Time().Round(time.Microsecond))
}

// format renders p and its subtree.
func (s *RunStats) format(p *relalg.Plan, b *strings.Builder, depth int) {
	if p == nil {
		return
	}
	op := s.node(p)
	b.WriteString(strings.Repeat("  ", depth))
	p.WriteLabel(s.q, b)
	// Reached by: EXPLAIN ANALYZE of a full-space merge or index-NL plan
	// (TestFormatAnalyzeRendering's merge-only Q5); served plans join by
	// hash only.
	if p.Log == relalg.LogJoin && p.Phy != relalg.PhyHashJoin && op != nil && op.in != nil {
		b.WriteString(" via hash")
	}
	fmt.Fprintf(b, "  [est=%.1f", p.Card)
	switch {
	case op == nil:
		b.WriteString(" act=- | elided]\n")
	case op.replayed && op.in == nil:
		fmt.Fprintf(b, " act=%d qerr=%.2f | not executed (cached)]\n", op.sp.Rows, qError(p.Card, op.sp.Rows))
	default:
		fmt.Fprintf(b, " act=%d qerr=%.2f | rows=%d cols=%d batches=%d", op.sp.Rows, qError(p.Card, op.sp.Rows), op.sp.Rows, op.cols, op.sp.Batches)
		if op.counting {
			b.WriteString(" counted")
		}
		fmt.Fprintf(b, "%s]\n", s.timeOf(op))
	}
	s.format(p.Left, b, depth+1)
	s.format(p.Right, b, depth+1)
}

// EstErr is the latest execution's cardinality estimation error: the mean ln
// q-error over the plan's counted nodes. 0 is a perfect plan; ln 2 ≈ 0.69
// means estimates are off by 2x on average. It walks the plan's shims as
// Format does, so replayed counts count like executed ones. Call it after
// the tree is drained and before it is opened again.
func (s *RunStats) EstErr() float64 {
	var sum float64
	var n int
	var walk func(p *relalg.Plan)
	walk = func(p *relalg.Plan) {
		if p == nil {
			return
		}
		if op := s.node(p); op != nil {
			sum += math.Log(qError(p.Card, op.sp.Rows))
			n++
		}
		walk(p.Left)
		walk(p.Right)
	}
	walk(s.plan)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// qError is the symmetric cardinality estimation error max(act/est,
// est/act), floored at one row on both sides — 1.0 means a perfect
// estimate.
func qError(est float64, act int64) float64 {
	a := float64(act)
	if a < 1 {
		a = 1
	}
	if est < 1 {
		est = 1
	}
	if a > est {
		return a / est
	}
	return est / a
}
