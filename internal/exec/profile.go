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
// span: CompileVec wraps every compiled plan node — scans and joins — and
// the aggregation above them in one shim (spanOp) that adds the
// batches it passes and the rows they stand for into the node's obs.Span,
// and RunStats.Cards points at the Rows of the scan and join spans. Feedback,
// the result-cache spool and EXPLAIN ANALYZE therefore read one count.
//
// Timing is a property of an execution, not of a compile: the run's owner
// calls RunStats.SetTiming before Open, and only a timed execution reads the
// clock, twice per batch and node. A held tree is therefore profiled like any
// other execution of it, and profiling never changes results or feedback.
// Two kinds of node have no shim: those inside a result-cache probe hit
// (never compiled; their counts are replayed into RunStats) and an Enforce
// node, compiled to its child because nothing the executor runs reads an
// order.

// spanOp is the one shim of a compiled plan node.
type spanOp struct {
	in VecIterator
	sp obs.Span
	st *RunStats // the execution's timing switch
	// node is the plan node (nil for the aggregation), cols its output
	// width — the columns still read at or above it (live.go) — and counting
	// marks a hash join compiled in counting mode (live.go): its rows are the
	// multiplicities summed, its batches what was emitted.
	node     *relalg.Plan
	cols     int
	counting bool
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
	s.stop(t0)
	return err
}

func (s *spanOp) Next() (*Batch, error) {
	t0 := s.start()
	b, err := s.in.Next()
	if b != nil {
		s.sp.Batches++
		s.sp.Rows += b.Rows()
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
// cardinality.
func (s *spanOp) drainCols(buf *colData) (colData, error) {
	t0 := s.start()
	d, err := drainVecCols(s.in, buf)
	s.sp.Batches++
	s.sp.Rows += int64(d.n)
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
// every operator — while its batches are what it actually emitted. A merge or
// index nested-loops join that ran is marked "via hash": the executor runs
// every join on the hash join. An Enforce node renders as elided. Call it
// after the tree is drained and before it is opened again.
func (s *RunStats) Format() string {
	var b strings.Builder
	b.WriteString("EXPLAIN ANALYZE\n")
	if s.agg != nil {
		fmt.Fprintf(&b, "HashAggregate  [rows=%d batches=%d%s]\n", s.agg.sp.Rows, s.agg.sp.Batches, s.timeOf(s.agg.sp.Time()))
	}
	s.format(s.plan, &b, 0)
	return b.String()
}

// timeOf renders a time annotation, empty when the execution was not timed.
func (s *RunStats) timeOf(d time.Duration) string {
	if !s.timed {
		return ""
	}
	return fmt.Sprintf(" time=%v", d.Round(time.Microsecond))
}

// format renders p and its subtree.
func (s *RunStats) format(p *relalg.Plan, b *strings.Builder, depth int) {
	if p == nil {
		return
	}
	q := s.q
	op := s.node(p)
	b.WriteString(strings.Repeat("  ", depth))
	switch p.Log {
	case relalg.LogScan:
		name := "?"
		if p.Rel < len(q.Rels) {
			name = q.Rels[p.Rel].Alias
		}
		if p.Phy == relalg.PhyIndexScan {
			fmt.Fprintf(b, "IndexScan %s key=%s", name, q.ColString(p.IdxCol))
		} else {
			fmt.Fprintf(b, "TableScan %s", name)
		}
	case relalg.LogEnforce:
		fmt.Fprintf(b, "Sort %s", p.Prop)
	default:
		name := map[relalg.PhyOp]string{
			relalg.PhyHashJoin:    "HashJoin",
			relalg.PhyMergeJoin:   "MergeJoin",
			relalg.PhyIndexNLJoin: "IndexNLJoin",
		}[p.Phy]
		pred := ""
		if p.Pred < len(q.Joins) {
			jp := q.Joins[p.Pred]
			pred = fmt.Sprintf(" on %s=%s", q.ColString(jp.L), q.ColString(jp.R))
		}
		via := ""
		// Reached by: EXPLAIN ANALYZE of a full-space merge or index-NL
		// plan (TestFormatAnalyzeRendering's merge-only Q5); served plans
		// join by hash only.
		if op != nil && p.Phy != relalg.PhyHashJoin {
			via = " via hash"
		}
		fmt.Fprintf(b, "%s%s%s", name, pred, via)
	}

	fmt.Fprintf(b, "  [est=%.1f", p.Card)
	if act, ok := s.Card(p.Expr); ok && p.Log != relalg.LogEnforce {
		fmt.Fprintf(b, " act=%d qerr=%.2f", act, qError(p.Card, act))
	} else {
		fmt.Fprintf(b, " act=-")
	}
	switch {
	case p.Log == relalg.LogEnforce:
		b.WriteString(" | elided]")
	case op != nil:
		fmt.Fprintf(b, " | rows=%d cols=%d batches=%d", op.sp.Rows, op.cols, op.sp.Batches)
		if op.counting {
			b.WriteString(" counted")
		}
		fmt.Fprintf(b, "%s]", s.timeOf(op.sp.Time()))
	default:
		b.WriteString(" | not executed (cached)]")
	}
	b.WriteByte('\n')
	s.format(p.Left, b, depth+1)
	s.format(p.Right, b, depth+1)
}

// EstErr is the latest execution's cardinality estimation error: the mean ln
// q-error over the plan's counted nodes. 0 is a perfect plan; ln 2 ≈ 0.69
// means estimates are off by 2x on average. It walks the plan as Format does,
// so the counts a result-cache probe hit replays count like executed ones.
// Call it after the tree is drained and before it is opened again.
func (s *RunStats) EstErr() float64 {
	var sum float64
	var n int
	var walk func(p *relalg.Plan)
	walk = func(p *relalg.Plan) {
		if p == nil {
			return
		}
		if act, ok := s.Card(p.Expr); ok && p.Log != relalg.LogEnforce {
			sum += math.Log(qError(p.Card, act))
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
