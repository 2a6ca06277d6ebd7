package exec

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/relalg"
)

// Per-operator execution profiling (EXPLAIN ANALYZE). Setting Compiler.Prof
// to a fresh PlanProfile makes CompileVec wrap every compiled operator in a
// timing shim (profVec) that records batches, live rows and cumulative wall
// time at batch granularity into a per-plan-node obs.Span; a parallel
// aggregation's workers run copies of the same shims into spans of their own,
// merged into the node's exactly once (pipeline.go). With Prof nil —
// the default — no shim is inserted anywhere and the operator tree is
// byte-for-byte the one an unprofiled compile produces, so profiling is
// provably free when off (TestScanAggSteadyStateAllocs and the RunStats
// differentials run both ways).
//
// Profiling never changes results or feedback: the shim sits OUTSIDE the
// cardinality counter of its node, so the rows a span records are exactly
// the rows RunStats counts (asserted at P ∈ {1,2,4} by
// TestExplainAnalyzeMatchesRunStats).

// PlanProfile collects the execution profile of one compiled plan: one span
// per plan node plus one for the terminal aggregation. Build it with
// NewPlanProfile, hand it to Compiler.Prof, execute, then render with
// Format. A profile belongs to a single execution; do not reuse across
// compiles.
type PlanProfile struct {
	spans map[*relalg.Plan]*obs.Span
	// cols is each compiled node's output width: the columns still read at
	// or above it (live.go), recorded at compile time.
	cols map[*relalg.Plan]int
	// counted marks the hash joins compiled in counting mode (live.go),
	// recorded at compile time: their rows are the multiplicities summed,
	// their batches what was emitted.
	counted map[*relalg.Plan]bool
	// Agg profiles the aggregation above the plan root, serial or parallel.
	Agg *obs.Span
	// workers is the Parallelism of a parallel aggregation, zero when the tree
	// has none, recorded for rendering: its spine's span times are summed
	// across workers.
	workers int
}

// NewPlanProfile returns an empty profile ready for Compiler.Prof.
func NewPlanProfile() *PlanProfile {
	return &PlanProfile{spans: map[*relalg.Plan]*obs.Span{}, cols: map[*relalg.Plan]int{},
		counted: map[*relalg.Plan]bool{}, Agg: &obs.Span{}}
}

// span returns the (inclusive-time) span of a plan node, registering it on
// first use.
func (pp *PlanProfile) span(p *relalg.Plan) *obs.Span {
	sp, ok := pp.spans[p]
	if !ok {
		sp = &obs.Span{}
		pp.spans[p] = sp
	}
	return sp
}

// SpanOf returns the recorded span of a plan node (nil when the node was
// never executed, e.g. a subtree served from the result cache).
func (pp *PlanProfile) SpanOf(p *relalg.Plan) *obs.Span { return pp.spans[p] }

// displayNanos returns the inclusive wall time to display for a node: its
// span as recorded, or for an unexecuted node its children's time (zero when
// the whole subtree was skipped).
func (pp *PlanProfile) displayNanos(p *relalg.Plan) int64 {
	if p == nil {
		return 0
	}
	if sp := pp.spans[p]; sp != nil {
		return sp.Nanos
	}
	return pp.displayNanos(p.Left) + pp.displayNanos(p.Right)
}

// Format renders the EXPLAIN ANALYZE tree: the physical plan annotated per
// node with the optimizer's estimated cardinality against the actual row
// count (and their q-error — the paper's estimation error, made visible per
// query), plus the operator's output width (cols: what it carries upward),
// batches and cumulative wall time from the execution profile. A hash join
// that ran in counting mode is marked "counted": its rows are the
// multiplicities summed — equal to act, as for every operator — while its
// batches are what it actually emitted.
// stats is the RunStats of the same execution. Span times on a parallel
// aggregation's probe spine are summed across workers (CPU time, not wall
// time); the header notes the parallelism.
func (pp *PlanProfile) Format(q *relalg.Query, plan *relalg.Plan, stats *RunStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE")
	if pp.workers > 1 {
		fmt.Fprintf(&b, " (parallelism=%d, operator times are summed across workers)", pp.workers)
	}
	b.WriteByte('\n')
	if pp.Agg != nil && (pp.Agg.Batches > 0 || pp.Agg.Nanos > 0) {
		fmt.Fprintf(&b, "HashAggregate  [rows=%d batches=%d time=%v]\n",
			pp.Agg.Rows, pp.Agg.Batches, pp.Agg.Time().Round(time.Microsecond))
	}
	pp.format(q, plan, stats, &b, 0)
	return b.String()
}

func (pp *PlanProfile) format(q *relalg.Query, p *relalg.Plan, stats *RunStats, b *strings.Builder, depth int) {
	if p == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	switch p.Log {
	case relalg.LogScan:
		name := "?"
		if q != nil && p.Rel < len(q.Rels) {
			name = q.Rels[p.Rel].Alias
		}
		if p.Phy == relalg.PhyIndexScan {
			fmt.Fprintf(b, "IndexScan %s key=%s", name, q.ColString(p.IdxCol))
		} else if p.Phy == relalg.PhySegScan {
			fmt.Fprintf(b, "SegScan %s zone=%s", name, q.ColString(p.IdxCol))
		} else {
			fmt.Fprintf(b, "TableScan %s", name)
		}
	case relalg.LogEnforce:
		fmt.Fprintf(b, "Sort %s", p.Prop)
	default:
		op := map[relalg.PhyOp]string{
			relalg.PhyHashJoin:    "HashJoin",
			relalg.PhyMergeJoin:   "MergeJoin",
			relalg.PhyIndexNLJoin: "IndexNLJoin",
		}[p.Phy]
		pred := ""
		if q != nil && p.Pred < len(q.Joins) {
			jp := q.Joins[p.Pred]
			pred = fmt.Sprintf(" on %s=%s", q.ColString(jp.L), q.ColString(jp.R))
		}
		fmt.Fprintf(b, "%s%s", op, pred)
	}

	fmt.Fprintf(b, "  [est=%.1f", p.Card)
	if act, ok := stats.Card(p.Expr); ok && p.Log != relalg.LogEnforce {
		fmt.Fprintf(b, " act=%d qerr=%.2f", act, qError(p.Card, act))
	} else {
		fmt.Fprintf(b, " act=-")
	}
	if sp := pp.spans[p]; sp != nil {
		fmt.Fprintf(b, " | rows=%d cols=%d batches=%d", sp.Rows, pp.cols[p], sp.Batches)
		if pp.counted[p] {
			b.WriteString(" counted")
		}
		fmt.Fprintf(b, " time=%v]", time.Duration(pp.displayNanos(p)).Round(time.Microsecond))
	} else {
		fmt.Fprintf(b, " | not executed (cached)]")
	}
	b.WriteByte('\n')
	pp.format(q, p.Left, stats, b, depth+1)
	pp.format(q, p.Right, stats, b, depth+1)
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

// profVec is the serial profiling shim: it times Open/Next/Close around its
// input (inclusive time — the clock runs across the child's work) and
// counts emitted batches and the rows they stand for.
type profVec struct {
	in VecIterator
	sp *obs.Span
}

func (p *profVec) Open() error {
	t0 := time.Now()
	err := p.in.Open()
	p.sp.Record(0, 0, time.Since(t0))
	return err
}

func (p *profVec) Next() (*Batch, error) {
	t0 := time.Now()
	b, err := p.in.Next()
	if b != nil {
		p.sp.Record(1, b.Rows(), time.Since(t0))
	} else {
		p.sp.Record(0, 0, time.Since(t0))
	}
	return b, err
}

func (p *profVec) Close() error {
	t0 := time.Now()
	err := p.in.Close()
	p.sp.Record(0, 0, time.Since(t0))
	return err
}

// drainCols forwards the materializing fast path through the shim — wrapping
// must not make a build side copy columns its scan would lend. The whole drain
// is one timed observation: one logical batch carrying every live row.
func (p *profVec) drainCols(buf *colData) (colData, error) {
	t0 := time.Now()
	d, err := drainVecCols(p.in, buf)
	p.sp.Record(1, int64(d.n), time.Since(t0))
	return d, err
}
