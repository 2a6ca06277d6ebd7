// Package obs is the low-overhead observability plane shared by the
// executor and the serving layer: per-operator execution profiles (Span),
// a ring-buffered structured event log for query lifecycles (Tracer), and
// HDR-style log-linear latency histograms with Prometheus text rendering
// (Histogram, hist.go).
//
// Everything here is designed to cost nothing when disabled. Span and
// Tracer methods are nil-receiver no-ops, so instrumentation can stay
// wired unconditionally behind nil pointers and the instrumented hot paths
// carry no branches beyond one pointer test; enabling them never changes
// what the instrumented code computes — profiles and traces observe
// executions, they do not participate in them. The executor's
// zero-allocation steady state and the byte-identity of its cardinality
// feedback are asserted with instrumentation both off and on by the tests
// in internal/exec.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// ---- per-operator execution profiles ----

// Span accumulates one operator's execution profile at batch granularity:
// how many batches it emitted, how many live rows they carried, and the
// cumulative wall time spent producing them. Methods are nil-receiver
// no-ops so operators record unconditionally through a possibly-nil
// pointer.
//
// Time is inclusive: the recording operator wraps its input, so its clock
// runs across the input's work too. A Span is written by one goroutine at a
// time (parallel workers record into spans of their own, merged
// single-threaded after the workers join); it is not itself
// concurrency-safe.
type Span struct {
	Batches int64
	Rows    int64
	Nanos   int64 // cumulative wall time, nanoseconds
}

// Record folds one observation into the span.
func (s *Span) Record(batches, rows int64, d time.Duration) {
	if s == nil {
		return
	}
	s.Batches += batches
	s.Rows += rows
	s.Nanos += int64(d)
}

// Merge folds another span's counters in (the per-worker merge).
func (s *Span) Merge(o *Span) {
	if s == nil || o == nil {
		return
	}
	s.Batches += o.Batches
	s.Rows += o.Rows
	s.Nanos += o.Nanos
}

// Time returns the recorded wall time.
func (s *Span) Time() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.Nanos)
}

// ---- query-lifecycle event log ----

// Kind classifies a lifecycle event.
type Kind uint8

const (
	// KindPrepare is a statement bind: Note is "hit" or "miss", A is the
	// number of warm-started factors (miss only).
	KindPrepare Kind = 1 + iota
	// KindQueueWait is the admission wait before an execution: Dur is the
	// wait, Note is "mem" when the execution waited on the memory-ceiling
	// gate (empty for a plain semaphore wait).
	KindQueueWait
	// KindExec is one finished execution: A is the result row count, B the
	// plan version that ran, Dur the execution wall time, and Note
	// "repaired" when its feedback repaired the plan (empty otherwise).
	KindExec
	// KindRepair is one incremental plan repair: A is the number of
	// optimizer entries touched, B the new plan version (the version
	// bump), Dur the repair time.
	KindRepair
	// KindResultCache is semantic result cache activity during one
	// execution: Note is "probe-hit", "spool" or "invalidate", A the count.
	KindResultCache
	// KindSlowQuery marks an execution beyond the slow-query threshold:
	// Dur is the execution time, Note names the threshold. The full dump
	// is kept separately (the server's slow-trace ring).
	KindSlowQuery
	// KindPhase is a workload phase marker (the drift harness): Note is
	// the phase name, A is 1 at phase start and 2 at phase end, and V
	// carries the statistics plane's end-of-phase estimation error.
	KindPhase
	// KindSpill is one execution's grace-hash spill activity under a memory
	// budget: A is the partition files written, B the bytes spilled, and V
	// the query's peak tracked memory in bytes.
	KindSpill
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPrepare:
		return "prepare"
	case KindQueueWait:
		return "queue-wait"
	case KindExec:
		return "exec"
	case KindRepair:
		return "repair"
	case KindResultCache:
		return "result-cache"
	case KindSlowQuery:
		return "slow-query"
	case KindPhase:
		return "phase"
	case KindSpill:
		return "spill"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one structured lifecycle event. Payload fields are
// kind-specific; see the Kind constants. Query labels the statement the
// event belongs to (the cache entry digest, or a workload name).
type Event struct {
	Seq  uint64
	At   time.Time
	Kind Kind

	Query string
	Note  string
	A, B  int64
	V     float64
	Dur   time.Duration
}

// String renders the event as one log line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%-5d %s %-12s", e.Seq, e.At.Format("15:04:05.000000"), e.Kind)
	if e.Query != "" {
		fmt.Fprintf(&b, " [%s]", e.Query)
	}
	switch e.Kind {
	case KindPrepare:
		fmt.Fprintf(&b, " %s warm=%d", e.Note, e.A)
	case KindQueueWait:
		fmt.Fprintf(&b, " wait=%v", e.Dur)
		if e.Note != "" {
			fmt.Fprintf(&b, " reason=%s", e.Note)
		}
	case KindExec:
		fmt.Fprintf(&b, " rows=%d v=%d dur=%v", e.A, e.B, e.Dur)
		if e.Note != "" {
			fmt.Fprintf(&b, " %s", e.Note)
		}
	case KindRepair:
		fmt.Fprintf(&b, " touched=%d v=%d dur=%v", e.A, e.B, e.Dur)
	case KindResultCache:
		fmt.Fprintf(&b, " %s n=%d", e.Note, e.A)
	case KindSlowQuery:
		fmt.Fprintf(&b, " dur=%v threshold=%s", e.Dur, e.Note)
	case KindSpill:
		fmt.Fprintf(&b, " partitions=%d bytes=%d peak=%.0f", e.A, e.B, e.V)
	case KindPhase:
		edge := "start"
		if e.A == 2 {
			edge = "end"
		}
		fmt.Fprintf(&b, " %s %s", e.Note, edge)
		if e.A == 2 {
			fmt.Fprintf(&b, " est-err=%.3f", e.V)
		}
	default:
		fmt.Fprintf(&b, " %s a=%d b=%d v=%g dur=%v", e.Note, e.A, e.B, e.V, e.Dur)
	}
	return b.String()
}

// Tracer is a bounded ring buffer of lifecycle events. A nil Tracer is a
// disabled one: Emit is a no-op and Events returns nothing, so callers
// keep a possibly-nil *Tracer and emit unconditionally. Emission takes one
// short mutex-protected copy — events are per query execution, never per
// batch, so the lock is far off any hot path.
type Tracer struct {
	mu  sync.Mutex
	buf []Event
	seq uint64 // total events emitted; Seq of the newest event
}

// NewTracer builds a tracer retaining the last size events (minimum 16).
func NewTracer(size int) *Tracer {
	if size < 16 {
		size = 16
	}
	return &Tracer{buf: make([]Event, size)}
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit appends an event, stamping its sequence number and — when unset —
// its timestamp. Nil-safe.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	t.buf[(t.seq-1)%uint64(len(t.buf))] = e
	t.mu.Unlock()
}

// Seq returns the sequence number of the newest event (0: none yet).
// Capture it before an operation and pass it to Since to read just that
// operation's events.
func (t *Tracer) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Events snapshots the buffered events, oldest first.
func (t *Tracer) Events() []Event { return t.Since(0) }

// Since snapshots the buffered events with Seq > seq, oldest first. Events
// older than the ring retains are gone; the caller sees a gap in Seq.
func (t *Tracer) Since(seq uint64) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lo := t.seq
	if n := uint64(len(t.buf)); lo > n {
		lo = n
	}
	first := t.seq - lo + 1 // oldest Seq still buffered
	if seq+1 > first {
		first = seq + 1
	}
	var out []Event
	for s := first; s <= t.seq; s++ {
		out = append(out, t.buf[(s-1)%uint64(len(t.buf))])
	}
	return out
}

// TextRing retains the last size rendered text blobs (slow-query dumps).
// A nil TextRing discards everything.
type TextRing struct {
	mu  sync.Mutex
	buf []string
	n   uint64
}

// NewTextRing builds a ring of the given capacity (minimum 1).
func NewTextRing(size int) *TextRing {
	if size < 1 {
		size = 1
	}
	return &TextRing{buf: make([]string, size)}
}

// Add appends one blob. Nil-safe.
func (r *TextRing) Add(s string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = s
	r.n++
	r.mu.Unlock()
}

// All returns the retained blobs, oldest first. Nil-safe.
func (r *TextRing) All() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if m := uint64(len(r.buf)); n > m {
		n = m
	}
	out := make([]string, 0, n)
	for s := r.n - n; s < r.n; s++ {
		out = append(out, r.buf[s%uint64(len(r.buf))])
	}
	return out
}
