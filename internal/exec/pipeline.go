package exec

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file implements full-pipeline morsel-driven parallelism: instead of
// fanning out only at the leaf scan and funneling every batch through an
// exchange channel, a fused pipeline runs the whole
// scan → probe → … → probe → (partial aggregate | collect) chain inside
// each worker. Workers claim probe-side morsels off an atomic cursor as
// zero-copy column windows, push them through the probe cascade in columnar
// chunks — per-batch hashing, pair collection against the shared immutable
// join tables, residual filtering and one Gather per output column — and
// sink the surviving chunks into worker-local state (an aggTable fed by
// addBatch, or a worker-local column buffer), merged exactly once when all
// workers finish. Nothing crosses between workers on the per-row path.

// pipeStage is one fused hash-join probe: the compiled build-side subtree,
// the key offsets of the build row and of the incoming probe row, the
// residual predicates first checkable at this join, the build and probe
// columns the join emits (its live output, build columns first), and the
// cardinality counter for the join's output. A counting stage
// (Compiler.counted) emits no build column and passes each matching probe row
// on once with its match count; only a counting stage or the terminal may
// follow it. The joinTable is built at Open (with the partitioned parallel
// build for large sides) and is read-only afterwards, so all workers probe it
// without synchronization.
type pipeStage struct {
	build     VecIterator
	buildKeys []int
	probeKeys []int
	residual  []ColPred
	buildOut  []int
	probeOut  []int
	counting  bool
	card      *int64

	// kept across executions, like vecHashJoinOp's
	table *joinTable
	data  colData
}

type parallelPipelineOp struct {
	// probe source: a morsel-addressable column-major base table with its
	// scan filter, and the scan's cardinality counter.
	leaf     scanLeaf
	scanCard *int64

	stages  []*pipeStage // in probe order: stages[0] is probed first
	agg     *AggSpecExec // nil = collect mode (emit joined rows)
	par     int          // the compiler's Parallelism
	workers int          // of this execution: at most par, at most one per morsel
	ws      []*pipeWorker
	mem     *MemTracker // child tracker; Force-only (fusion is admission-gated)
	// prof, when non-nil, receives the fused profile: per-worker stage
	// clocks attribute each worker's wall time exclusively to the segment
	// it is executing (scan, probe stage, terminal sink) and are merged
	// into the self-time spans once after the workers join. Nil — the
	// default — leaves only a per-chunk nil check on the probe path.
	prof *pipeProf

	out   colData
	pos   int
	batch Batch

	// Streaming collect terminal: instead of materializing worker-local
	// buffers and concatenating them, collect-mode workers copy finished
	// chunks into pooled batch shells and hand them to the consumer through
	// an exchange channel — joined rows never materialize whole. A closer
	// goroutine joins the workers, merges their exact cardinality counters
	// and profile clocks, then closes ch, so counters are fully merged
	// before the consumer can observe end-of-stream (the Snapshot-after-
	// drain contract). quit unblocks producers on early Close.
	stream bool
	ch     chan *Batch
	free   chan *Batch
	shells []*Batch // every shell there is; free is refilled from it at Open
	quit   chan struct{}
	last   *Batch // batch lent to the consumer, recycled on the next call
	closed bool
}

// newParallelPipeline assembles a fused pipeline over a probe-side base
// table. With agg == nil the op emits the joined rows; setting agg (via
// fuseAgg before Open) switches the terminal to worker-local partial
// aggregation with a final merge.
func newParallelPipeline(leaf scanLeaf, scanCard *int64,
	stages []*pipeStage, workers int) *parallelPipelineOp {
	return &parallelPipelineOp{leaf: leaf, scanCard: scanCard, stages: stages, par: workers}
}

// fuseAgg replaces the pipeline's collect terminal with worker-local hash
// aggregation. Must be called before Open.
func (p *parallelPipelineOp) fuseAgg(spec AggSpecExec) { p.agg = &spec }

// stageScratch is one probe depth's reusable worker-private buffers: the
// probe-hash vector, the pending match pairs, and the stage's columnar
// output chunk (flat-backed, capacity BatchSize per column). The output
// chunk is consumed synchronously by the cascade below before the next
// flush overwrites it. A counting stage copies nothing: out holds the
// headers of the incoming chunk's live columns, sel and mult the matched
// rows and their multiplicities.
type stageScratch struct {
	hashes         []uint64
	pairsB, pairsP []int32
	out            [][]int64
	sel            []int
	mult           []int64
}

// pipeWorker is the per-worker private state: cardinality counters (index 0
// is the scan, index i+1 is stage i's output), per-depth stage scratch, and
// the terminal sink (aggregate table or columnar collect buffer).
type pipeWorker struct {
	op      *parallelPipelineOp
	counts  []int64
	stages  []stageScratch
	agg     *aggTable
	aggScr  aggScratch
	stopped bool        // streaming consumer went away; stop producing
	clock   *stageClock // nil unless profiling
}

func (p *parallelPipelineOp) Open() error {
	p.leaf.bind()
	// At least one worker even for an empty probe table, so the merge phase
	// always has a terminal to read.
	p.workers = max(1, scanWorkers(p.par, p.leaf.data.n))
	// Build every stage's join table up front. Build sides drain through
	// drainVecCols, which parallelizes across morsels where the subtree
	// supports it; large tables use the partitioned parallel insert.
	width := p.leaf.data.width() // the pipeline's output width: the last stage's, or the scan's
	for _, st := range p.stages {
		data, err := drainVecCols(st.build, &st.data)
		if err != nil {
			return err
		}
		p.mem.Force(colBytes(data.width(), data.n) + joinTableBytes(data.n, st.counting))
		st.table = newJoinTable(st.table, data, st.buildKeys, p.workers, st.counting)
		width = len(st.buildOut) + len(st.probeOut)
	}

	p.stream, p.closed, p.pos = p.agg == nil, false, 0
	if p.stream {
		p.ch = make(chan *Batch, p.workers)
		p.quit = make(chan struct{})
		// Chunks leave a counting last stage weighted, so the shells carry a
		// multiplicity vector beside their columns.
		weighted := len(p.stages) > 0 && p.stages[len(p.stages)-1].counting
		for len(p.shells) < 2*p.workers+1 { // per-worker in flight + channel buffer + consumer
			shell := &Batch{Cols: flatCols(width, BatchSize)}
			if weighted {
				shell.Mult = make([]int64, BatchSize)
			}
			p.shells = append(p.shells, shell)
		}
		p.free = make(chan *Batch, len(p.shells))
		for _, shell := range p.shells {
			p.free <- shell
		}
		if weighted {
			width++ // the multiplicities are charged as one more column
		}
		p.mem.Force(int64(len(p.shells)) * colBytes(width, BatchSize))
	}

	for len(p.ws) < p.workers {
		p.ws = append(p.ws, p.newWorker())
	}
	workers := p.ws[:p.workers]
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, pw := range workers {
		clear(pw.counts)
		pw.stopped = false
		if pw.agg != nil {
			pw.agg.reset()
		}
		if p.prof != nil {
			pw.clock = newStageClock(len(p.stages) + 2)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pw.run(&cursor)
		}()
	}
	// Exact-cardinality merge: per-worker counters sum to precisely the
	// counts the serial operator tree would have produced, so RunStats
	// feedback into the adaptive loop is byte-identical at any parallelism.
	joined := func() {
		wg.Wait()
		for _, pw := range workers {
			*p.scanCard += pw.counts[0]
			for i, st := range p.stages {
				*st.card += pw.counts[i+1]
			}
		}
	}

	if p.stream {
		go func() {
			joined()
			if p.prof != nil {
				p.mergeProf(workers)
			}
			close(p.ch)
		}()
		return nil
	}
	joined()
	agg := workers[0].agg
	for _, pw := range workers[1:] {
		agg.mergeFrom(pw.agg)
	}
	p.out = agg.cols(p.out)
	p.mem.Force(colBytes(p.out.width(), p.out.n))
	if p.prof != nil {
		p.mergeProf(workers)
	}
	return nil
}

// newWorker allocates one worker's private state; Open empties and reuses it.
func (p *parallelPipelineOp) newWorker() *pipeWorker {
	pw := &pipeWorker{
		op:     p,
		counts: make([]int64, len(p.stages)+1),
		stages: make([]stageScratch, len(p.stages)),
	}
	for i, st := range p.stages {
		if st.counting {
			pw.stages[i] = stageScratch{
				out:  make([][]int64, len(st.probeOut)),
				sel:  make([]int, 0, morselSize),
				mult: make([]int64, morselSize),
			}
			continue
		}
		pw.stages[i] = stageScratch{
			pairsB: make([]int32, 0, BatchSize),
			pairsP: make([]int32, 0, BatchSize),
			out:    flatCols(len(st.buildOut)+len(st.probeOut), BatchSize),
		}
	}
	if p.agg != nil {
		pw.agg = newAggTable(*p.agg)
	}
	return pw
}

// mergeProf folds the per-worker stage clocks into the profile's self-time
// spans. Span times become the sum of worker time per segment (CPU time,
// not wall time); rows reuse the exact per-worker cardinality counters, so
// profile rows == RunStats counts by construction. A stage's emitted-chunk
// count equals the entry count of the slot below it (each flush feeds the
// cascade synchronously).
func (p *parallelPipelineOp) mergeProf(workers []*pipeWorker) {
	last := len(p.stages) + 1 // terminal clock slot
	for _, pw := range workers {
		ck := pw.clock
		p.prof.scan.Record(ck.batches[1], pw.counts[0], time.Duration(ck.times[0]))
		for i := range p.stages {
			p.prof.stages[i].Record(ck.batches[i+2], pw.counts[i+1], time.Duration(ck.times[i+1]))
		}
		if p.prof.term != nil {
			p.prof.term.Record(0, 0, time.Duration(ck.times[last]))
		} else if n := len(p.stages); n > 0 {
			// Collect mode has no terminal operator; materialization time
			// belongs to the last stage's output.
			p.prof.stages[n-1].Record(0, 0, time.Duration(ck.times[last]))
		}
	}
	if p.prof.term != nil {
		p.prof.term.Record(int64((p.out.n+BatchSize-1)/BatchSize), int64(p.out.n), 0)
	}
}

func (w *pipeWorker) run(cursor *atomic.Int64) {
	leaf := &w.op.leaf
	data, filter := leaf.data, leaf.filter
	var sel []int
	if !filter.Empty() {
		sel = make([]int, 0, morselSize)
	}
	if w.clock != nil {
		w.clock.last = time.Now() // attribution starts on the scan slot
	}
	var window [][]int64
	for {
		lo := int(cursor.Add(1)-1) * morselSize
		if lo >= data.n || w.stopped {
			if w.clock != nil {
				w.clock.to(0) // flush the trailing scan segment
			}
			return
		}
		hi := lo + morselSize
		if hi > data.n {
			hi = data.n
		}
		window = data.window(window, lo, hi)
		n := hi - lo
		if filter.Empty() {
			w.counts[0] += int64(n)
			w.probeStage(0, window, n, nil, nil)
		} else {
			sel = leaf.sel(lo, hi, sel)
			w.counts[0] += int64(len(sel))
			if len(sel) > 0 {
				w.probeStage(0, window, n, sel, nil)
			}
		}
	}
}

// probeStage advances a columnar chunk through the cascade from stage depth
// on, sinking fully-joined chunks into the worker-local terminal. Each
// stage hashes the chunk's probe keys in one pass per key column, walks the
// shared chains collecting (build, probe) pairs, and flushes BatchSize
// pairs at a time through residual filtering and per-column Gather into the
// depth's scratch chunk — which the cascade below consumes synchronously
// before the next flush overwrites it. mult is the chunk's multiplicity
// vector (nil unless a counting stage emitted it); a counting stage hands the
// chunk's own columns on under the selection of its matched rows.
//
// Under profiling, entering a stage switches the worker's clock to that
// stage's slot and leaving restores the caller's, so every instant of
// worker time is attributed to exactly one segment; slot depth+1 covers
// both probe stages and the terminal sink (depth == len(stages)).
func (w *pipeWorker) probeStage(depth int, cols [][]int64, n int, sel []int, mult []int64) {
	if ck := w.clock; ck != nil {
		prev := ck.cur
		ck.to(depth + 1)
		ck.batches[depth+1]++
		w.probeStageBody(depth, cols, n, sel, mult)
		ck.to(prev)
		return
	}
	w.probeStageBody(depth, cols, n, sel, mult)
}

func (w *pipeWorker) probeStageBody(depth int, cols [][]int64, n int, sel []int, mult []int64) {
	if depth == len(w.op.stages) {
		if w.agg != nil {
			w.agg.addBatch(cols, n, sel, mult, &w.aggScr)
		} else {
			w.send(cols, n, sel, mult)
		}
		return
	}
	st := w.op.stages[depth]
	sc := &w.stages[depth]
	sc.hashes = hashLive(sc.hashes, cols, st.probeKeys, n, sel)
	t := st.table
	if st.counting {
		var rows int64
		sc.sel, rows = t.countMatches(cols, st.probeKeys, sc.hashes, sel, mult, sc.sel, sc.mult[:n])
		if len(sc.sel) > 0 {
			w.counts[depth+1] += rows
			for k, c := range st.probeOut {
				sc.out[k] = cols[c]
			}
			w.probeStage(depth+1, sc.out, n, sc.sel, sc.mult[:n])
		}
		return
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			w.walkChain(depth, st, t, cols, i, sc.hashes[i])
		}
	} else {
		for k, i := range sel {
			w.walkChain(depth, st, t, cols, i, sc.hashes[k])
		}
	}
	if len(sc.pairsB) > 0 {
		w.flushStage(depth, cols)
	}
}

// send copies a finished chunk into a pooled shell and hands it to the
// consumer. Both the shell acquisition and the channel send select on quit,
// so producers never block past an early Close.
func (w *pipeWorker) send(cols [][]int64, n int, sel []int, mult []int64) {
	if w.stopped {
		return
	}
	var shell *Batch
	select {
	case shell = <-w.op.free:
	case <-w.op.quit:
		w.stopped = true
		return
	}
	m := n
	if sel != nil {
		m = len(sel)
	}
	for c := range shell.Cols {
		shell.Cols[c] = compactInto(shell.Cols[c], cols[c], n, sel)
	}
	if mult != nil {
		shell.Mult = compactInto(shell.Mult, mult, n, sel)
	}
	shell.N = m
	shell.Sel = nil
	select {
	case w.op.ch <- shell:
	case <-w.op.quit:
		w.stopped = true
	}
}

// compactInto copies the live rows of src (rows 0..n-1, or those of sel)
// densely into dst's BatchSize-capacity buffer and returns them.
func compactInto(dst, src []int64, n int, sel []int) []int64 {
	dst = dst[:BatchSize]
	if sel == nil {
		return dst[:copy(dst, src[:n])]
	}
	for k, i := range sel {
		dst[k] = src[i]
	}
	return dst[:len(sel)]
}

func (w *pipeWorker) walkChain(depth int, st *pipeStage, t *joinTable, cols [][]int64, i int, h uint64) {
	sc := &w.stages[depth]
	for ci := t.head[h&t.mask]; ci != 0; {
		bi := ci - 1
		ci = t.next[bi]
		if t.hashes[bi] != h {
			continue
		}
		if !colKeysEqual(t.data.cols, st.buildKeys, int(bi), cols, st.probeKeys, i) {
			continue
		}
		sc.pairsB = append(sc.pairsB, bi)
		sc.pairsP = append(sc.pairsP, int32(i))
		if len(sc.pairsB) == BatchSize {
			w.flushStage(depth, cols)
		}
	}
}

// flushStage residual-filters the pending pairs of depth, stitches the
// survivors into the stage's scratch chunk, and recurses.
func (w *pipeWorker) flushStage(depth int, cols [][]int64) {
	st := w.op.stages[depth]
	sc := &w.stages[depth]
	pb, pp := filterPairs(st.residual, &st.table.data, cols, sc.pairsB, sc.pairsP)
	if m := len(pb); m > 0 {
		w.counts[depth+1] += int64(m)
		gatherPairs(sc.out, &st.table.data, st.buildOut, cols, st.probeOut, pb, pp)
		w.probeStage(depth+1, sc.out, m, nil, nil)
	}
	sc.pairsB, sc.pairsP = sc.pairsB[:0], sc.pairsP[:0]
}

func (p *parallelPipelineOp) Next() (*Batch, error) {
	if p.stream {
		if p.last != nil {
			// Recycle the batch the consumer just finished with.
			select {
			case p.free <- p.last:
			default:
			}
			p.last = nil
		}
		b, ok := <-p.ch
		if !ok {
			return nil, nil
		}
		p.last = b
		return b, nil
	}
	return p.out.emit(&p.batch, &p.pos), nil
}

func (p *parallelPipelineOp) Close() error {
	if p.stream && !p.closed {
		p.closed = true
		close(p.quit)
		// Drain until the closer goroutine closes ch: releases blocked
		// producers and guarantees the counter merge happened before
		// Close returns.
		for range p.ch {
		}
		p.last = nil
	}
	p.out.n = 0 // the columns stay for the next execution
	p.mem.ReleaseAll()
	return nil
}
