package exec

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the executor's whole parallel plane: the fused pipeline at the
// root of an aggregating query, which runs the
// scan → probe → … → probe → partial aggregate chain inside each worker.
// Workers claim probe-side morsels off an atomic cursor as zero-copy column
// windows, push them through the probe cascade in columnar chunks — per-batch
// hashing, pair collection against the shared immutable join tables, residual
// filtering and one Gather per output column — and sink the surviving chunks
// into a worker-local aggTable, merged exactly once when all workers finish.
// Nothing crosses between workers on the per-row path, and the workers start
// and finish inside Open: no goroutine outlives it, and Next only hands out
// the merged groups.

// morselSize is the number of base-table rows a pipeline worker claims at a
// time. One atomic fetch-add per morsel keeps coordination overhead
// negligible while still load-balancing skewed predicate costs.
const morselSize = BatchSize

// minParallelRows is the smallest probe table worth more than one worker:
// below this, worker startup dominates the scan itself.
const minParallelRows = 4 * morselSize

// scanWorkers sizes one execution over an n-row probe table: one worker, run
// inline, below minParallelRows, and otherwise at most par and at most one
// per morsel.
func scanWorkers(par, n int) int {
	if n < minParallelRows {
		return 1
	}
	return max(1, min(par, (n+morselSize-1)/morselSize))
}

// pipeStage is one fused hash-join probe: the compiled build-side subtree,
// the key offsets of the build row and of the incoming probe row, the
// residual predicates first checkable at this join, the build and probe
// columns the join emits (its live output, build columns first), and the
// cardinality counter for the join's output. A counting stage
// (Compiler.counted) emits no build column and passes each matching probe row
// on once with its match count; only a counting stage or the terminal may
// follow it. The joinTable is built at Open and is read-only afterwards, so all
// workers probe it without synchronization.
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
	agg     AggSpecExec  // the terminal: worker-local partial aggregation
	par     int          // the compiler's Parallelism
	workers int          // of this execution (scanWorkers)
	ws      []*pipeWorker
	mem     *MemTracker // child tracker; Force-only (only an unbounded query fuses)
	// prof, when non-nil, receives the fused profile: per-worker stage
	// clocks attribute each worker's wall time exclusively to the segment
	// it is executing (scan, probe stage, terminal sink) and are merged
	// into the self-time spans once after the workers join. Nil — the
	// default — leaves only a per-chunk nil check on the probe path.
	prof *pipeProf

	out   colData // the merged groups
	pos   int
	batch Batch
}

// newParallelPipeline assembles a fused pipeline over a probe-side base
// table, ending in the aggregation agg.
func newParallelPipeline(leaf scanLeaf, scanCard *int64,
	stages []*pipeStage, agg AggSpecExec, workers int) *parallelPipelineOp {
	return &parallelPipelineOp{leaf: leaf, scanCard: scanCard, stages: stages, agg: agg, par: workers}
}

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
// the terminal sink, the worker's partial aggregate table.
type pipeWorker struct {
	op     *parallelPipelineOp
	counts []int64
	stages []stageScratch
	agg    *aggTable
	aggScr aggScratch
	clock  *stageClock // nil unless profiling
}

// Open runs the whole pipeline: it builds every stage's join table, runs the
// workers to completion and merges what they hold. Sizing the execution from
// the snapshot bound here, not at compile time, is what lets a held tree use
// more workers once its probe table has grown.
func (p *parallelPipelineOp) Open() error {
	p.leaf.bind()
	p.workers = scanWorkers(p.par, p.leaf.data.n)
	for _, st := range p.stages {
		data, err := drainVecCols(st.build, &st.data)
		if err != nil {
			return err
		}
		p.mem.Force(colBytes(data.width(), data.n) + joinTableBytes(data.n, st.counting))
		st.table = buildJoinTable(st.table, data, st.buildKeys, st.counting)
	}

	for len(p.ws) < p.workers {
		p.ws = append(p.ws, p.newWorker())
	}
	workers := p.ws[:p.workers]
	for _, pw := range workers {
		clear(pw.counts)
		pw.agg.reset()
		if p.prof != nil {
			pw.clock = newStageClock(len(p.stages) + 2)
		}
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	if len(workers) == 1 {
		workers[0].run(&cursor)
	} else {
		// Every worker gets a goroutine and the caller waits. Running one of
		// them inline instead leaves the goroutine spawned beside it in this
		// P's runnext slot, which an idle P steals only after a sleep: 5–10 %
		// of Q1 at SF 0.005 on 2 vCPUs.
		for _, pw := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pw.run(&cursor)
			}()
		}
		wg.Wait()
	}

	// Exact-cardinality merge: per-worker counters sum to precisely the
	// counts the serial operator tree would have produced, so RunStats
	// feedback into the adaptive loop is byte-identical at any parallelism.
	for _, pw := range workers {
		*p.scanCard += pw.counts[0]
		for i, st := range p.stages {
			*st.card += pw.counts[i+1]
		}
	}
	agg := workers[0].agg
	for _, pw := range workers[1:] {
		agg.mergeFrom(pw.agg)
	}
	p.out, p.pos = agg.cols(p.out), 0
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
		agg:    newAggTable(p.agg),
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
		p.prof.term.Record(0, 0, time.Duration(ck.times[last]))
	}
	p.prof.term.Record(int64((p.out.n+BatchSize-1)/BatchSize), int64(p.out.n), 0)
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
		if lo >= data.n {
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
		w.agg.addBatch(cols, n, sel, mult, &w.aggScr)
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
	return p.out.emit(&p.batch, &p.pos), nil
}

func (p *parallelPipelineOp) Close() error {
	p.out.n = 0 // the columns stay for the next execution
	p.mem.ReleaseAll()
	return nil
}
