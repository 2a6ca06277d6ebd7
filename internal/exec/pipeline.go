package exec

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// This file is the executor's whole parallel plane: P copies of the serial
// probe spine under an aggregation. When the compiled input of a query's
// aggregation is a right spine of hash joins over a plain scan, each in its
// span shim, a parallelPipelineOp takes the aggregation's place. Its Open
// opens the serial spine once — the scan binds its leaf, every join builds
// its table and charges it — and then runs workers, each on its own copy of
// the same operators: a vecScanOp claiming morsels off one shared cursor,
// vecHashJoinOps probing the shared read-only tables, and shims with spans of
// their own, drained into a worker-local aggTable. After the one join point
// the spans merge into the tree's — their rows are RunStats' cardinalities —
// and the tables merge once. Nothing crosses between workers on the per-row
// path, the workers start and finish inside Open, and Next only hands out the
// merged groups.

// minParallelRows is the smallest probe table worth more than one worker:
// below this, worker startup dominates the scan itself.
const minParallelRows = 4 * BatchSize

// scanWorkers sizes one execution over an n-row probe table: one worker, run
// inline, below minParallelRows, and otherwise at most par and at most one
// per morsel (one batch of the leaf).
func scanWorkers(par, n int) int {
	if n < minParallelRows {
		return 1
	}
	return max(1, min(par, (n+BatchSize-1)/BatchSize))
}

type parallelPipelineOp struct {
	spine VecIterator // the serial aggregation input; opened once per execution
	scan  *vecScanOp  // its leaf scan
	spans []*obs.Span // its shims' spans, top down
	stats *RunStats   // records each execution's workers

	spec    AggSpecExec
	par     int // the compiler's Parallelism
	workers int // of this execution (scanWorkers)
	ws      []*pipeWorker
	cursor  atomic.Int64 // the next morsel of the leaf
	mem     *MemTracker  // the merged groups' charge

	out   colData // the merged groups
	pos   int
	batch Batch
}

// newParallelPipeline returns the aggregation spec over spine run by up to par
// workers, or nil when spine is not a probe spine: a right spine of hash joins
// over a vecScanOp, each directly in its shim.
func newParallelPipeline(spine VecIterator, spec AggSpecExec, par int) *parallelPipelineOp {
	p := &parallelPipelineOp{spine: spine, spec: spec, par: par}
	for v, shimmed := spine, false; ; {
		switch o := v.(type) {
		case *spanOp:
			p.spans = append(p.spans, &o.sp)
			v, shimmed = o.in, true
		case *vecHashJoinOp:
			v, shimmed = o.right, false
		case *vecScanOp:
			if !shimmed {
				return nil
			}
			p.scan = o
			return p
		default:
			return nil
		}
	}
}

// pipeWorker is one worker's copy of the spine and what the copy fills: its
// spans, in the order of the op's, and its partial aggregate.
type pipeWorker struct {
	spine  VecIterator
	scan   *vecScanOp
	spans  []*obs.Span
	agg    *aggTable
	aggScr aggScratch
	err    error
}

// newWorker copies the spine for one worker; Open empties and reuses it.
func (p *parallelPipelineOp) newWorker() *pipeWorker {
	w := &pipeWorker{agg: newAggTable(p.spec)}
	w.spine = w.copyOf(p.spine, &p.cursor)
	return w
}

// copyOf returns the worker's copy of spine operator v and of everything
// below it on the spine.
func (w *pipeWorker) copyOf(v VecIterator, cursor *atomic.Int64) VecIterator {
	switch o := v.(type) {
	case *spanOp:
		c := &spanOp{st: o.st}
		w.spans = append(w.spans, &c.sp)
		c.in = w.copyOf(o.in, cursor)
		return c
	case *vecHashJoinOp:
		return &vecHashJoinOp{right: w.copyOf(o.right, cursor), src: o, lKeys: o.lKeys, rKeys: o.rKeys,
			residual: o.residual, counting: o.counting, emit: colEmitter{buildOut: o.emit.buildOut, probeOut: o.emit.probeOut}}
	}
	w.scan = &vecScanOp{cursor: cursor}
	return w.scan
}

// drain runs the worker's spine to its end into the worker's aggregate.
func (w *pipeWorker) drain() error {
	if err := w.spine.Open(); err != nil {
		return errors.Join(err, w.spine.Close())
	}
	for {
		b, err := w.spine.Next()
		if err != nil || b == nil {
			return errors.Join(err, w.spine.Close())
		}
		w.agg.addBatch(b.Cols, b.N, b.Sel, b.Mult, &w.aggScr)
	}
}

// Open runs the whole aggregation: it opens the serial spine, runs the workers
// to completion over the leaf it bound and merges what they hold. Sizing the
// execution from the snapshot bound here, not at compile time, is what lets a
// held tree use more workers once its probe table has grown.
func (p *parallelPipelineOp) Open() error {
	if err := p.spine.Open(); err != nil {
		return errors.Join(err, p.spine.Close())
	}
	leaf := p.scan.leaf
	leaf.tab = nil // bound: the copies read it as it is
	p.workers = scanWorkers(p.par, leaf.data.n)
	p.stats.workers = p.workers
	for len(p.ws) < p.workers {
		p.ws = append(p.ws, p.newWorker())
	}
	workers := p.ws[:p.workers]
	for _, w := range workers {
		w.scan.leaf = leaf
		for _, sp := range w.spans {
			*sp = obs.Span{}
		}
		w.agg.reset()
	}
	p.cursor.Store(0)
	if len(workers) == 1 {
		workers[0].err = workers[0].drain()
	} else {
		// Every worker gets a goroutine and the caller waits. Running one of
		// them inline instead leaves the goroutine spawned beside it in this
		// P's runnext slot, which an idle P steals only after a sleep: 5–10 %
		// of Q1 at SF 0.005 on 2 vCPUs.
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.err = w.drain()
			}()
		}
		wg.Wait()
	}

	// The partial tables are all held now, beside the join tables: charged as
	// the serial aggregation charges its one before it closes its input.
	var held int64
	for _, w := range workers {
		held += w.agg.approxBytes()
	}
	p.mem.Force(held)
	// The workers' spans sum to exactly the counts the serial tree's would
	// hold, so RunStats feedback is byte-identical at any parallelism.
	err := p.spine.Close()
	for _, w := range workers {
		for i, sp := range w.spans {
			p.spans[i].Merge(sp)
		}
		err = errors.Join(err, w.err)
	}
	if err != nil {
		return err
	}
	agg := workers[0].agg
	for _, w := range workers[1:] {
		agg.mergeFrom(w.agg)
	}
	p.out, p.pos = agg.cols(p.out), 0
	p.mem.Release(held)
	p.mem.Force(colBytes(p.out.width(), p.out.n))
	return nil
}

func (p *parallelPipelineOp) Next() (*Batch, error) {
	return p.out.emit(&p.batch, &p.pos), nil
}

func (p *parallelPipelineOp) Close() error {
	p.out.n = 0 // the columns stay for the next execution
	p.mem.ReleaseAll()
	return nil
}
