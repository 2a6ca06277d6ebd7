package exec

import (
	"sync"
	"sync/atomic"
)

// morselSize is the number of base-table rows a scan worker claims at a
// time. One atomic fetch-add per morsel keeps coordination overhead
// negligible while still load-balancing skewed predicate costs.
const morselSize = BatchSize

// minParallelRows is the smallest base table worth parallelizing: below
// this, worker startup dominates the scan itself.
const minParallelRows = 4 * morselSize

type parallelScanOp struct {
	leaf    scanLeaf
	par     int // the compiler's Parallelism
	workers int // of this execution: at most par, at most one per morsel

	cursor atomic.Int64
	ch     chan *Batch
	quit   chan struct{}
	wg     sync.WaitGroup
	closed bool
	// Free lists mirroring each other: recycled selection vectors for the
	// workers and recycled Batch shells (struct + column-header slice) for
	// the exchange. Batches carry zero-copy column windows, so the shells
	// and sel vectors are the only per-batch state to pool.
	selFree   chan []int
	batchFree chan *Batch
	last      *Batch // batch handed out by the previous Next call
}

// NewParallelScan returns a morsel-driven parallel filtering scan over
// column-major data: workers claim fixed-size morsels off a shared atomic
// cursor, compute the selection vector with the columnar kernels, and feed
// zero-copy column-window batches through an exchange channel to the single
// consumer calling Next. Each emitted batch owns its shell and selection
// vector until the consumer asks for the next batch, at which point both
// return to free lists for reuse by the workers.
func NewParallelScan(cols [][]int64, n int, filter ScanFilter, workers int) VecIterator {
	return newParallelScan(leafOfCols(cols, n, filter), workers)
}

func newParallelScan(leaf scanLeaf, workers int) *parallelScanOp {
	return &parallelScanOp{leaf: leaf, par: workers}
}

// scanWorkers caps the worker count at one per morsel of an n-row table.
func scanWorkers(workers, n int) int {
	if workers < 1 {
		workers = 1
	}
	if max := (n + morselSize - 1) / morselSize; workers > max {
		workers = max
	}
	return workers
}

func (s *parallelScanOp) Open() error {
	s.leaf.bind()
	s.workers = scanWorkers(s.par, s.leaf.data.n)
	s.cursor.Store(0)
	s.closed = false
	s.ch = make(chan *Batch, 2*s.workers)
	s.quit = make(chan struct{})
	// Sized so a put never blocks: one entry per in-flight batch (channel
	// capacity) plus one per worker and the consumer's retained batch.
	s.selFree = make(chan []int, 3*s.workers+1)
	s.batchFree = make(chan *Batch, 3*s.workers+1)
	s.last = nil
	s.wg.Add(s.workers)
	for w := 0; w < s.workers; w++ {
		go s.worker()
	}
	go func() {
		s.wg.Wait()
		close(s.ch)
	}()
	return nil
}

// selBuf fetches a recycled selection buffer, or allocates one.
func (s *parallelScanOp) selBuf() []int {
	select {
	case buf := <-s.selFree:
		return buf
	default:
		return make([]int, 0, morselSize)
	}
}

// batchShell fetches a recycled Batch shell, or allocates one.
func (s *parallelScanOp) batchShell() *Batch {
	select {
	case b := <-s.batchFree:
		return b
	default:
		return &Batch{Cols: make([][]int64, 0, s.leaf.data.width())}
	}
}

func (s *parallelScanOp) worker() {
	defer s.wg.Done()
	var sel []int
	for {
		lo := int(s.cursor.Add(1)-1) * morselSize
		if lo >= s.leaf.data.n {
			return
		}
		hi := lo + morselSize
		if hi > s.leaf.data.n {
			hi = s.leaf.data.n
		}
		b := s.batchShell()
		b.Cols = s.leaf.data.window(b.Cols, lo, hi)
		b.N = hi - lo
		b.Sel = nil
		if !s.leaf.filter.Empty() {
			if sel == nil {
				sel = s.selBuf()
			}
			sel = s.leaf.sel(lo, hi, sel)
			if len(sel) == 0 {
				// Recycle the shell; keep sel for the next morsel.
				select {
				case s.batchFree <- b:
				default:
				}
				continue
			}
			b.Sel = sel
			sel = nil // ownership moves to the batch until recycled
		}
		select {
		case s.ch <- b:
		case <-s.quit:
			return
		}
	}
}

func (s *parallelScanOp) Next() (*Batch, error) {
	if s.last != nil {
		// The consumer is done with the previous batch; its selection
		// vector and shell go back to the workers.
		if s.last.Sel != nil {
			select {
			case s.selFree <- s.last.Sel:
			default:
			}
			s.last.Sel = nil
		}
		select {
		case s.batchFree <- s.last:
		default:
		}
	}
	s.last = nil
	b, ok := <-s.ch
	if !ok {
		return nil, nil
	}
	s.last = b
	return b, nil
}

func (s *parallelScanOp) Close() error {
	if s.ch == nil || s.closed {
		return nil
	}
	s.closed = true
	close(s.quit)
	// Unblock any worker parked on a send, then wait for them all.
	for range s.ch {
	}
	s.wg.Wait()
	s.last = nil
	return nil
}

// drainCols materializes the filtered scan without the exchange channel:
// workers claim morsels off a private cursor and append surviving rows
// column-wise to per-worker buffers, concatenated once at the end. This is
// the build-side path of the parallel pipeline — the whole drain runs at
// worker parallelism with zero cross-worker coordination beyond the cursor.
func (s *parallelScanOp) drainCols(buf *colData) (colData, error) {
	s.leaf.bind()
	data := s.leaf.data
	workers := scanWorkers(s.par, data.n)
	var cursor atomic.Int64
	bufs := make([]colData, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := colData{cols: make([][]int64, data.width())}
			sel := make([]int, 0, morselSize)
			var window [][]int64
			for {
				lo := int(cursor.Add(1)-1) * morselSize
				if lo >= data.n {
					break
				}
				hi := lo + morselSize
				if hi > data.n {
					hi = data.n
				}
				window = data.window(window, lo, hi)
				if s.leaf.filter.Empty() {
					out.appendSel(window, hi-lo, nil)
					continue
				}
				sel = s.leaf.sel(lo, hi, sel)
				out.appendSel(window, hi-lo, sel)
			}
			bufs[w] = out
		}(w)
	}
	wg.Wait()
	buf.reset()
	for _, b := range bufs {
		buf.appendFrom(b)
	}
	return *buf, nil
}
