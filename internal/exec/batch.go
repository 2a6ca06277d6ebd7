package exec

import (
	"errors"
	"fmt"
)

// BatchSize is the fixed batch capacity of the vectorized executor. Batches
// are column-major: up to BatchSize rows held as one contiguous []int64 per
// column, plus an optional selection vector, so leaf scans hand out
// zero-copy column windows over the base table and predicate/join/agg
// kernels run tight loops over contiguous typed slices.
const BatchSize = 1024

// Batch is one unit of vectorized data flow, laid out column-major:
// Cols[c][i] is column c of row i, 0 <= i < N. Sel, when non-nil, lists the
// live row indices in ascending order; nil means all N rows are live.
//
// Ownership contract (columnar): the column slices reachable through Cols
// either alias immutable base-table storage (zero-copy scan windows) or are
// output buffers owned by the producing operator. The Batch struct, its
// Cols headers, the column buffers of produced batches, and the Sel vector
// are ALL recycled by the producer as soon as the consumer asks for the
// next batch. Consumers must therefore copy values out (not retain Cols or
// Sel) before calling Next again; DrainVec and the materializing drains do
// exactly one such copy per row.
//
// Mult, when non-nil, is a multiplicity vector indexed like a column: live
// row i stands for Mult[i] identical rows. Only a hash join in counting mode
// produces one (Compiler.counted), and only its three consumers read it — the
// span shim, the aggregation and the probe side of another counting join.
// Everything else requires nil (unweighted).
type Batch struct {
	Cols [][]int64
	N    int
	Sel  []int
	Mult []int64
}

// Len returns the number of live rows.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Width returns the number of columns.
func (b *Batch) Width() int { return len(b.Cols) }

// Rows returns the number of rows the batch stands for: the multiplicities of
// its live rows summed, Len when it carries none.
func (b *Batch) Rows() int64 {
	if b.Mult == nil {
		return int64(b.Len())
	}
	var n int64
	if b.Sel == nil {
		for _, m := range b.Mult[:b.N] {
			n += m
		}
	} else {
		for _, i := range b.Sel {
			n += b.Mult[i]
		}
	}
	return n
}

// unweighted is the guard of every consumer that does not read Mult: handed a
// weighted batch it would silently return a short result, so a counting join
// compiled under it — a compiler bug — surfaces as the query's error instead.
func unweighted(b *Batch, consumer string) error {
	if b.Mult != nil {
		return fmt.Errorf("exec: %s does not read multiplicities but its input is a counting join", consumer)
	}
	return nil
}

// VecIterator is the batch-at-a-time (vectorized Volcano) operator
// interface. Next returns nil at end of stream. An operator tree is
// re-openable: after Close, Open starts a new execution over what the tables
// hold then (execRoot states the contract and its two refusals).
type VecIterator interface {
	// Open prepares the operator (builds a hash table, folds an aggregation's
	// input), emptying and reusing whatever buffers a previous
	// execution left it.
	Open() error
	// Next returns the next batch, or nil at end of stream.
	Next() (*Batch, error)
	// Close ends the execution: trackers are released, files unlinked.
	// Buffers the operator owns keep their capacity.
	Close() error
}

// Drain runs a vectorized iterator to completion and returns its live-row
// count. each, when non-nil, is the sink: it is handed every batch as it is
// produced and must copy out what it keeps before returning (the batch is
// recycled); an error it returns ends the execution. A nil each only counts.
// Drain rejects weighted batches and closes the tree on every path, joining
// Close's error to the one that ended the execution.
func Drain(v VecIterator, each func(*Batch) error) (int64, error) {
	if err := v.Open(); err != nil {
		return 0, errors.Join(err, v.Close())
	}
	var n int64
	for {
		b, err := v.Next()
		if err == nil && b == nil {
			return n, v.Close()
		}
		if err == nil {
			err = unweighted(b, "a drain")
		}
		if err == nil && each != nil {
			err = each(b)
		}
		if err != nil {
			return n, errors.Join(err, v.Close())
		}
		n += int64(b.Len())
	}
}

// DrainVec runs a vectorized iterator to completion and returns all rows.
// Each batch's live rows are copied out of the (recycled) columnar batch
// exactly once, into one backing allocation per batch; the returned rows
// are never reused and may be retained indefinitely.
func DrainVec(v VecIterator) ([]Row, error) {
	var out []Row
	if _, err := Drain(v, func(b *Batch) error { out = AppendRows(out, b); return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendRows copies b's live rows onto out, in one backing allocation.
func AppendRows(out []Row, b *Batch) []Row {
	n, w := b.Len(), b.Width()
	buf := make([]int64, n*w)
	if b.Sel == nil {
		for c, col := range b.Cols {
			for i := 0; i < n; i++ {
				buf[i*w+c] = col[i]
			}
		}
	} else {
		for c, col := range b.Cols {
			for k, i := range b.Sel {
				buf[k*w+c] = col[i]
			}
		}
	}
	for i := 0; i < n; i++ {
		out = append(out, Row(buf[i*w:(i+1)*w:(i+1)*w]))
	}
	return out
}

// CountVec runs a vectorized iterator to completion and returns the row
// count without retaining rows.
func CountVec(v VecIterator) (int64, error) { return Drain(v, nil) }

// ---- materialized columnar data ----

// colData is a materialized column-major row set: cols[c][i] is column c of
// row i, 0 <= i < n. It is the unit of blocking materialization (join build
// sides, aggregation outputs) and of base-table storage handed out by the
// catalog.
type colData struct {
	cols [][]int64
	n    int
}

func (d *colData) width() int { return len(d.cols) }

// reset empties d; its columns keep their capacity.
func (d *colData) reset() {
	for c := range d.cols {
		d.cols[c] = d.cols[c][:0]
	}
	d.n = 0
}

// sized returns s at length n with unspecified contents, reusing its array
// when that is large enough. A first allocation is exact; a regrown one leaves
// a quarter of room, for the table that gains rows with every execution.
func sized[T any](s []T, n int) []T {
	switch {
	case cap(s) >= n:
		return s[:n]
	case cap(s) == 0:
		return make([]T, n)
	}
	return make([]T, n, n+n/4)
}

// window returns the zero-copy column windows of rows [lo, hi) into dst
// (reused across calls).
func (d *colData) window(dst [][]int64, lo, hi int) [][]int64 {
	dst = dst[:0]
	for _, col := range d.cols {
		dst = append(dst, col[lo:hi])
	}
	return dst
}

// emit hands out rows [*pos, *pos+BatchSize) of d as a dense batch of
// zero-copy windows in b and advances *pos; nil at the end.
func (d *colData) emit(b *Batch, pos *int) *Batch {
	if *pos >= d.n {
		return nil
	}
	end := min(*pos+BatchSize, d.n)
	b.Cols, b.N, b.Sel = d.window(b.Cols, *pos, end), end-*pos, nil
	*pos = end
	return b
}

// appendBatch copies a batch's live rows onto the end of d, initializing
// the column set from the first batch.
func (d *colData) appendBatch(b *Batch) {
	if d.cols == nil {
		d.cols = make([][]int64, b.Width())
	}
	if b.Sel == nil {
		for c := range d.cols {
			d.cols[c] = append(d.cols[c], b.Cols[c][:b.N]...)
		}
	} else {
		for c := range d.cols {
			col, dst := b.Cols[c], d.cols[c]
			for _, i := range b.Sel {
				dst = append(dst, col[i])
			}
			d.cols[c] = dst
		}
	}
	d.n += b.Len()
}

// colDrainer is implemented by operators that can materialize their entire
// output as colData without going through the batch stream. drainVecCols
// uses it as a fast path, so a hash-join build takes a base scan without
// copying what it does not filter.
type colDrainer interface {
	drainCols(buf *colData) (colData, error)
}

// drainVecCols opens in, materializes every live row column-wise and closes
// it — the unbounded hash-join build's materializing primitive. What is
// copied goes into buf — the consumer's materialization of its previous
// execution, or nil — so a re-opened consumer allocates only what outgrew it.
// The result is buf's content or columns the source lends: read-only, and
// valid until the next drain.
func drainVecCols(in VecIterator, buf *colData) (colData, error) {
	if buf == nil {
		buf = new(colData)
	}
	if d, ok := in.(colDrainer); ok {
		return d.drainCols(buf)
	}
	buf.reset()
	_, err := Drain(in, func(b *Batch) error { buf.appendBatch(b); return nil })
	return *buf, err
}

// ---- vectorized scan ----

// vecScanOp is the scan of one leaf: it emits zero-copy windows of the
// leaf's data columns over the leaf's row ranges, selected by the leaf's
// filter.
type vecScanOp struct {
	leaf  scanLeaf
	r     int // the range being read
	pos   int // the next row to read
	batch Batch
	sel   []int
	ids   []int32   // drainCols' surviving row ids
	lent  [][]int64 // drainCols' headers over an unfiltered table's columns
}

// NewVecScan returns a vectorized filtering scan over column-major
// data (cols[c] must all have length n): each batch is a set of zero-copy
// column windows with a selection vector for the surviving rows. Structured
// conditions in the filter are evaluated with typed columnar kernels (one
// operator dispatch per batch over contiguous slices).
func NewVecScan(cols [][]int64, n int, filter ScanFilter) VecIterator {
	return &vecScanOp{leaf: leafOfCols(cols, n, filter)}
}

// leafOfCols is the leaf of a scan whose filter reads the emitted columns.
func leafOfCols(cols [][]int64, n int, filter ScanFilter) scanLeaf {
	return scanLeaf{data: colData{cols: cols, n: n}, filter: filter, pred: cols}
}

func (s *vecScanOp) Open() error {
	s.leaf.bind()
	s.r, s.pos = 0, 0
	return nil
}

func (s *vecScanOp) Next() (*Batch, error) {
	for s.r < len(s.leaf.ranges) {
		rg := s.leaf.ranges[s.r]
		lo := max(s.pos, rg.Lo)
		if lo >= rg.Hi {
			s.r++
			continue
		}
		end := min(lo+BatchSize, rg.Hi)
		s.pos = end
		s.batch.Cols = s.leaf.data.window(s.batch.Cols, lo, end)
		s.batch.N = end - lo
		if s.leaf.filter.Empty() {
			s.batch.Sel = nil
			return &s.batch, nil
		}
		s.sel = s.leaf.sel(lo, end, s.sel)
		if len(s.sel) == 0 {
			continue
		}
		s.batch.Sel = s.sel
		return &s.batch, nil
	}
	return nil, nil
}

func (s *vecScanOp) Close() error { return nil }

// drainCols hands a blocking consumer (a join build) the scan's rows
// without the batch stream. An unfiltered scan lends the snapshot's columns
// as they are: they are immutable, consumers only read a materialization, and
// the clipped capacity makes a stray append copy rather than write into the
// table (with no conditions, nothing is pruned). A filtered scan collects
// its survivors' row ids window by window over its ranges, then copies each
// column once into buf, at exact size when buf's is too small.
func (s *vecScanOp) drainCols(buf *colData) (colData, error) {
	s.leaf.bind()
	d := s.leaf.data
	if s.leaf.filter.Empty() {
		s.lent = sized(s.lent, d.width())
		for c, col := range d.cols {
			s.lent[c] = col[:d.n:d.n]
		}
		return colData{cols: s.lent, n: d.n}, nil
	}
	buf.cols = sized(buf.cols, d.width())
	s.ids = s.ids[:0]
	for _, rg := range s.leaf.ranges {
		for lo := rg.Lo; lo < rg.Hi; lo += BatchSize {
			s.sel = s.leaf.sel(lo, min(lo+BatchSize, rg.Hi), s.sel)
			for _, i := range s.sel {
				s.ids = append(s.ids, int32(lo+i))
			}
		}
	}
	buf.n = len(s.ids)
	for c, col := range d.cols {
		buf.cols[c] = sized(buf.cols[c], buf.n)
		Gather(buf.cols[c], col, s.ids)
	}
	return *buf, nil
}
