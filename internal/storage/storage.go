// Package storage holds a table's rows: one Store, which publishes the
// table's content as an immutable column Snapshot behind one atomic
// pointer and, when opened on a directory, also keeps it on disk.
//
// A snapshot is the table: the one in-memory copy of its rows, which the
// executor scans as zero-copy column windows and the catalog reads for
// statistics. Rows are only how data arrives — Append batches and log
// records — and the store turns them into columns once; a producer that
// already holds columns (a stream window, a catalog seeding a fresh
// directory) publishes them as they are with ResetSnapshot. A snapshot's
// (Epoch, N) names its content exactly, so state derived from a table pins
// that pair.
//
// Writers (Append, ResetSnapshot, Flush, Close) serialize on the store's
// lock; readers never take it. Everything a reader needs — columns, row
// count, epoch and the zone maps of the segments under the rows — is in
// the snapshot it loads, so an append's fsync or a flush's segment writes
// never hold up a scan, and a snapshot's zone maps always describe its own
// rows.
//
// On disk a store is log-structured: every append is framed into a
// write-ahead log before it is published, and Flush compacts the unflushed
// tail into an immutable column segment — rows sorted by the table's
// clustered column, per-column zone maps (min/max) in the header. A table
// directory is a manifest, one log and segments; the store keeps no index
// (an index-NL join hashes the inner relation like any build side, and the
// row ids a persisted index would need do not survive an append). On open,
// segments are decoded column by column into a snapshot sized from the
// manifest (the log's rows after them), so serving reads are in-memory
// reads; the zone maps let every scan skip whole segments that a pushed-down
// predicate proves empty (Snapshot.Ranges).
package storage

import (
	"sync"
	"sync/atomic"
)

// CmpOp is a pushed-down comparison operator. The constants deliberately
// mirror relalg.CmpOp but are redeclared here so the storage layer depends
// on nothing above it.
type CmpOp uint8

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// Pred is one pushed-down scan predicate: column Col compared to the
// constant Val. The store uses predicates only to PRUNE (skip row ranges
// that provably contain no matching row); the caller still filters the
// returned rows, so a range kept for want of a zone map costs time, never
// rows.
type Pred struct {
	Col int
	Op  CmpOp
	Val int64
}

// Snapshot is an immutable column-major view of a store's rows:
// Cols[c][i] is row i's value in column c, valid for i < N. Later appends
// publish new snapshots without disturbing existing ones, so holders may
// keep reading (and hand out zero-copy windows) for as long as they like.
//
// Epoch names the content's base: every snapshot that does not extend
// another — a new store's first, each ResetSnapshot's — takes a fresh one
// from a process-wide counter, and an append's or a flush's snapshot carries
// its predecessor's. Two snapshots of one epoch therefore agree on the rows
// below the smaller N: the larger is the smaller plus appended rows, which
// is what lets state derived from the first N rows absorb only the rest,
// and (Epoch, N) is the content's version. ResetSnapshot ignores the Epoch
// of the snapshot it is handed.
type Snapshot struct {
	Cols  [][]int64
	N     int
	Epoch uint64

	// segs are the segments whose rows are the snapshot's first rows, in
	// order; the rows after them have no zone maps. Only a store opened on
	// a directory sets them, and a reset drops them.
	segs []segMeta
}

// epochs hands out snapshot epochs; 0 is never one.
var epochs atomic.Uint64

// newEpoch returns an epoch no snapshot has had.
func newEpoch() uint64 { return epochs.Add(1) }

// Ranges returns, in buf's array, the ascending row ranges of the snapshot
// that its segments' zone maps cannot exclude under preds, with the number
// of rows they exclude. The rows after the segments have no zone maps and
// are always kept; without predicates the range is the whole snapshot. It
// reads only the snapshot.
func (s *Snapshot) Ranges(preds []Pred, buf []Range) (ranges []Range, pruned int) {
	ranges = buf[:0]
	lo := 0
	if len(preds) > 0 {
		for _, sm := range s.segs {
			if prunes(sm.zones, preds) {
				pruned += sm.Rows
			} else {
				ranges = appendRange(ranges, Range{lo, lo + sm.Rows})
			}
			lo += sm.Rows
		}
	}
	if lo < s.N {
		ranges = appendRange(ranges, Range{lo, s.N})
	}
	return ranges, pruned
}

// appendRange coalesces adjacent ranges so the scan windows stay large.
func appendRange(ranges []Range, r Range) []Range {
	if n := len(ranges); n > 0 && ranges[n-1].Hi == r.Lo {
		ranges[n-1].Hi = r.Hi
		return ranges
	}
	return append(ranges, r)
}

// DefaultBatchRows is the window size Scan uses when the caller passes
// batch <= 0. It matches the executor's batch size.
const DefaultBatchRows = 1024

// Range is a half-open row range [Lo, Hi) of a snapshot.
type Range struct{ Lo, Hi int }

// SegIter iterates a store's rows as zero-copy column windows of at most
// batchRows rows each, skipping segments the zone maps prune. Iterators are
// pooled; Release returns one for reuse.
type SegIter struct {
	snap      *Snapshot
	spans     []Range
	i         int
	batchRows int
	win       [][]int64
	pruned    int // rows skipped by zone pruning
}

var segIterPool = sync.Pool{New: func() any { return &SegIter{} }}

// reset points a pooled iterator (segIterPool.Get) at the retained spans of
// snap, which the caller filled into the iterator's own spans buffer.
func (it *SegIter) reset(snap *Snapshot, spans []Range, prunedRows, batch int) *SegIter {
	if batch <= 0 {
		batch = DefaultBatchRows
	}
	it.snap = snap
	it.spans = spans
	it.i = 0
	it.batchRows = batch
	it.pruned = prunedRows
	if cap(it.win) < len(snap.Cols) {
		it.win = make([][]int64, len(snap.Cols))
	}
	it.win = it.win[:len(snap.Cols)]
	return it
}

// Next returns the next window: up to batchRows rows of every column,
// zero-copy over the snapshot arrays. The returned slice headers are reused
// by the following Next call; the underlying data is immutable. ok is false
// when the scan is exhausted.
func (it *SegIter) Next() (cols [][]int64, n int, ok bool) {
	for it.i < len(it.spans) {
		sp := &it.spans[it.i]
		if sp.Lo >= sp.Hi {
			it.i++
			continue
		}
		hi := min(sp.Lo+it.batchRows, sp.Hi)
		for c := range it.win {
			it.win[c] = it.snap.Cols[c][sp.Lo:hi:hi]
		}
		n = hi - sp.Lo
		sp.Lo = hi
		return it.win, n, true
	}
	return nil, 0, false
}

// PrunedRows reports how many rows the zone maps let this scan skip.
func (it *SegIter) PrunedRows() int { return it.pruned }

// Release returns the iterator to the pool. The iterator must not be used
// afterwards.
func (it *SegIter) Release() {
	it.snap = nil
	it.spans = it.spans[:0]
	for c := range it.win {
		it.win[c] = nil
	}
	segIterPool.Put(it)
}

// Zone is the min/max summary of one column over one segment.
type Zone struct {
	Min, Max int64
}

// excludes reports whether the predicate proves that NO value in [Min, Max]
// can satisfy it — the zone-map pruning test. It must stay conservative:
// false negatives cost a segment read, false positives lose rows.
func (z Zone) excludes(p Pred) bool {
	switch p.Op {
	case CmpEQ:
		return p.Val < z.Min || p.Val > z.Max
	case CmpNE:
		return z.Min == z.Max && z.Min == p.Val
	case CmpLT:
		return z.Min >= p.Val
	case CmpLE:
		return z.Min > p.Val
	case CmpGT:
		return z.Max <= p.Val
	case CmpGE:
		return z.Max < p.Val
	}
	return false
}

// prunes reports whether any predicate excludes the whole zone vector.
func prunes(zones []Zone, preds []Pred) bool {
	for _, p := range preds {
		if p.Col >= 0 && p.Col < len(zones) && zones[p.Col].excludes(p) {
			return true
		}
	}
	return false
}
