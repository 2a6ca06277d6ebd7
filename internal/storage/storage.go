// Package storage is the pluggable table storage layer beneath the catalog:
// a narrow Backend interface — columnar snapshots, batched append, wholesale
// reset, scans with predicate pushdown, and flush — with two
// implementations.
//
// A store's column snapshot is the table: the one in-memory copy of its
// rows, which the executor scans as zero-copy column windows and the catalog
// reads for statistics. Rows are only how data arrives — Append batches and
// log records — and every backend turns them into columns once; a producer
// that already holds columns (a stream window, a catalog seeding a fresh
// directory) publishes them as they are with ResetSnapshot.
//
// MemStore publishes the snapshot behind one atomic pointer, so an Append
// never invalidates the columns an in-flight execution is reading (the old
// snapshot stays intact for its holders; see Snapshot).
//
// DiskStore is a log-structured persistent backend layered over a MemStore:
// every append is framed into a write-ahead log, and Flush compacts the
// unflushed tail into an immutable column-segment file — rows sorted by the
// table's clustered column, per-column zone maps (min/max) in the header.
// A table directory is a manifest, one log and segments; the store keeps no
// index (an index-NL join hashes the inner relation like any build side, and
// the row ids a persisted index would need do not survive an append). On
// open, segments are decoded column by column into a snapshot sized from the
// manifest (the log's rows after them), so serving reads are as fast as the
// pure in-memory store; the segment zone maps additionally let every scan
// skip whole segments that a pushed-down predicate proves empty: an executor
// scan of a disk table reads only the row ranges DiskStore.Ranges keeps, the
// ranges Scan's iterator walks too.
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
// constant Val. Backends use predicates only to PRUNE (skip row ranges that
// provably contain no matching row); the caller still filters the returned
// batches, so a backend that ignores predicates is merely slower, never
// wrong.
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
// from a process-wide counter, and an append's snapshot carries its
// predecessor's. Two snapshots of one epoch therefore agree on the rows
// below the smaller N: the larger is the smaller plus appended rows, which
// is what lets state derived from the first N rows absorb only the rest.
// ResetSnapshot ignores the Epoch of the snapshot it is handed.
type Snapshot struct {
	Cols  [][]int64
	N     int
	Epoch uint64
}

// epochs hands out snapshot epochs; 0 is never one.
var epochs atomic.Uint64

// newEpoch returns an epoch no snapshot has had.
func newEpoch() uint64 { return epochs.Add(1) }

// Backend is the storage interface a catalog table binds to. What only a
// persistent table does — report the version it loaded, close its files —
// lives on *DiskStore, which the catalog holds as such.
type Backend interface {
	// Snapshot returns the current immutable column-major view.
	Snapshot() *Snapshot
	// Append adds rows (batched; each row len must equal the store width),
	// durably for persistent backends. The new rows are visible in
	// snapshots taken after Append returns.
	Append(rows [][]int64) error
	// ResetSnapshot replaces the store's content wholesale with snap — a
	// stream window republished each slice. The columns are shared, not
	// copied: the caller must never write to rows < snap.N of them again
	// (their capacity is clipped, so the store's own appends copy rather
	// than write into arrays it does not own). The new content starts a new
	// epoch. Persistent backends rewrite their history at the next Flush.
	ResetSnapshot(snap *Snapshot)
	// Scan returns a pooled batch iterator over the rows, pruned by the
	// predicates where zone maps allow, yielding zero-copy column windows
	// of at most batch rows (batch <= 0 uses a default). Callers must
	// Release the iterator when done.
	Scan(preds []Pred, batch int) *SegIter
	// ZoneCols returns the column offsets whose segment zone maps make
	// predicate pruning effective (the clustered column for a DiskStore),
	// or nil. The cost model prices a table scan by the fraction of rows
	// pruning on these leaves it.
	ZoneCols() []int
	// Flush persists everything appended so far together with the given
	// data version. A no-op for volatile backends.
	Flush(version uint64) error
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
