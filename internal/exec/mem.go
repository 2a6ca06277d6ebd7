package exec

import "sync/atomic"

// This file implements per-query memory accounting. A query execution gets
// one root MemTracker carrying the byte budget; every memory-hungry operator
// charges a child tracker, and charges propagate to the root where the
// budget is enforced. Two charge modes exist:
//
//   - Reserve asks for bytes and FAILS (without charging) if granting them
//     would push the root past its budget. Operators that can spill — the
//     hash join build and the hash aggregation table — call Reserve and
//     switch to grace-hash spilling on failure, so on the spill-capable
//     path tracked memory never exceeds the budget.
//   - Force charges unconditionally and records the bytes past the budget
//     as overage. What has no out-of-core fallback uses Force: COUNT(DISTINCT)
//     sets, the aggregation merge of a run whose partials share one hash or
//     that reached maxSpillLevel, a join build chunk that alone overflows
//     past maxSpillLevel, and the aggregation's output — the result set the
//     client reads.
//     The recorded overage makes "the bound held" checkable — tests assert
//     peak <= budget exactly when Overage() == 0.
//
// What is tracked is memory that scales with data volume: materialized
// column sets, join tables, aggregation state, spill partition loads, and
// the streaming batch pools. Constant per-operator scratch (one batch of
// hashes, pair vectors, spill I/O buffers) is bounded by
// O(operators × BatchSize × width) and deliberately left untracked.
//
// A nil *MemTracker is valid everywhere and means "unbounded, untracked":
// every Reserve succeeds and nothing is recorded, so the unbounded fast
// path stays free of accounting overhead beyond a nil check.
type MemTracker struct {
	root  *MemTracker // self for the root tracker
	name  string
	limit int64 // root only; 0 = unbounded

	used    atomic.Int64 // bytes charged to this tracker (subtree-inclusive at the root)
	peak    atomic.Int64
	overage atomic.Int64 // root only: bytes Force-charged past the budget

	// spill statistics, accumulated at the root by the spilling operators.
	spillPartitions atomic.Int64
	spillBytes      atomic.Int64
	spillRecursions atomic.Int64

	// spillDir, root only: the directory spill partition files are created
	// in. Empty means the system temp directory.
	spillDir string
}

// NewMemTracker returns a root tracker enforcing a byte budget; limit 0
// tracks usage and peak without bounding them.
func NewMemTracker(limit int64) *MemTracker {
	t := &MemTracker{limit: limit}
	t.root = t
	return t
}

// SetSpillDir directs spill partition files of this tracker's query into
// dir ("" = system temp directory). Call before execution starts.
func (t *MemTracker) SetSpillDir(dir string) {
	if t != nil {
		t.root.spillDir = dir
	}
}

// SpillDir returns the directory spill files should be created in, "" for
// the system default. Nil-safe.
func (t *MemTracker) SpillDir() string {
	if t == nil {
		return ""
	}
	return t.root.spillDir
}

// Child returns a tracker whose charges also count against t's root budget.
// Operator-local usage stays readable per child while the root sees the
// query-wide total.
func (t *MemTracker) Child(name string) *MemTracker {
	if t == nil {
		return nil
	}
	return &MemTracker{root: t.root, name: name}
}

// Reserve charges n bytes, failing (with nothing charged) if that would
// exceed the root budget. n <= 0 and nil trackers always succeed.
func (t *MemTracker) Reserve(n int64) bool {
	if t == nil || n <= 0 {
		return true
	}
	r := t.root
	total := r.used.Add(n)
	if r.limit > 0 && total > r.limit {
		r.used.Add(-n)
		return false
	}
	r.notePeak(total)
	if t != r {
		t.notePeak(t.used.Add(n))
	}
	return true
}

// Force charges n bytes unconditionally, recording any bytes past the root
// budget as overage — the accounting escape hatch for operators that cannot
// spill.
func (t *MemTracker) Force(n int64) {
	if t == nil || n <= 0 {
		return
	}
	r := t.root
	total := r.used.Add(n)
	if r.limit > 0 && total > r.limit {
		over := total - r.limit
		if over > n {
			over = n
		}
		r.overage.Add(over)
	}
	r.notePeak(total)
	if t != r {
		t.notePeak(t.used.Add(n))
	}
}

// Release returns n bytes.
func (t *MemTracker) Release(n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.root.used.Add(-n)
	if t != t.root {
		t.used.Add(-n)
	}
}

// ReleaseAll returns everything this tracker still holds — the one-line
// operator Close path. Calling it on a root releases nothing (children own
// the charges).
func (t *MemTracker) ReleaseAll() {
	if t == nil || t == t.root {
		return
	}
	t.root.used.Add(-t.used.Swap(0))
}

// restart begins a root tracker's next execution: peak, overage and spill
// counters describe one execution each.
func (t *MemTracker) restart() {
	if t != nil {
		t.peak.Store(t.used.Load())
		for _, n := range []*atomic.Int64{&t.overage, &t.spillPartitions, &t.spillBytes, &t.spillRecursions} {
			n.Store(0)
		}
	}
}

func (t *MemTracker) notePeak(v int64) {
	for {
		p := t.peak.Load()
		if v <= p || t.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Used returns the bytes currently charged.
func (t *MemTracker) Used() int64 {
	if t == nil {
		return 0
	}
	return t.used.Load()
}

// Peak returns the high-water mark of Used.
func (t *MemTracker) Peak() int64 {
	if t == nil {
		return 0
	}
	return t.peak.Load()
}

// Limit returns the root budget (0 = unbounded).
func (t *MemTracker) Limit() int64 {
	if t == nil {
		return 0
	}
	return t.root.limit
}

// Overage returns the total bytes Force-charged past the budget. Zero means
// the budget genuinely bounded tracked memory: Peak() <= Limit().
func (t *MemTracker) Overage() int64 {
	if t == nil {
		return 0
	}
	return t.root.overage.Load()
}

// Bounded reports whether a budget is being enforced.
func (t *MemTracker) Bounded() bool { return t != nil && t.root.limit > 0 }

func (t *MemTracker) noteSpillPartition(bytes int64) {
	if t == nil {
		return
	}
	t.root.spillPartitions.Add(1)
	t.root.spillBytes.Add(bytes)
}

func (t *MemTracker) noteSpillRecursion() {
	if t == nil {
		return
	}
	t.root.spillRecursions.Add(1)
}

// SpillStats returns the spill counters: partition files written, total
// bytes spilled, and recursive repartitioning steps.
func (t *MemTracker) SpillStats() (partitions, bytes, recursions int64) {
	if t == nil {
		return 0, 0, 0
	}
	r := t.root
	return r.spillPartitions.Load(), r.spillBytes.Load(), r.spillRecursions.Load()
}

// colBytes is the tracked size of an n-row, width-column materialization.
func colBytes(width, n int) int64 { return int64(width) * int64(n) * 8 }

// buildBytes is the tracked size of a hash join's n build rows of width
// columns and the chained table over them: the columns, the head array at the
// next power of two >= 2n, next links, full hashes, and per-row
// multiplicities when the table counts.
func buildBytes(width, n int, counting bool) int64 {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	per := int64(width*8 + 4 + 8)
	if counting {
		per += 4
	}
	return int64(size)*4 + int64(n)*per
}
