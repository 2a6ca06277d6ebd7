package storage

import "sort"

// OrderedIndex is an ordered secondary index over one column: every row id
// of the store, sorted by that column's value (ties in row order). Disk
// stores persist one index segment per flush and merge them when the index
// is first asked for; the merged index is valid only while it covers every
// row, so DiskStore drops it at an unflushed Append.
type OrderedIndex struct {
	col  int
	keys []int64 // sorted ascending
	rows []int64 // rows[i] is the row id holding keys[i]
}

// NewOrderedIndex sorts (key, rowid) pairs into an index. The inputs are
// taken over (not copied).
func NewOrderedIndex(col int, keys, rows []int64) *OrderedIndex {
	ix := &OrderedIndex{col: col, keys: keys, rows: rows}
	sort.Stable(ix)
	return ix
}

// sort.Interface over the parallel (keys, rows) arrays.
func (ix *OrderedIndex) Len() int           { return len(ix.keys) }
func (ix *OrderedIndex) Less(i, j int) bool { return ix.keys[i] < ix.keys[j] }
func (ix *OrderedIndex) Swap(i, j int) {
	ix.keys[i], ix.keys[j] = ix.keys[j], ix.keys[i]
	ix.rows[i], ix.rows[j] = ix.rows[j], ix.rows[i]
}

// Col is the indexed column offset.
func (ix *OrderedIndex) Col() int { return ix.col }

// RowIDs returns every row id in ascending key order. The slice is the
// index's own storage; callers must not mutate it.
func (ix *OrderedIndex) RowIDs() []int64 { return ix.rows }

// Lookup returns the row ids whose key equals v, in insertion order.
func (ix *OrderedIndex) Lookup(v int64) []int64 {
	lo := sort.Search(len(ix.keys), func(i int) bool { return ix.keys[i] >= v })
	hi := sort.Search(len(ix.keys), func(i int) bool { return ix.keys[i] > v })
	return ix.rows[lo:hi:hi]
}

// Range returns the row ids whose key lies in [lo, hi], in key order.
func (ix *OrderedIndex) Range(lo, hi int64) []int64 {
	a := sort.Search(len(ix.keys), func(i int) bool { return ix.keys[i] >= lo })
	b := sort.Search(len(ix.keys), func(i int) bool { return ix.keys[i] > hi })
	if a >= b {
		return nil
	}
	return ix.rows[a:b:b]
}
