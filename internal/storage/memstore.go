package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// MemStore is the volatile backend: the table's columns held behind one
// atomically published Snapshot. Appends grow the columns and publish a
// new snapshot; readers that loaded the previous snapshot keep a consistent
// view because they only ever index rows < the N they loaded, and the
// atomic Store/Load pair orders the value writes before the new length
// becomes visible. When a column's backing array must grow, append copies
// it, so old snapshots' arrays are never reallocated out from under a
// reader.
type MemStore struct {
	width int
	mu    sync.Mutex // serializes writers (Append/ResetSnapshot)
	snap  atomic.Pointer[Snapshot]
}

// NewMemStore returns an empty in-memory store of the given column count.
func NewMemStore(width int) *MemStore {
	s := &MemStore{width: width}
	cols := make([][]int64, width)
	s.snap.Store(&Snapshot{Cols: cols, Epoch: newEpoch()})
	return s
}

func (s *MemStore) Snapshot() *Snapshot { return s.snap.Load() }

func (s *MemStore) Append(rows [][]int64) error {
	if len(rows) == 0 {
		return nil
	}
	for _, r := range rows {
		if len(r) != s.width {
			return fmt.Errorf("storage: append row has %d values, table has %d columns", len(r), s.width)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendLocked(rows)
	return nil
}

// appendLocked grows the columns and publishes the new snapshot. Caller
// holds s.mu.
func (s *MemStore) appendLocked(rows [][]int64) {
	old := s.snap.Load()
	n := old.N + len(rows)
	cols := make([][]int64, s.width)
	for c := 0; c < s.width; c++ {
		col := old.Cols[c]
		if cap(col) < n {
			// Grow with headroom by copying, never by reallocating the
			// array an older snapshot may still be reading.
			grown := make([]int64, old.N, growCap(old.N, n))
			copy(grown, col[:old.N])
			col = grown
		}
		col = col[:old.N]
		for _, r := range rows {
			col = append(col, r[c])
		}
		cols[c] = col
	}
	s.snap.Store(&Snapshot{Cols: cols, N: n, Epoch: old.Epoch})
}

// growCap picks the capacity for growth to need: a quarter of headroom, not
// a doubling. The snapshot is the only copy of the table, so the slack a
// growth leaves behind is resident for as long as the table is; 25 % keeps
// appends amortized (a column is copied once per ~have/4 appended rows)
// without holding a loaded table at twice its size after its first append.
func growCap(have, need int) int {
	return max(need, have+have/4, 64)
}

// ResetSnapshot publishes snap's first N rows as the store's whole content,
// sharing the column arrays with their capacity clipped, under a new epoch.
func (s *MemStore) ResetSnapshot(snap *Snapshot) {
	cols := make([][]int64, s.width)
	for c := range cols {
		cols[c] = snap.Cols[c][:snap.N:snap.N]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap.Store(&Snapshot{Cols: cols, N: snap.N, Epoch: newEpoch()})
}

// Scan yields the whole snapshot: a volatile table has no zone maps to prune
// by.
//
// Reached by: the Backend interface alone. benchmarks/servehot.go calls
// Scan only on disk tables, and executor scans bind DiskStore.Ranges.
func (s *MemStore) Scan(preds []Pred, batch int) *SegIter {
	it := segIterPool.Get().(*SegIter)
	snap := s.snap.Load()
	return it.reset(snap, append(it.spans[:0], Range{Hi: snap.N}), 0, batch)
}

func (s *MemStore) ZoneCols() []int { return nil }

// Flush is a no-op: a volatile table has nothing to persist.
//
// Reached by: the Backend interface alone. benchmarks/servehot.go flushes
// disk tables through Table.Store(), so Backend keeps Flush.
func (s *MemStore) Flush(version uint64) error { return nil }
