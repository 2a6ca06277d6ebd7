package exec

import (
	"repro/internal/relalg"
	"repro/internal/storage"
)

// storageScanOp is the vectorized leaf behind PhySegScan: it pulls
// zero-copy column windows from a storage backend's segment iterator, which
// skips whole segments whose zone maps prove the pushed-down predicates
// unsatisfiable. The surviving windows still pass through the same
// ScanFilter kernels as a plain table scan — pruning only removes rows the
// filter would reject anyway, so the result multiset is identical.
type storageScanOp struct {
	store   storage.Backend
	preds   []storage.Pred
	src     []int      // table offset of each emitted column
	predSrc []int      // table offset of each column the filter reads
	filter  ScanFilter // conditions over positions in predSrc
	it      *storage.SegIter
	pred    [][]int64
	batch   Batch
	sel     []int
	pruned  int64
}

// newStorageScan builds the leaf. The pushed preds mirror the leaf's filter
// so pruning and filtering agree on the predicate set.
func newStorageScan(store storage.Backend, leaf scanLeaf) *storageScanOp {
	src := make([]int, len(leaf.schema))
	for i, col := range leaf.schema {
		src[i] = col.Off
	}
	return &storageScanOp{store: store, preds: storagePreds(leaf.filter.Conds, leaf.predSrc),
		src: src, predSrc: leaf.predSrc, filter: leaf.filter}
}

func (s *storageScanOp) Open() error {
	// The iterator pins one storage snapshot for the whole scan; appends
	// that land mid-query publish new snapshots and never disturb this one.
	s.it = s.store.Scan(s.preds, BatchSize)
	s.pruned = int64(s.it.PrunedRows())
	return nil
}

func (s *storageScanOp) Next() (*Batch, error) {
	for {
		cols, n, ok := s.it.Next()
		if !ok {
			return nil, nil
		}
		s.batch.Cols = s.batch.Cols[:0]
		for _, off := range s.src {
			s.batch.Cols = append(s.batch.Cols, cols[off])
		}
		s.batch.N = n
		if s.filter.Empty() {
			s.batch.Sel = nil
			return &s.batch, nil
		}
		s.pred = s.pred[:0]
		for _, off := range s.predSrc {
			s.pred = append(s.pred, cols[off])
		}
		s.sel = s.filter.SelCols(s.pred, n, s.sel)
		if len(s.sel) == 0 {
			continue
		}
		s.batch.Sel = s.sel
		return &s.batch, nil
	}
}

func (s *storageScanOp) Close() error {
	if s.it != nil {
		s.it.Release()
		s.it = nil
	}
	return nil
}

// storagePreds translates the compiled scan conditions (over positions in
// predSrc) into storage-layer pushdown predicates over table columns. The
// operator mapping is explicit so a reordering of either enum cannot
// silently flip comparison semantics.
func storagePreds(conds []ScanCond, predSrc []int) []storage.Pred {
	if len(conds) == 0 {
		return nil
	}
	out := make([]storage.Pred, 0, len(conds))
	for _, cn := range conds {
		var op storage.CmpOp
		switch cn.Op {
		case relalg.CmpEQ:
			op = storage.CmpEQ
		case relalg.CmpNE:
			op = storage.CmpNE
		case relalg.CmpLT:
			op = storage.CmpLT
		case relalg.CmpLE:
			op = storage.CmpLE
		case relalg.CmpGT:
			op = storage.CmpGT
		case relalg.CmpGE:
			op = storage.CmpGE
		default:
			continue // unknown operator: not pushed, still filtered
		}
		out = append(out, storage.Pred{Col: predSrc[cn.Off], Op: op, Val: cn.Val})
	}
	return out
}
