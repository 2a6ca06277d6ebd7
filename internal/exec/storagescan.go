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
	store  storage.Backend
	preds  []storage.Pred
	filter ScanFilter
	it     *storage.SegIter
	batch  Batch
	sel    []int
	pruned int64
}

// newStorageScan builds the leaf. The pushed preds mirror filter.Conds so
// pruning and filtering agree on the predicate set.
func newStorageScan(store storage.Backend, preds []storage.Pred, filter ScanFilter) *storageScanOp {
	return &storageScanOp{store: store, preds: preds, filter: filter}
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
		if cap(s.batch.Cols) < len(cols) {
			s.batch.Cols = make([][]int64, len(cols))
		}
		s.batch.Cols = s.batch.Cols[:len(cols)]
		copy(s.batch.Cols, cols)
		s.batch.N = n
		if s.filter.Empty() {
			s.batch.Sel = nil
			return &s.batch, nil
		}
		s.sel = s.filter.SelCols(s.batch.Cols, s.batch.N, s.sel)
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

// storagePreds translates the compiled scan conditions into storage-layer
// pushdown predicates. The operator mapping is explicit so a reordering of
// either enum cannot silently flip comparison semantics.
func storagePreds(conds []ScanCond) []storage.Pred {
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
		out = append(out, storage.Pred{Col: cn.Off, Op: op, Val: cn.Val})
	}
	return out
}
