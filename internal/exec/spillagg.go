package exec

import "slices"

// Grace-hash spill for vectorized hash aggregation. Aggregation state is
// associative — a group's (sums, count) accumulators merge by addition — so
// when the table outgrows its reservation the operator dumps every group as
// a PARTIAL ROW (key columns, sums, count) into hash partitions on disk,
// resets the table, and keeps pre-aggregating the remaining input in memory.
// Raw input rows and dumped partials share one run format: a raw row is just
// a partial with count 1 folded in before it was ever dumped.
//
// After the input is consumed, each partition is merged independently into a
// fresh aggTable (findOrCreateKey with the recomputed key hash — bit
// identical to the hash the group had in memory), recursing one hash-bit
// window deeper when a partition's merged table overflows. Every partial of
// a group shares the group key's hash, hence its partition at every level,
// so each group materializes in exactly one partition and the final merged
// multiset of groups equals the unbounded run's. Outputs of all partitions
// are concatenated and sorted once with the same comparator as
// aggTable.rows(), making the emitted rows byte-identical to the unbounded
// ordering.
//
// COUNT(DISTINCT) state is a value set, which a dumped scalar cannot
// represent, so plans carrying CountDistinct never spill: their table is
// Force-charged (overage recorded) instead. The TPC-H workload has none.

// aggSpill holds the partial-row codec state of one spilling aggregation.
type aggSpill struct {
	spec    AggSpecExec
	gw, sw  int
	pw      int   // partial-row width: gw + sw + 1 (count last)
	keyOffs []int // 0..gw-1: key columns of a partial row
	mem     *MemTracker

	flat       []int64   // dump chunk backing store
	cols       [][]int64 // dump chunk column windows into flat
	keyScratch []int64
	hs         []uint64
}

func newAggSpill(spec AggSpecExec, mem *MemTracker) *aggSpill {
	sp := &aggSpill{spec: spec, gw: len(spec.GroupBy), sw: len(spec.Sums), mem: mem}
	sp.pw = sp.gw + sp.sw + 1
	sp.keyOffs = make([]int, sp.gw)
	for i := range sp.keyOffs {
		sp.keyOffs[i] = i
	}
	sp.flat = make([]int64, sp.pw*BatchSize)
	sp.cols = make([][]int64, sp.pw)
	for c := range sp.cols {
		sp.cols[c] = sp.flat[c*BatchSize : (c+1)*BatchSize : (c+1)*BatchSize]
	}
	sp.keyScratch = make([]int64, sp.gw)
	return sp
}

// dump writes every group of t as partial rows into the partitioner, in
// BatchSize blocks through the reused chunk scratch. The partitioner rehashes
// the key columns — bit-identical to the hashes t stored for its groups.
func (sp *aggSpill) dump(t *aggTable, part *spillPartitioner) error {
	for base := 0; base < t.n; base += BatchSize {
		m := t.n - base
		if m > BatchSize {
			m = BatchSize
		}
		for k := 0; k < sp.gw; k++ {
			col := sp.cols[k]
			for i := 0; i < m; i++ {
				col[i] = t.keys[(base+i)*sp.gw+k]
			}
		}
		for s := 0; s < sp.sw; s++ {
			col := sp.cols[sp.gw+s]
			for i := 0; i < m; i++ {
				col[i] = t.sums[(base+i)*sp.sw+s]
			}
		}
		cc := sp.cols[sp.gw+sp.sw]
		copy(cc[:m], t.counts[base:base+m])
		if err := part.add(sp.cols, m, nil); err != nil {
			return err
		}
	}
	return nil
}

// mergeBatch folds a batch of partial rows into t.
func (sp *aggSpill) mergeBatch(t *aggTable, b *Batch) {
	sp.hs = hashLive(sp.hs, b.Cols, sp.keyOffs, b.N, nil)
	for i := 0; i < b.N; i++ {
		for k := 0; k < sp.gw; k++ {
			sp.keyScratch[k] = b.Cols[k][i]
		}
		g := t.findOrCreateKey(sp.hs[i], sp.keyScratch)
		for s := 0; s < sp.sw; s++ {
			t.sums[g*t.sw+s] += b.Cols[sp.gw+s][i]
		}
		t.counts[g] += b.Cols[sp.gw+sp.sw][i]
	}
}

// mergeRun merges one partition run of partial rows into output rows,
// recursing one level deeper if the merged table overflows its reservation.
// At maxSpillLevel the remaining table is Force-charged (skewed keys have
// exhausted the hash windows; overage records that the bound gave way).
func (sp *aggSpill) mergeRun(run *spillRun, level int) ([]Row, error) {
	t := newAggTable(sp.spec)
	var charged int64
	rd, err := run.reader()
	if err != nil {
		return nil, err
	}
	var part *spillPartitioner // non-nil once this run recursed
	for {
		b, err := rd.next()
		if err != nil {
			if part != nil {
				part.abort()
			}
			return nil, err
		}
		if b == nil {
			break
		}
		if part != nil {
			// Already recursing: route the rest of the run (pre-aggregated
			// partials stay mergeable) straight to the sub-partitions.
			if err := part.add(b.Cols, b.N, nil); err != nil {
				part.abort()
				return nil, err
			}
			continue
		}
		sp.mergeBatch(t, b)
		delta := t.approxBytes() - charged
		if delta <= 0 {
			continue
		}
		if sp.mem.Reserve(delta) {
			charged += delta
			continue
		}
		if level >= maxSpillLevel {
			sp.mem.Force(delta)
			charged += delta
			continue
		}
		sp.mem.noteSpillRecursion()
		if part, err = newSpillPartitioner(sp.mem, sp.pw, sp.keyOffs, level+1); err != nil {
			sp.mem.Release(charged)
			return nil, err
		}
		if err := sp.dump(t, part); err != nil {
			part.abort()
			sp.mem.Release(charged)
			return nil, err
		}
		sp.mem.Release(charged)
		charged = 0
		t = newAggTable(sp.spec)
	}
	if part == nil {
		rows := t.rows()
		sp.mem.Release(charged)
		return rows, nil
	}
	subs, err := part.finish(sp.mem)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for i, r := range subs {
		if r.rows == 0 {
			r.close()
			continue
		}
		sub, err := sp.mergeRun(r, level+1)
		r.close()
		if err != nil {
			for _, rest := range subs[i+1:] {
				rest.close()
			}
			return nil, err
		}
		rows = append(rows, sub...)
	}
	return rows, nil
}

// mergeAll merges every level-0 partition and restores the unbounded
// operator's deterministic global output order.
func (sp *aggSpill) mergeAll(runs []*spillRun) ([]Row, error) {
	var rows []Row
	for i, r := range runs {
		if r.rows == 0 {
			r.close()
			continue
		}
		sub, err := sp.mergeRun(r, 0)
		r.close()
		if err != nil {
			for _, rest := range runs[i+1:] {
				rest.close()
			}
			return nil, err
		}
		rows = append(rows, sub...)
	}
	slices.SortFunc(rows, func(a, b Row) int { return slices.Compare(a, b) })
	return rows, nil
}
