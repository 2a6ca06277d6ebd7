package exec

import "slices"

// Grace-hash spill for vectorized hash aggregation. Aggregation state is
// associative — a group's (sums, count) accumulators merge by addition — so a
// table that outgrows its reservation is dumped as PARTIALS into hash
// partitions on disk, and folding restarts in a fresh table. A partial is a
// group's key columns, SUMs and COUNT(*), one column each: the table's own
// state (aggTable.partials), written as it is and read back as batches that
// aggTable.mergePartials folds.
//
// One loop, fold, does the folding at every level: the raw input at level 0,
// and at level L+1 each partition run written at level L, where a table that
// overflows again is dumped one hash-bit window deeper. Every partial of a
// group shares the key's hash, hence its partition at every level, so each
// group materializes in exactly one partition and the merged groups equal the
// unbounded run's. Each merged partition is rendered column-major in key
// order (aggTable.cols) after the ones before it, and the concatenation is
// sorted once by the same key comparator (cmpKeys), which makes the output
// byte-identical to the unbounded ordering.
//
// Three tables do not spill but are Force-charged (overage records that the
// bound gave way): one with COUNT(DISTINCT) sets, which a partial cannot
// carry; the merge of a run written at maxSpillLevel, whose skewed keys have
// exhausted the hash windows; and the merge of a run whose partials all share
// one hash (spillRun.single), which no deeper window splits — one group,
// folded at the level below the one that wrote it. The TPC-H workload has no
// COUNT(DISTINCT).

// fold folds every batch next returns into t — raw input rows at level 0, a
// spilled run's partials below it — and charges the table's growth beyond
// charged, what t is charged already. A table
// that outgrows its reservation is dumped into partition runs at level and
// folding restarts in a fresh table — unless single says next is a run no
// window splits, which folds in memory. fold returns the last table, what it
// is charged and the partitioner, nil if nothing was dumped; on an error it
// has aborted the one and released the other.
func (a *vecHashAggOp) fold(t *aggTable, charged int64, level int, single bool, next func() (*Batch, error)) (*aggTable, int64, *spillPartitioner, error) {
	var part *spillPartitioner
	fail := func(err error) (*aggTable, int64, *spillPartitioner, error) {
		if part != nil {
			part.abort()
		}
		a.mem.Release(charged)
		return nil, 0, nil, err
	}
	spillable := a.mem.Bounded() && t.dw == 0 && level <= maxSpillLevel && !single
	s := &a.scratch
	for {
		b, err := next()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			return t, charged, part, nil
		}
		if level == 0 {
			t.addBatch(b.Cols, b.N, b.Sel, b.Mult, s)
		} else {
			s.hashes, s.gids = hashLive(s.hashes, b.Cols, allRows[:t.gw], b.N, nil), sized(s.gids, b.N)
			t.mergePartials(b.Cols, s.hashes, b.N, s.gids)
		}
		if a.mem == nil {
			continue
		}
		delta := t.approxBytes() - charged
		switch {
		case delta <= 0:
		case !spillable:
			a.mem.Force(delta)
			charged += delta
		case a.mem.Reserve(delta):
			charged += delta
		default:
			if part == nil {
				if level > 0 {
					a.mem.noteSpillRecursion()
				}
				if part, err = newSpillPartitioner(a.mem, t.gw+t.sw+1, allRows[:t.gw], level); err != nil {
					part = nil
					return fail(err)
				}
			}
			if err := t.dump(part); err != nil {
				return fail(err)
			}
			a.mem.Release(charged)
			charged = 0
			t = newAggTable(a.spec) // restart small, not at the size that overflowed
		}
	}
}

// merge finishes a fold at level: a table that never spilled is rendered
// onto a.out; otherwise it is dumped too, and each partition run is folded at
// level+1 in turn.
func (a *vecHashAggOp) merge(t *aggTable, charged int64, part *spillPartitioner, level int) error {
	if part == nil {
		a.out = t.cols(a.out)
		a.mem.Release(charged)
		return nil
	}
	err := t.dump(part)
	a.mem.Release(charged)
	if err != nil {
		part.abort()
		return err
	}
	runs, err := part.finish(a.mem)
	for _, r := range runs {
		if r.rows > 0 && err == nil {
			err = a.mergeRun(r, level+1)
		}
		r.close()
	}
	return err
}

// mergeRun folds one partition run's partials at level and merges the result.
func (a *vecHashAggOp) mergeRun(r *spillRun, level int) error {
	rd, err := r.reader()
	if err != nil {
		return err
	}
	t, charged, part, err := a.fold(newAggTable(a.spec), 0, level, r.single, rd.next)
	if err != nil {
		return err
	}
	return a.merge(t, charged, part, level)
}

// dump writes the groups into part as partials, BatchSize at a time, through
// windows of the table's own columns. The partitioner rehashes the keys —
// bit-identical to the hashes the table stored.
func (t *aggTable) dump(part *spillPartitioner) error {
	d := colData{cols: t.partials(), n: t.n}
	var w [][]int64
	for lo := 0; lo < t.n; lo += BatchSize {
		hi := min(lo+BatchSize, t.n)
		w = d.window(w, lo, hi)
		if err := part.add(w, hi-lo, nil); err != nil {
			return err
		}
	}
	return nil
}

// order returns d's rows sorted by their first gw columns, the group keys,
// in new columns: the merged partitions' groups, rendered one partition after
// another, in the unbounded operator's order.
func order(d colData, gw int) colData {
	perm := make([]int32, d.n)
	for r := range perm {
		perm[r] = int32(r)
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmpKeys(d.cols[:gw], a, b) })
	out := colData{cols: flatCols(d.width(), d.n), n: d.n}
	for c, col := range d.cols {
		for r, x := range perm {
			out.cols[c][r] = col[x]
		}
	}
	return out
}
