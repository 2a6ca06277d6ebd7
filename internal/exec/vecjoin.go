package exec

import (
	"errors"

	"repro/internal/relalg"
)

// The row-producing join operators share one output scheme: matches are
// collected as (build row, probe row) index pairs, residual predicates are
// evaluated directly on the pairs (reading only the referenced columns),
// and surviving pairs are stitched into the output batch with one Gather
// per column. Output columns live in a single flat buffer owned by the
// operator and recycled every batch.

// colEmitter is the reusable columnar output side of the join operators:
// the build-side and probe-side input columns the join emits (build columns
// first), as positions in the respective inputs. Columns the join only reads
// itself — keys and residual operands nothing above needs — are in neither
// list and are never gathered.
type colEmitter struct {
	buildOut, probeOut []int
	batch              Batch
}

// flatCols returns width columns of capacity n each over one backing array.
func flatCols(width, n int) [][]int64 {
	flat := make([]int64, width*n)
	cols := make([][]int64, width)
	for c := range cols {
		cols[c] = flat[c*n : (c+1)*n : (c+1)*n]
	}
	return cols
}

// gatherPairs stitches the paired rows into out: the buildOut columns of
// build through pb, then the probeOut columns of probeCols through pp.
func gatherPairs(out [][]int64, build *colData, buildOut []int, probeCols [][]int64, probeOut []int, pb, pp []int32) {
	m := len(pb)
	for k, c := range buildOut {
		Gather(out[k][:m], build.cols[c], pb)
	}
	out = out[len(buildOut):]
	for k, c := range probeOut {
		Gather(out[k][:m], probeCols[c], pp)
	}
}

// emit gathers the paired rows into the output batch.
func (e *colEmitter) emit(build *colData, probeCols [][]int64, pb, pp []int32) *Batch {
	if e.batch.Cols == nil {
		e.batch.Cols = flatCols(len(e.buildOut)+len(e.probeOut), BatchSize)
	}
	gatherPairs(e.batch.Cols, build, e.buildOut, probeCols, e.probeOut, pb, pp)
	e.batch.N = len(pb)
	e.batch.Sel = nil
	return &e.batch
}

// filterPairs compacts the pair vectors in place to the pairs whose
// concatenated (build ++ probe) row satisfies every residual predicate: one
// branch-free pass per predicate, reading each operand column through pb or
// pp by its side and keeping the pair by the comparison's 0/1 outcome.
func filterPairs(preds []ColPred, build *colData, probeCols [][]int64, pb, pp []int32) ([]int32, []int32) {
	bw := build.width()
	side := func(c int) ([]int64, []int32) {
		if c < bw {
			return build.cols[c], pb
		}
		return probeCols[c-bw], pp
	}
	for _, p := range preds {
		if len(pb) == 0 {
			break // an empty build side may have no columns to index
		}
		lc, lx := side(p.L)
		rc, rx := side(p.R)
		base, flip := cmpFlip(p.Op)
		k := 0
		switch base {
		case relalg.CmpEQ:
			for x := range pb {
				keep := b2i(lc[lx[x]] == rc[rx[x]]+p.Off) ^ flip
				pb[k], pp[k] = pb[x], pp[x]
				k += keep
			}
		case relalg.CmpLT:
			for x := range pb {
				keep := b2i(lc[lx[x]] < rc[rx[x]]+p.Off) ^ flip
				pb[k], pp[k] = pb[x], pp[x]
				k += keep
			}
		case relalg.CmpLE:
			for x := range pb {
				keep := b2i(lc[lx[x]] <= rc[rx[x]]+p.Off) ^ flip
				pb[k], pp[k] = pb[x], pp[x]
				k += keep
			}
		}
		pb, pp = pb[:k], pp[:k]
	}
	return pb, pp
}

// ---- vectorized hash join ----

type vecHashJoinOp struct {
	left, right  VecIterator
	lKeys, rKeys []int
	residual     []ColPred
	mem          *MemTracker // child tracker; nil = untracked

	// counting: nothing above reads a build column and the consumer reads
	// Batch.Mult (Compiler.counted), so each matching probe row is emitted
	// once, carrying its match count, instead of once per match.
	counting bool

	// table and build are kept across executions: an Open rebuilds them in
	// the arrays they have, or keeps the table and inserts the rows its
	// build side gained (Open).
	table   *joinTable
	build   colData    // the drained build rows, unless their source lent columns
	rows    [][]int64  // the unbounded table's column headers
	charged int64      // under a budget: what the loaded build rows and table reserve
	spill   *spillJoin // non-nil once the build overflowed its reservation

	// Keeping the table: st is the record of a tree that runs again, which
	// counts a kept table (nil: the table is never kept), and kept says the
	// table holds the build side's output of the last execution, which
	// finished whole in memory.
	st   *RunStats
	kept bool

	// The delta (held; a join under a budget never keeps its table): want
	// asks the next Open for only the rows the output gained since the last
	// execution, and delta says the open execution emits only those. grew
	// says the kept table took rows this execution, which drain into dbuild
	// (drainVecCols) and have their own table, dtab; once the probe's new
	// rows are joined, rewind says the probe scan old re-reads its rows
	// below its watermark through dtab. probed is the table the current
	// probe batch is matched against.
	want, delta, grew, rewind bool
	dbuild                    colData
	dtab, probed              *joinTable
	old                       *vecScanOp // the probe side when it is a table's scan
	// probe state, carried across Next calls: the probe batch, the hashes,
	// indexes and chain cursors of its rows with a non-empty bucket
	// (joinTable.heads, joinTable.walk), and the one to resume at.
	pb      *Batch
	hs      []uint64
	cands   []probeRow
	resume  int
	drained bool

	pairsB, pairsP []int32
	emit           colEmitter

	// sel holds the probe batch's rows the table's bitmap admits (Next), and
	// then, in counting mode, the selection of its matched rows; mult holds
	// those rows' multiplicities.
	sel  []int
	mult []int64
}

// NewVecHashJoin is the pipelined hash join of the paper's Table 1: the build
// side (left) is drained column-major into a flat bucket-chained hash table at
// Open (or kept from the last one, with the rows the build side gained
// inserted), keyed on the compound key of lKeys
// (every equi-join column, which keeps match sets minimal); the probe side
// (right) streams through batch-at-a-time, keyed on rKeys. A probe batch is
// probed in three phases: if the table has a key bitmap, one pass keeps the
// live rows whose first key a build row has, so a miss costs a load and a
// shift; one pass hashes the rows and loads their bucket heads, so the
// independent cache misses overlap, and keeps the rows whose bucket is not
// empty; then one walk visits their chains in probe-row order, then chain
// order, prefiltering on the full hash before the key check. Matches are
// collected as index pairs, residual-filtered, and gathered column-wise into
// the output — the lOut columns of the build input, then the rOut columns of
// the probe input — so rows come out in that order: probe row, then chain
// position (the reverse of build order). The walk stops when BatchSize pairs
// are pending and resumes mid-chain on the next call. Under a memory budget the
// build side that does not fit is joined partition by partition from disk, and
// a partition that cannot be split is joined chunk by chunk (spilljoin.go); the
// output multiset is the same.
func NewVecHashJoin(left, right VecIterator, lKeys, rKeys []int, residual []ColPred, lOut, rOut []int) VecIterator {
	return &vecHashJoinOp{left: left, right: right, lKeys: lKeys, rKeys: rKeys,
		residual: residual, emit: colEmitter{buildOut: lOut, probeOut: rOut}}
}

// Open builds the table and opens the probe side. Under a budget load
// drains the build side batch at a time — the price of a hard bound is the
// lent columns — and, if it overflows, routes both inputs into partitions
// before the first Next. An unbounded join drains it whole, borrowing a plain
// scan's columns, and Force-charges the table (held).
func (j *vecHashJoinOp) Open() error {
	j.pb, j.resume, j.drained, j.rewind = nil, 0, false, false
	j.cands = j.cands[:0]
	if cap(j.pairsB) < BatchSize { // both pair vectors in one allocation
		buf := make([]int32, 2*BatchSize)
		j.pairsB, j.pairsP = buf[:0:BatchSize], buf[BatchSize:BatchSize]
	}
	j.pairsB, j.pairsP = j.pairsB[:0], j.pairsP[:0]
	var err error
	if !j.mem.Bounded() {
		err = j.held()
	} else if err = j.right.Open(); err != nil {
		return err
	} else if err = j.left.Open(); err == nil {
		err = j.load(0, j.left.Next, nil)
	} else {
		err = errors.Join(err, j.left.Close())
	}
	j.probed = j.table
	if err != nil {
		// Release the opened probe side and whatever the build holds.
		return errors.Join(err, j.Close())
	}
	return nil
}

// held is the unbounded Open. A kept table asks its build side for only
// the rows it gained since the last execution, ΔB, and inserts them
// (joinTable.insert); a build side that cannot say (its tables were reset,
// or it is not a table scan or join) drains whole, and the table is built
// again, as it is the first time. Asked for its own delta, a join over a
// kept table emits ΔJ = B ⋈ ΔP ∪ ΔB ⋈ P_old, where B is the table now and
// ΔP the probe side's delta: Next joins ΔP, then, if ΔB has rows, the
// probe scan's rows below its watermark that ΔB's key range leaves
// (vecScanOp.rewind) with ΔB's own table. A probe side that is not a
// table scan has no P_old to re-read, so with ΔB not empty the join emits
// its whole output; so does one whose probe side cannot give its delta.
func (j *vecHashJoinOp) held() error {
	kept := j.kept
	j.kept, j.delta, j.grew = false, false, false
	askDelta(j.left, kept)
	d, err := drainVecCols(j.left, &j.build, &j.dbuild)
	if err != nil {
		return err
	}
	absorbed := kept && gotDelta(j.left)
	if absorbed {
		j.absorb(d)
		j.st.reused++
	} else {
		j.rows = append(j.rows[:0], d.cols...)
		j.table = buildJoinTable(j.table, colData{cols: j.rows, n: d.n}, j.lKeys, j.counting)
	}
	t := &j.table.data
	j.mem.Force(buildBytes(t.width(), t.n, j.counting))
	j.kept, j.grew = j.st != nil, absorbed && d.n > 0
	delta := j.want && absorbed && (d.n == 0 || j.old != nil)
	askDelta(j.right, delta)
	if err := j.right.Open(); err != nil {
		return err
	}
	if j.delta = delta && gotDelta(j.right); j.delta && d.n > 0 {
		j.dtab = buildJoinTable(j.dtab, d, j.lKeys, j.counting)
		j.mem.Force(buildBytes(d.width(), d.n, j.counting))
		j.rewind = true
	}
	return nil
}

// absorb appends the build side's new rows d to the table's rows and
// inserts them. A column the table borrowed from a scan is copied on its
// first append, past its clipped capacity; the table's column headers are
// the join's own (rows), so no lender's are ever written.
func (j *vecHashJoinOp) absorb(d colData) {
	if d.n == 0 {
		return
	}
	n := j.table.data.n
	j.rows = grown(j.rows, d.width())
	for c := range j.rows {
		j.rows[c] = append(j.rows[c][:n], d.cols[c][:d.n]...)
	}
	j.table = j.table.insert(colData{cols: j.rows, n: n + d.n}, n, j.counting)
}

func (j *vecHashJoinOp) setDelta(want bool) { j.want = want }
func (j *vecHashJoinOp) isDelta() bool      { return j.delta }

// nextProbeBatch is the probe source indirection: the in-memory path streams
// the probe input directly, the spilled path streams partition runs.
func (j *vecHashJoinOp) nextProbeBatch() (*Batch, error) {
	switch {
	case j.spill != nil:
		return j.spillNextBatch()
	case j.dtab != nil && j.probed == j.dtab:
		return j.old.Next()
	}
	b, err := j.right.Next()
	if b == nil && err == nil && j.rewind {
		// ΔP is joined: now ΔB ⋈ P_old, the probe scan's old rows.
		j.rewind, j.probed = false, j.dtab
		j.old.rewind(j.rKeys[0], j.dtab.lo, j.dtab.hi)
		return j.old.Next()
	}
	return b, err
}

// flushPairs residual-filters the pending pairs and stitches the survivors
// into an output batch, or returns nil when every pair was filtered out.
func (j *vecHashJoinOp) flushPairs() *Batch {
	pb, pp := filterPairs(j.residual, &j.probed.data, j.pb.Cols, j.pairsB, j.pairsP)
	j.pairsB, j.pairsP = j.pairsB[:0], j.pairsP[:0]
	switch {
	case len(pb) == 0:
		return nil
	case j.counting:
		return j.emitCounted(pb, pp)
	}
	return j.emit.emit(&j.probed.data, j.pb.Cols, pb, pp)
}

// emitCounted is the counting-mode output of matched pairs, at most one per
// probe row. Nothing is copied: the output is the probe batch's live columns
// under the selection of its matched rows, each carrying its linked build
// row's multiplicity times its own.
func (j *vecHashJoinOp) emitCounted(pb, pp []int32) *Batch {
	b := j.pb
	if cap(j.mult) < b.N {
		j.mult = make([]int64, max(b.N, BatchSize))
	}
	j.sel = sized(j.sel, len(pp))
	for x, i := range pp {
		m := int64(j.probed.mult[pb[x]])
		if b.Mult != nil {
			m *= b.Mult[i]
		}
		j.sel[x], j.mult[i] = int(i), m
	}
	out := &j.emit.batch
	out.Cols = out.Cols[:0]
	for _, c := range j.emit.probeOut {
		out.Cols = append(out.Cols, b.Cols[c])
	}
	out.N, out.Sel, out.Mult = b.N, j.sel, j.mult[:b.N]
	return out
}

func (j *vecHashJoinOp) Next() (*Batch, error) {
	for {
		// Pairs index into the current probe batch's columns, so they are
		// stitched out before the batch is released or replaced.
		if j.resume < len(j.cands) {
			j.resume, j.pairsB, j.pairsP = j.probed.walk(j.pb.Cols, j.rKeys, j.hs, j.cands, j.resume, j.pairsB, j.pairsP)
			if out := j.flushPairs(); out != nil {
				return out, nil
			}
			continue
		}
		if j.drained {
			return nil, nil
		}
		b, err := j.nextProbeBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			// The producer may recycle its last batch when it reports end of
			// stream, so no reference to it is kept.
			j.pb, j.drained = nil, true
			return nil, nil
		}
		if !j.counting {
			if err := unweighted(b, "an enumerating hash join"); err != nil {
				return nil, err
			}
		}
		// The spilled path installs each partition's or chunk's table, and
		// the rewind ΔB's, before it returns its first probe batch, so the
		// heads are read from the table this batch probes.
		j.pb, j.resume = b, 0
		live := b.Sel
		if m := b.Len(); m > 0 && len(j.probed.bits) > 0 {
			j.hs, j.cands = sized(j.hs, m), sized(j.cands, m) // grown by live rows, not admitted ones
			j.sel = j.probed.admit(b.Cols[j.rKeys[0]], m, b.Sel, j.sel)
			live = j.sel
		}
		j.hs = hashLive(j.hs, b.Cols, j.rKeys, b.N, live)
		j.hs, j.cands = j.probed.heads(j.hs, live, j.cands)
	}
}

func (j *vecHashJoinOp) Close() error {
	j.spill.close()
	j.spill, j.charged = nil, 0
	j.mem.ReleaseAll()
	return j.right.Close()
}
