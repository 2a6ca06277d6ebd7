package exec

import (
	"errors"
	"fmt"
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
// concatenated (build ++ probe) row satisfies every residual predicate,
// reading only the referenced columns.
func filterPairs(preds []ColPred, build *colData, probeCols [][]int64, pb, pp []int32) ([]int32, []int32) {
	if len(preds) == 0 {
		return pb, pp
	}
	bw := build.width()
	k := 0
	for j := range pb {
		bi, pi := pb[j], pp[j]
		ok := true
		for _, p := range preds {
			var lv, rv int64
			if p.L < bw {
				lv = build.cols[p.L][bi]
			} else {
				lv = probeCols[p.L-bw][pi]
			}
			if p.R < bw {
				rv = build.cols[p.R][bi]
			} else {
				rv = probeCols[p.R-bw][pi]
			}
			if !p.Op.Eval(lv, rv+p.Off) {
				ok = false
				break
			}
		}
		if ok {
			pb[k], pp[k] = bi, pi
			k++
		}
	}
	return pb[:k], pp[:k]
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
	// the arrays they have.
	table *joinTable
	build colData    // the drained build side, unless its source lent columns
	spill *spillJoin // non-nil once the build overflowed its reservation
	// src, on a pipeline worker's copy (pipeline.go), is the join whose table
	// the copy probes: src builds it, the copies only read it.
	src *vecHashJoinOp

	// probe state, carried across Next calls
	pb      *Batch
	pi      int // cursor into the probe batch's live rows
	hs      []uint64
	curIdx  int
	curHash uint64
	chain   int32 // 1-based index into table rows, 0 = end of chain
	drained bool

	pairsB, pairsP []int32
	emit           colEmitter

	// counting-mode output: the probe batch's columns re-headed, the matched
	// rows' selection and their multiplicities.
	sel  []int
	mult []int64
}

// NewVecHashJoin is the pipelined hash join of the paper's Table 1: the
// build side (left) is drained column-major into a flat chained hash table
// at Open, keyed on the compound key of lKeys (every available equi-join
// column, which keeps match sets minimal); the probe side (right) streams
// through batch-at-a-time, keyed on rKeys. Probe-batch
// hashes are computed with one column pass per key; chain hits are
// prefiltered on the full hash before the key-equality check, collected as
// index pairs, residual-filtered, and gathered column-wise into the output:
// the lOut columns of the build input, then the rOut columns of the probe
// input.
func NewVecHashJoin(left, right VecIterator, lKeys, rKeys []int, residual []ColPred, lOut, rOut []int) VecIterator {
	return &vecHashJoinOp{left: left, right: right, lKeys: lKeys, rKeys: rKeys,
		residual: residual, emit: colEmitter{buildOut: lOut, probeOut: rOut}}
}

func (j *vecHashJoinOp) Open() error {
	j.pb, j.pi, j.chain, j.drained = nil, 0, 0, false
	if !j.counting {
		j.pairsB, j.pairsP = sized(j.pairsB, BatchSize)[:0], sized(j.pairsP, BatchSize)[:0]
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	var err error
	switch {
	case j.src != nil:
		j.table = j.src.table
	case j.mem.Bounded():
		err = j.openBounded()
	default:
		var build colData
		if build, err = drainVecCols(j.left, &j.build); err == nil {
			j.mem.Force(colBytes(build.width(), build.n) + joinTableBytes(build.n, j.counting))
			j.table = buildJoinTable(j.table, build, j.lKeys, j.counting)
		}
	}
	if err != nil {
		// Release the already-opened probe side.
		return errors.Join(err, j.right.Close())
	}
	return nil
}

// openBounded drains the build side batch-at-a-time under the memory
// reservation (forgoing the drainCols fast path — the price of a hard
// bound), switching to grace-hash spilling the moment a reservation
// fails. On the spill path openSpill takes over the open build input.
func (j *vecHashJoinOp) openBounded() error {
	if err := j.left.Open(); err != nil {
		return errors.Join(err, j.left.Close())
	}
	j.build.reset()
	var charged int64
	for {
		b, err := j.left.Next()
		if err != nil {
			j.mem.Release(charged)
			return errors.Join(err, j.left.Close())
		}
		if b == nil {
			break
		}
		if err := unweighted(b, "a hash-join build side"); err != nil {
			j.mem.Release(charged)
			return errors.Join(err, j.left.Close())
		}
		need := colBytes(b.Width(), b.Len())
		if !j.mem.Reserve(need) {
			return j.openSpill(j.build, b, charged)
		}
		charged += need
		j.build.appendBatch(b)
	}
	// Reserve the hash table before closing the build input: if even the
	// table does not fit, openSpill re-drains the (exhausted) input.
	if !j.mem.Reserve(joinTableBytes(j.build.n, j.counting)) {
		return j.openSpill(j.build, nil, charged)
	}
	if err := j.left.Close(); err != nil {
		j.mem.ReleaseAll()
		return err
	}
	j.table = buildJoinTable(j.table, j.build, j.lKeys, j.counting)
	return nil
}

// nextProbeBatch is the probe source indirection: the in-memory path streams
// the probe input directly, the spilled path streams partition runs.
func (j *vecHashJoinOp) nextProbeBatch() (*Batch, error) {
	if j.spill != nil {
		return j.spillNextBatch()
	}
	return j.right.Next()
}

// flushPairs residual-filters the pending pairs and stitches the survivors
// into an output batch, or returns nil when every pair was filtered out.
func (j *vecHashJoinOp) flushPairs() *Batch {
	pb, pp := filterPairs(j.residual, &j.table.data, j.pb.Cols, j.pairsB, j.pairsP)
	j.pairsB, j.pairsP = j.pairsB[:0], j.pairsP[:0]
	if len(pb) == 0 {
		return nil
	}
	return j.emit.emit(&j.table.data, j.pb.Cols, pb, pp)
}

// nextCounted is Next in counting mode. A probe row matches at most one
// linked build row, so a probe batch yields at most one output batch and
// nothing is copied: the output is the probe batch's live columns under the
// selection of its matched rows, with their multiplicities beside them.
func (j *vecHashJoinOp) nextCounted() (*Batch, error) {
	for {
		b, err := j.nextProbeBatch()
		if err != nil || b == nil {
			return nil, err
		}
		j.hs = hashLive(j.hs, b.Cols, j.rKeys, b.N, b.Sel)
		if cap(j.mult) < b.N {
			j.mult = make([]int64, max(b.N, BatchSize))
		}
		j.sel, _ = j.table.countMatches(b.Cols, j.rKeys, j.hs, b.Sel, b.Mult, j.sel, j.mult[:b.N])
		if len(j.sel) == 0 {
			continue
		}
		out := &j.emit.batch
		out.Cols = out.Cols[:0]
		for _, c := range j.emit.probeOut {
			out.Cols = append(out.Cols, b.Cols[c])
		}
		out.N, out.Sel, out.Mult = b.N, j.sel, j.mult[:b.N]
		return out, nil
	}
}

func (j *vecHashJoinOp) Next() (*Batch, error) {
	if j.counting {
		return j.nextCounted()
	}
	t := j.table
	for {
		for j.chain != 0 {
			i := j.chain - 1
			j.chain = t.next[i]
			if t.hashes[i] != j.curHash {
				continue
			}
			if !colKeysEqual(t.data.cols, j.lKeys, int(i), j.pb.Cols, j.rKeys, j.curIdx) {
				continue
			}
			j.pairsB = append(j.pairsB, i)
			j.pairsP = append(j.pairsP, int32(j.curIdx))
			if len(j.pairsB) == BatchSize {
				if out := j.flushPairs(); out != nil {
					return out, nil
				}
			}
		}
		// advance to the next probe row
		if j.pb != nil && j.pi < j.pb.Len() {
			j.curIdx = j.pi
			if j.pb.Sel != nil {
				j.curIdx = j.pb.Sel[j.pi]
			}
			j.curHash = j.hs[j.pi]
			j.pi++
			j.chain = t.head[j.curHash&t.mask]
			continue
		}
		// Pairs index into the current probe batch's columns, so they must
		// be stitched out before the batch is released or replaced.
		if len(j.pairsB) > 0 {
			if out := j.flushPairs(); out != nil {
				return out, nil
			}
		}
		if j.drained {
			return nil, nil
		}
		b, err := j.nextProbeBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.drained = true
			// The producer may recycle its last batch when it reports end
			// of stream (the ownership contract lets it change Len), so drop
			// the stale reference before re-checking the cursor.
			j.pb = nil
			continue
		}
		if err := unweighted(b, "an enumerating hash join"); err != nil {
			return nil, err
		}
		j.pb, j.pi = b, 0
		j.hs = hashLive(j.hs, b.Cols, j.rKeys, b.N, b.Sel)
		// The spilled path installs a fresh table per partition; pairs are
		// always flushed before a new probe batch, so the swap is safe here.
		t = j.table
	}
}

func (j *vecHashJoinOp) Close() error {
	j.spill.closeAll()
	j.spill = nil
	j.mem.ReleaseAll()
	return j.right.Close()
}

// ---- vectorized merge join ----

type vecMergeJoinOp struct {
	left, right VecIterator
	lKey, rKey  int
	residual    []ColPred
	mem         *MemTracker // child tracker; Force-only (no spill fallback)

	lData, rData colData
	li, ri       int
	gls, gle     int // current left key group [gls, gle)
	grs, gre     int
	gi, gj       int

	pairsB, pairsP []int32
	emit           colEmitter
}

// NewVecMergeJoin joins two inputs already sorted on their key columns,
// batch-at-a-time over column-major materializations, emitting the lOut
// columns of the left input, then the rOut columns of the right.
func NewVecMergeJoin(left, right VecIterator, lKey, rKey int, residual []ColPred, lOut, rOut []int) VecIterator {
	return &vecMergeJoinOp{left: left, right: right, lKey: lKey, rKey: rKey, residual: residual,
		emit: colEmitter{buildOut: lOut, probeOut: rOut}}
}

func (m *vecMergeJoinOp) Open() error {
	m.li, m.ri, m.gls, m.gle, m.grs, m.gre, m.gi, m.gj = 0, 0, 0, 0, 0, 0, 0, 0
	var err error
	if m.lData, err = drainVecCols(m.left, nil); err != nil {
		return err
	}
	if m.rData, err = drainVecCols(m.right, nil); err != nil {
		return err
	}
	m.mem.Force(colBytes(m.lData.width(), m.lData.n) + colBytes(m.rData.width(), m.rData.n))
	// Defensive check: inputs must be sorted (the optimizer guarantees it
	// via properties; a violation is a planning bug worth surfacing). One
	// pass over one contiguous key column per side.
	if m.lData.n > 0 {
		key := m.lData.cols[m.lKey]
		for i := 1; i < len(key); i++ {
			if key[i-1] > key[i] {
				return fmt.Errorf("exec: merge join left input not sorted on col %d", m.lKey)
			}
		}
	}
	if m.rData.n > 0 {
		key := m.rData.cols[m.rKey]
		for i := 1; i < len(key); i++ {
			if key[i-1] > key[i] {
				return fmt.Errorf("exec: merge join right input not sorted on col %d", m.rKey)
			}
		}
	}
	m.pairsB, m.pairsP = sized(m.pairsB, BatchSize)[:0], sized(m.pairsP, BatchSize)[:0]
	return nil
}

func (m *vecMergeJoinOp) flushPairs() *Batch {
	pb, pp := filterPairs(m.residual, &m.lData, m.rData.cols, m.pairsB, m.pairsP)
	m.pairsB, m.pairsP = m.pairsB[:0], m.pairsP[:0]
	if len(pb) == 0 {
		return nil
	}
	return m.emit.emit(&m.lData, m.rData.cols, pb, pp)
}

func (m *vecMergeJoinOp) Next() (*Batch, error) {
	for {
		for m.gi < m.gle-m.gls {
			for m.gj < m.gre-m.grs {
				m.pairsB = append(m.pairsB, int32(m.gls+m.gi))
				m.pairsP = append(m.pairsP, int32(m.grs+m.gj))
				m.gj++
				if len(m.pairsB) == BatchSize {
					if out := m.flushPairs(); out != nil {
						return out, nil
					}
				}
			}
			m.gj = 0
			m.gi++
		}
		// advance to the next matching key group
		if m.li >= m.lData.n || m.ri >= m.rData.n {
			if len(m.pairsB) > 0 {
				if out := m.flushPairs(); out != nil {
					return out, nil
				}
			}
			return nil, nil
		}
		lCol, rCol := m.lData.cols[m.lKey], m.rData.cols[m.rKey]
		lk, rk := lCol[m.li], rCol[m.ri]
		switch {
		case lk < rk:
			m.li++
		case lk > rk:
			m.ri++
		default:
			ls, rs := m.li, m.ri
			for m.li < m.lData.n && lCol[m.li] == lk {
				m.li++
			}
			for m.ri < m.rData.n && rCol[m.ri] == rk {
				m.ri++
			}
			m.gls, m.gle, m.grs, m.gre = ls, m.li, rs, m.ri
			m.gi, m.gj = 0, 0
		}
	}
}

func (m *vecMergeJoinOp) Close() error {
	m.lData, m.rData = colData{}, colData{}
	m.mem.ReleaseAll()
	return nil
}
