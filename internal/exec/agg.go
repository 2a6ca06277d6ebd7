package exec

import (
	"errors"
	"slices"
)

// AggSpecExec describes a hash aggregation over the join output.
type AggSpecExec struct {
	GroupBy       []int // column offsets in the input row
	Sums          []int
	CountAll      bool
	CountDistinct []int
}

// aggTable is the grouping core shared by the serial and parallel hash
// aggregation operators: an open-addressing table of 1-based group ids
// hashed directly on the int64 group-key columns, with all group state
// (keys, sums, counts) in flat arrays. Adding a row allocates nothing
// beyond amortized slice growth — no per-row key string, no per-group
// state struct — which is what keeps the aggregation hot path off the
// allocator at any parallelism.
type aggTable struct {
	spec AggSpecExec
	gw   int // group-key width
	sw   int // sum width
	dw   int // count-distinct width

	mask   uint64
	slots  []int32 // open addressing: 0 = empty, else 1-based group id
	hashes []uint64
	keys   []int64 // group g's key columns at [g*gw, (g+1)*gw)
	sums   []int64 // group g's sums at [g*sw, (g+1)*sw)
	counts []int64
	idCols []int // 0..gw-1, for inserting already-extracted flat keys
	n      int
	perm   []int32 // sorted's group permutation

	// All COUNT(DISTINCT) sets are one open-addressing set of (set id, value)
	// pairs, set id = group·dw + column: slot s holds value dvals[s] of set
	// dids[s]-1, or nothing when dids[s] is 0. dcounts[d] is the size of set d,
	// dn the values stored in all of them.
	dmask   uint64
	dids    []int32
	dvals   []int64
	dcounts []int64
	dn      int
}

const aggInitSlots = 256 // power of two

func newAggTable(spec AggSpecExec) *aggTable {
	t := &aggTable{
		spec:  spec,
		gw:    len(spec.GroupBy),
		sw:    len(spec.Sums),
		dw:    len(spec.CountDistinct),
		mask:  aggInitSlots - 1,
		slots: make([]int32, aggInitSlots),
	}
	t.idCols = make([]int, t.gw)
	for i := range t.idCols {
		t.idCols[i] = i
	}
	if t.dw > 0 {
		t.dmask, t.dids, t.dvals = aggInitSlots-1, make([]int32, aggInitSlots), make([]int64, aggInitSlots)
	}
	return t
}

// reset empties the table for the next execution; every array keeps its
// capacity, and the slot arrays the size they grew to.
func (t *aggTable) reset() {
	clear(t.slots)
	clear(t.dids)
	t.hashes, t.keys, t.sums, t.counts, t.dcounts = t.hashes[:0], t.keys[:0], t.sums[:0], t.counts[:0], t.dcounts[:0]
	t.n, t.dn = 0, 0
}

// add folds one row into the table — the scalar reference the addBatch
// tests compare against; operators call addBatch.
func (t *aggTable) add(r Row) {
	g := t.findOrCreate(hashCols(r, t.spec.GroupBy), r)
	for i, c := range t.spec.Sums {
		t.sums[g*t.sw+i] += r[c]
	}
	t.counts[g]++
	for i, c := range t.spec.CountDistinct {
		t.addDistinct(g*t.dw+i, r[c])
	}
}

// addDistinct stores v in distinct set d, counting it when it is new.
func (t *aggTable) addDistinct(d int, v int64) {
	h := (hashSeed ^ uint64(d)) * hashMul
	h = (h ^ uint64(v)) * hashMul
	h ^= h >> 32
	id := int32(d + 1)
	for s := h & t.dmask; ; s = (s + 1) & t.dmask {
		switch t.dids[s] {
		case id:
			if t.dvals[s] == v {
				return
			}
		case 0:
			t.dids[s], t.dvals[s] = id, v
			t.dcounts[d]++
			t.dn++
			if uint64(t.dn)*4 > (t.dmask+1)*3 {
				t.growDistinct()
			}
			return
		}
	}
}

// growDistinct doubles the distinct set and re-inserts what it holds.
func (t *aggTable) growDistinct() {
	ids, vals := t.dids, t.dvals
	size := 2 * len(ids)
	t.dmask, t.dids, t.dvals, t.dn = uint64(size-1), make([]int32, size), make([]int64, size), 0
	clear(t.dcounts)
	for s, id := range ids {
		if id != 0 {
			t.addDistinct(int(id-1), vals[s])
		}
	}
}

// aggScratch is the reusable per-consumer scratch of the columnar
// aggregation path: the batch hash vector and the resolved group id per
// live row. One instance per serial consumer or pipeline worker.
type aggScratch struct {
	hashes []uint64
	gids   []int32
}

// addBatch folds a column-major chunk (cols[c] holding rows 0..n-1, live
// rows given by sel) into the table: group-key hashes are computed with one
// column pass per key (bit-identical to hashCols, so merge stays
// compatible), group ids are resolved once per row, and each accumulator
// column is then updated in its own tight loop over the chunk — column
// locality on both the input and the flat sums array. mult, when non-nil, is
// the chunk's multiplicity vector (Batch.Mult): row i stands for mult[i]
// copies, so it adds mult[i] to COUNT(*) and mult[i]·v to a SUM; a
// COUNT(DISTINCT) set is the same however often a value arrives.
func (t *aggTable) addBatch(cols [][]int64, n int, sel []int, mult []int64, s *aggScratch) {
	s.hashes = hashLive(s.hashes, cols, t.spec.GroupBy, n, sel)
	s.gids = sized(s.gids, len(s.hashes))
	t.resolveGids(cols, n, sel, s)
	for si, c := range t.spec.Sums {
		col, sums, sw := cols[c], t.sums, t.sw
		if sel == nil {
			for i := 0; i < n; i++ {
				sums[int(s.gids[i])*sw+si] += col[i]
			}
		} else {
			for k, i := range sel {
				sums[int(s.gids[k])*sw+si] += col[i]
			}
		}
	}
	if mult != nil {
		t.addExtraCopies(cols, sel, mult, s.gids)
	}
	for di, c := range t.spec.CountDistinct {
		col := cols[c]
		if sel == nil {
			for i := 0; i < n; i++ {
				t.addDistinct(int(s.gids[i])*t.dw+di, col[i])
			}
		} else {
			for k, i := range sel {
				t.addDistinct(int(s.gids[k])*t.dw+di, col[i])
			}
		}
	}
}

// addExtraCopies finishes addBatch over a weighted chunk: COUNT(*) and every
// SUM hold each live row once by now, and row i stands for mult[i] copies, so
// the other mult[i]-1 are added here.
func (t *aggTable) addExtraCopies(cols [][]int64, sel []int, mult []int64, gids []int32) {
	for k, g := range gids {
		i := k
		if sel != nil {
			i = sel[k]
		}
		extra := mult[i] - 1
		t.counts[g] += extra
		for si, c := range t.spec.Sums {
			t.sums[int(g)*t.sw+si] += extra * cols[c][i]
		}
	}
}

// resolveGids fills s.gids[k] with the group id of the k-th live row,
// creating groups as needed, and bumps each group's COUNT(*) in the same
// pass. The overwhelmingly common case — the group already exists and sits
// in its home slot — is handled inline, with the key comparison specialized
// for one- and two-column group keys so the hit path is pure slice reads;
// home-slot misses fall into findOrCreateCols' full open-addressing probe.
// Table fields (slots, hashes, keys, counts, mask) are reloaded every row
// because a miss can grow the table mid-batch.
func (t *aggTable) resolveGids(cols [][]int64, n int, sel []int, s *aggScratch) {
	switch len(t.spec.GroupBy) {
	case 1:
		c0 := cols[t.spec.GroupBy[0]]
		if sel == nil {
			for i := 0; i < n; i++ {
				h := s.hashes[i]
				g := -1
				if gi := t.slots[h&t.mask]; gi > 0 {
					if cand := int(gi - 1); t.hashes[cand] == h && t.keys[cand] == c0[i] {
						g = cand
					}
				}
				if g < 0 {
					g = t.findOrCreateCols(h, cols, i)
				}
				s.gids[i] = int32(g)
				t.counts[g]++
			}
		} else {
			for k, i := range sel {
				h := s.hashes[k]
				g := -1
				if gi := t.slots[h&t.mask]; gi > 0 {
					if cand := int(gi - 1); t.hashes[cand] == h && t.keys[cand] == c0[i] {
						g = cand
					}
				}
				if g < 0 {
					g = t.findOrCreateCols(h, cols, i)
				}
				s.gids[k] = int32(g)
				t.counts[g]++
			}
		}
	case 2:
		c0, c1 := cols[t.spec.GroupBy[0]], cols[t.spec.GroupBy[1]]
		if sel == nil {
			for i := 0; i < n; i++ {
				h := s.hashes[i]
				g := -1
				if gi := t.slots[h&t.mask]; gi > 0 {
					if cand := int(gi - 1); t.hashes[cand] == h &&
						t.keys[cand*2] == c0[i] && t.keys[cand*2+1] == c1[i] {
						g = cand
					}
				}
				if g < 0 {
					g = t.findOrCreateCols(h, cols, i)
				}
				s.gids[i] = int32(g)
				t.counts[g]++
			}
		} else {
			for k, i := range sel {
				h := s.hashes[k]
				g := -1
				if gi := t.slots[h&t.mask]; gi > 0 {
					if cand := int(gi - 1); t.hashes[cand] == h &&
						t.keys[cand*2] == c0[i] && t.keys[cand*2+1] == c1[i] {
						g = cand
					}
				}
				if g < 0 {
					g = t.findOrCreateCols(h, cols, i)
				}
				s.gids[k] = int32(g)
				t.counts[g]++
			}
		}
	default:
		if sel == nil {
			for i := 0; i < n; i++ {
				g := t.findOrCreateCols(s.hashes[i], cols, i)
				s.gids[i] = int32(g)
				t.counts[g]++
			}
		} else {
			for k, i := range sel {
				g := t.findOrCreateCols(s.hashes[k], cols, i)
				s.gids[k] = int32(g)
				t.counts[g]++
			}
		}
	}
}

// findOrCreateCols is findOrCreate with the probe row read out of a
// column-major chunk. h must be the hash of row i's group-key columns.
func (t *aggTable) findOrCreateCols(h uint64, cols [][]int64, i int) int {
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		gi := t.slots[s]
		if gi == 0 {
			g := t.n
			t.n++
			t.slots[s] = int32(g + 1)
			t.hashes = append(t.hashes, h)
			for _, c := range t.spec.GroupBy {
				t.keys = append(t.keys, cols[c][i])
			}
			t.sums = append(t.sums, make([]int64, t.sw)...)
			t.counts = append(t.counts, 0)
			t.dcounts = append(t.dcounts, make([]int64, t.dw)...)
			if uint64(t.n)*4 > (t.mask+1)*3 {
				t.grow()
			}
			return g
		}
		g := int(gi - 1)
		if t.hashes[g] != h {
			continue
		}
		eq := true
		for k, c := range t.spec.GroupBy {
			if t.keys[g*t.gw+k] != cols[c][i] {
				eq = false
				break
			}
		}
		if eq {
			return g
		}
	}
}

// findOrCreate returns the group id of r's key columns, creating the group
// if absent. h must be hashCols(r, spec.GroupBy).
func (t *aggTable) findOrCreate(h uint64, r Row) int {
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		gi := t.slots[s]
		if gi == 0 {
			return t.newGroup(s, h, r, t.spec.GroupBy)
		}
		g := int(gi - 1)
		if t.hashes[g] != h {
			continue
		}
		eq := true
		for i, c := range t.spec.GroupBy {
			if t.keys[g*t.gw+i] != r[c] {
				eq = false
				break
			}
		}
		if eq {
			return g
		}
	}
}

// findOrCreateKey is findOrCreate over an already-extracted flat key (the
// merge path, where the source group's hash is reused verbatim).
func (t *aggTable) findOrCreateKey(h uint64, key []int64) int {
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		gi := t.slots[s]
		if gi == 0 {
			return t.newGroup(s, h, Row(key), t.idCols)
		}
		g := int(gi - 1)
		if t.hashes[g] != h {
			continue
		}
		eq := true
		for i := 0; i < t.gw; i++ {
			if t.keys[g*t.gw+i] != key[i] {
				eq = false
				break
			}
		}
		if eq {
			return g
		}
	}
}

func (t *aggTable) newGroup(slot uint64, h uint64, r Row, cols []int) int {
	g := t.n
	t.n++
	t.slots[slot] = int32(g + 1)
	t.hashes = append(t.hashes, h)
	for _, c := range cols {
		t.keys = append(t.keys, r[c])
	}
	t.sums = append(t.sums, make([]int64, t.sw)...)
	t.counts = append(t.counts, 0)
	t.dcounts = append(t.dcounts, make([]int64, t.dw)...)
	// Grow at 3/4 load; rehashing only touches the slot array (hashes are
	// stored per group).
	if uint64(t.n)*4 > (t.mask+1)*3 {
		t.grow()
	}
	return g
}

// approxBytes estimates the table's tracked footprint: the slot array, the
// per-group hash, key, sum, count and distinct-count storage, and the distinct
// set's two slot arrays as held (12 bytes a slot). Monotone in n and in the
// stored values, so charging the delta after each batch keeps the reservation
// current.
func (t *aggTable) approxBytes() int64 {
	per := int64(8 + t.gw*8 + t.sw*8 + 8 + t.dw*8)
	return int64(t.mask+1)*4 + int64(t.n)*per + int64(len(t.dids))*12
}

func (t *aggTable) grow() {
	size := 2 * (t.mask + 1)
	t.mask = size - 1
	t.slots = make([]int32, size)
	for g := 0; g < t.n; g++ {
		s := t.hashes[g] & t.mask
		for t.slots[s] != 0 {
			s = (s + 1) & t.mask
		}
		t.slots[s] = int32(g + 1)
	}
}

// mergeFrom folds another table's partial aggregates into t — the final
// merge of worker-local aggregation state in the parallel pipeline. Both
// tables must share the same spec. o's distinct values are re-inserted under
// the merged groups' set ids.
func (t *aggTable) mergeFrom(o *aggTable) {
	merged := make([]int, o.n) // o's group id -> t's
	for g := 0; g < o.n; g++ {
		tg := t.findOrCreateKey(o.hashes[g], o.keys[g*o.gw:(g+1)*o.gw])
		for i := 0; i < t.sw; i++ {
			t.sums[tg*t.sw+i] += o.sums[g*o.sw+i]
		}
		t.counts[tg] += o.counts[g]
		merged[g] = tg
	}
	for s, id := range o.dids {
		if id != 0 {
			d := int(id - 1)
			t.addDistinct(merged[d/t.dw]*t.dw+d%t.dw, o.dvals[s])
		}
	}
}

// sorted returns the group ids in ascending group-key order — the
// deterministic output order. Keys are unique, so they order the rows.
func (t *aggTable) sorted() []int32 {
	t.perm = t.perm[:0]
	for g := 0; g < t.n; g++ {
		t.perm = append(t.perm, int32(g))
	}
	gw := t.gw
	slices.SortFunc(t.perm, func(a, b int32) int {
		return slices.Compare(t.keys[int(a)*gw:int(a+1)*gw], t.keys[int(b)*gw:int(b+1)*gw])
	})
	return t.perm
}

// cols renders the groups column-major in sorted group-key order, straight
// from the flat group arrays into out's columns (reused when large enough):
// group-by columns, SUMs, COUNT(*) if requested, then COUNT(DISTINCT) values.
func (t *aggTable) cols(out colData) colData {
	cw := 0
	if t.spec.CountAll {
		cw = 1
	}
	out.cols, out.n = sized(out.cols, t.gw+t.sw+cw+t.dw), t.n
	perm, c := t.sorted(), 0
	for _, src := range []struct {
		vals []int64
		w    int
	}{{t.keys, t.gw}, {t.sums, t.sw}, {t.counts, cw}, {t.dcounts, t.dw}} {
		for k := 0; k < src.w; k++ {
			col := sized(out.cols[c], t.n)
			for r, g := range perm {
				col[r] = src.vals[int(g)*src.w+k]
			}
			out.cols[c] = col
			c++
		}
	}
	return out
}

// rows is cols row-major, for the spill merge and the tests.
func (t *aggTable) rows() []Row {
	d := t.cols(colData{})
	out := make([]Row, d.n)
	for r := range out {
		out[r] = make(Row, d.width())
		for c, col := range d.cols {
			out[r][c] = col[r]
		}
	}
	return out
}

// ---- vectorized hash aggregation ----

type vecHashAggOp struct {
	in    VecIterator
	spec  AggSpecExec
	mem   *MemTracker // nil = untracked; set by the compiler
	out   colData
	pos   int
	batch Batch

	// kept across executions: the group table and the batch scratch
	t       *aggTable
	scratch aggScratch
}

// NewVecHashAgg returns a blocking hash aggregation: it consumes its input
// batch-at-a-time through aggTable.addBatch (columnar group-key hashing and
// per-column accumulator loops) and emits the aggregated groups as dense
// column windows in deterministic (sorted group key) order — the group-by
// columns followed by SUM values, COUNT(*) if requested, then
// COUNT(DISTINCT) values.
func NewVecHashAgg(in VecIterator, spec AggSpecExec) VecIterator {
	return &vecHashAggOp{in: in, spec: spec}
}

func (a *vecHashAggOp) Open() error {
	if a.t == nil {
		a.t = newAggTable(a.spec)
	}
	t := a.t
	t.reset()
	if err := a.in.Open(); err != nil {
		return err
	}
	var (
		sp      *aggSpill
		part    *spillPartitioner
		charged int64
	)
	// COUNT(DISTINCT) state cannot round-trip through scalar partials, so
	// such plans stay in memory (Force-charged; see spillagg.go).
	spillable := a.mem.Bounded() && len(a.spec.CountDistinct) == 0
	fail := func(err error) error {
		if part != nil {
			part.abort()
		}
		a.mem.Release(charged)
		return err
	}
	for {
		b, err := a.in.Next()
		if err != nil {
			return fail(errors.Join(err, a.in.Close()))
		}
		if b == nil {
			break
		}
		t.addBatch(b.Cols, b.N, b.Sel, b.Mult, &a.scratch)
		if a.mem == nil {
			continue
		}
		delta := t.approxBytes() - charged
		if delta <= 0 {
			continue
		}
		if !spillable {
			a.mem.Force(delta)
			charged += delta
			continue
		}
		if a.mem.Reserve(delta) {
			charged += delta
			continue
		}
		// The table outgrew its reservation: dump partials to disk and
		// restart in-memory pre-aggregation on the remaining input.
		if sp == nil {
			sp = newAggSpill(a.spec, a.mem)
			if part, err = newSpillPartitioner(a.mem, sp.pw, sp.keyOffs, 0); err != nil {
				part = nil
				return fail(errors.Join(err, a.in.Close()))
			}
		}
		if err := sp.dump(t, part); err != nil {
			return fail(errors.Join(err, a.in.Close()))
		}
		a.mem.Release(charged)
		charged = 0
		t = newAggTable(a.spec) // restart small, not at the size that overflowed
		a.t = t
	}
	if err := a.in.Close(); err != nil {
		return fail(err)
	}
	if part == nil {
		a.out = t.cols(a.out)
		a.mem.Release(charged)
	} else {
		if err := sp.dump(t, part); err != nil {
			return fail(err)
		}
		a.mem.Release(charged)
		runs, err := part.finish(a.mem)
		if err != nil {
			return err
		}
		rows, err := sp.mergeAll(runs)
		if err != nil {
			return err
		}
		var arity int
		if len(rows) > 0 {
			arity = len(rows[0])
		}
		a.out = transposeRows(rows, arity)
	}
	// The final output must materialize for the consumer regardless of
	// budget; Force records any overage.
	a.mem.Force(colBytes(a.out.width(), a.out.n))
	a.pos = 0
	return nil
}

func (a *vecHashAggOp) Next() (*Batch, error) { return a.out.emit(&a.batch, &a.pos), nil }

func (a *vecHashAggOp) Close() error {
	a.out.n = 0 // the columns stay for the next execution
	a.mem.ReleaseAll()
	return nil
}
