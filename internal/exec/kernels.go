package exec

import "repro/internal/relalg"

// This file holds the batch kernels that make the vectorized path fast:
// predicate selection loops specialized per comparison operator running
// over one contiguous column slice each (one operator dispatch per batch,
// no per-row pointer chase) and branch-free inside (every row is written,
// the output cursor advances by the comparison's 0/1 outcome, so an
// unpredictable predicate costs no mispredictions), a vectorized
// multiplicative hash over key columns, and a bucket-chained hash table for
// the vectorized hash join whose build side is stored column-major.

// ScanCond is a structured pushed-down selection: col[Off] <Op> Val. The
// scans evaluate conditions with per-batch single-column kernels.
type ScanCond struct {
	Off int
	Op  relalg.CmpOp
	Val int64
}

// ScanFilter bundles the pushed-down selections of one scan.
type ScanFilter struct {
	Conds []ScanCond
}

// Empty reports whether the filter passes every row.
func (f ScanFilter) Empty() bool { return len(f.Conds) == 0 }

// selRange computes the selection vector of rows [lo, hi) of full-length
// columns into buf, which the caller reuses across batches; the indexes are
// relative to lo, matching column windows cut at the same bounds. The first
// condition scans its column densely; each further condition compacts the
// selection in place, touching only its own column. The dense kernel writes
// a slot for every row, so buf grows once, to hi-lo.
func (f ScanFilter) selRange(cols [][]int64, lo, hi int, buf []int) []int {
	n := hi - lo
	if f.Empty() {
		sel := sized(buf, n)
		for i := range sel {
			sel[i] = i
		}
		return sel
	}
	c := f.Conds[0]
	sel := condSelDense(cols[c.Off][lo:hi], n, c.Op, c.Val, buf)
	for _, c := range f.Conds[1:] {
		sel = condSelRefine(cols[c.Off][lo:hi], c.Op, c.Val, sel)
	}
	return sel
}

// b2i is 1 for true and 0 for false. The compiler emits it as SETcc, which is
// what keeps the selection loops free of data-dependent branches.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cmpFlip reduces op to a base comparison — =, < or <= — and a 0/1 negation:
// <> is not =, >= is not <, > is not <=. An unknown op is its own base, which
// no kernel matches, so it selects nothing, as CmpOp.Eval reports false.
func cmpFlip(op relalg.CmpOp) (relalg.CmpOp, int) {
	switch op {
	case relalg.CmpNE:
		return relalg.CmpEQ, 1
	case relalg.CmpGE:
		return relalg.CmpLT, 1
	case relalg.CmpGT:
		return relalg.CmpLE, 1
	}
	return op, 0
}

// condSelDense writes the indices i < n with col[i] <op> val into sel's
// backing array, grown to n if it is smaller, and returns them: every index
// is stored, and the cursor advances past the rows that satisfy the condition.
func condSelDense(col []int64, n int, op relalg.CmpOp, val int64, sel []int) []int {
	col, sel = col[:n], sized(sel, n)
	base, flip := cmpFlip(op)
	k := 0
	switch base {
	case relalg.CmpEQ:
		for i, v := range col {
			sel[k] = i
			k += b2i(v == val) ^ flip
		}
	case relalg.CmpLT:
		for i, v := range col {
			sel[k] = i
			k += b2i(v < val) ^ flip
		}
	case relalg.CmpLE:
		for i, v := range col {
			sel[k] = i
			k += b2i(v <= val) ^ flip
		}
	}
	return sel[:k]
}

// condSelRefine compacts sel in place to the rows whose col value also
// satisfies the condition, the same branch-free way.
func condSelRefine(col []int64, op relalg.CmpOp, val int64, sel []int) []int {
	base, flip := cmpFlip(op)
	k := 0
	switch base {
	case relalg.CmpEQ:
		for _, i := range sel {
			sel[k] = i
			k += b2i(col[i] == val) ^ flip
		}
	case relalg.CmpLT:
		for _, i := range sel {
			sel[k] = i
			k += b2i(col[i] < val) ^ flip
		}
	case relalg.CmpLE:
		for _, i := range sel {
			sel[k] = i
			k += b2i(col[i] <= val) ^ flip
		}
	}
	return sel[:k]
}

// ColPred is a structured residual predicate over a joined output row:
// row[L] <Op> row[R] + Off. Join equality residuals are {L, R, CmpEQ, 0};
// cross-relation filters carry their constant offset. Every residual the
// compiler generates has this shape, so joins evaluate residuals with
// column kernels on (build, probe) index pairs instead of gathering a row
// and calling a closure.
type ColPred struct {
	L, R int
	Op   relalg.CmpOp
	Off  int64
}

// ---- vectorized hashing ----

const (
	hashSeed = uint64(0x9E3779B97F4A7C15)
	hashMul  = uint64(0xBF58476D1CE4E5B9)
)

// hashColsAt mixes the compound key columns keys of row i of a column-major
// chunk with a multiplicative hash — cheap, and strong enough for bucket
// selection since every chain hit is verified by hash and key equality.
// hashLive and hashDense compute bit-identical values column-wise.
func hashColsAt(cols [][]int64, keys []int, i int) uint64 {
	h := hashSeed
	for _, c := range keys {
		h = (h ^ uint64(cols[c][i])) * hashMul
	}
	return h ^ h>>32
}

// hashLive computes the hash of every live row of a column-major chunk into
// dst (reused across batches), one column pass per key: dst[k] is the hash
// of the k-th live row. The per-element recurrence is exactly hashColsAt's.
// One- and two-column keys (nearly every join and group-by in the workload)
// get fused single-pass loops; wider keys fall back to a pass per column.
func hashLive(dst []uint64, cols [][]int64, keys []int, n int, sel []int) []uint64 {
	m := n
	if sel != nil {
		m = len(sel)
	}
	if m == 0 {
		return dst[:0]
	}
	dst = sized(dst, m)
	switch len(keys) {
	case 1:
		col := cols[keys[0]]
		if sel == nil {
			for i := 0; i < n; i++ {
				h := (hashSeed ^ uint64(col[i])) * hashMul
				dst[i] = h ^ h>>32
			}
		} else {
			for k, i := range sel {
				h := (hashSeed ^ uint64(col[i])) * hashMul
				dst[k] = h ^ h>>32
			}
		}
		return dst
	case 2:
		c0, c1 := cols[keys[0]], cols[keys[1]]
		if sel == nil {
			for i := 0; i < n; i++ {
				h := (hashSeed ^ uint64(c0[i])) * hashMul
				h = (h ^ uint64(c1[i])) * hashMul
				dst[i] = h ^ h>>32
			}
		} else {
			for k, i := range sel {
				h := (hashSeed ^ uint64(c0[i])) * hashMul
				h = (h ^ uint64(c1[i])) * hashMul
				dst[k] = h ^ h>>32
			}
		}
		return dst
	}
	for k := range dst {
		dst[k] = hashSeed
	}
	for _, key := range keys {
		col := cols[key]
		if sel == nil {
			for i := 0; i < n; i++ {
				dst[i] = (dst[i] ^ uint64(col[i])) * hashMul
			}
		} else {
			for k, i := range sel {
				dst[k] = (dst[k] ^ uint64(col[i])) * hashMul
			}
		}
	}
	for k := range dst {
		dst[k] ^= dst[k] >> 32
	}
	return dst
}

// hashDense fills dst with the hashes of rows 0..len(dst)-1 of a column-major
// row set — the build-side hashing pass of the join-table build.
func hashDense(dst []uint64, cols [][]int64, keys []int) {
	if len(dst) == 0 {
		return // an empty build side may have no columns at all
	}
	switch len(keys) {
	case 1:
		col := cols[keys[0]]
		for i := range dst {
			h := (hashSeed ^ uint64(col[i])) * hashMul
			dst[i] = h ^ h>>32
		}
		return
	case 2:
		c0, c1 := cols[keys[0]], cols[keys[1]]
		for i := range dst {
			h := (hashSeed ^ uint64(c0[i])) * hashMul
			h = (h ^ uint64(c1[i])) * hashMul
			dst[i] = h ^ h>>32
		}
		return
	}
	for i := range dst {
		dst[i] = hashSeed
	}
	for _, key := range keys {
		col := cols[key]
		for i := range dst {
			dst[i] = (dst[i] ^ uint64(col[i])) * hashMul
		}
	}
	for i := range dst {
		dst[i] ^= dst[i] >> 32
	}
}

// colKeysEqual compares the compound key of build row bi against probe row
// pi, both column-major.
func colKeysEqual(bCols [][]int64, bKeys []int, bi int, pCols [][]int64, pKeys []int, pi int) bool {
	for k := range bKeys {
		if bCols[bKeys[k]][bi] != pCols[pKeys[k]][pi] {
			return false
		}
	}
	return true
}

// ---- join hash table ----

// joinTable is the vectorized hash join's build-side table: a power-of-two
// bucket array of chain heads plus per-row next links and full hashes for
// prefiltering, laid out as flat arrays instead of a Go map. The build rows
// themselves are column-major, so probe-time key verification and result
// stitching read contiguous column slices.
//
// In counting mode (mult != nil; see Compiler.counted) nothing above the join
// reads a build column, so the build links only the first row of each
// distinct key and counts the rest onto it: mult[i] is the number of build
// rows sharing linked row i's key. A chain then holds at most one match per
// probe row.
// Beside the chains, bits is an exact bitmap of the first key column (bit v-lo
// is set iff a build row's first key is v) whenever its range holds more than
// 2 and at most 64 values per build row (8 B a row, in buildBytes), else empty.
type joinTable struct {
	mask   uint64
	head   []int32 // bucket -> 1-based index of the chain head row
	next   []int32 // row -> 1-based index of the next row in its chain
	hashes []uint64
	mult   []int32
	bits   []uint64
	lo     int64
	keys   []int
	data   colData
}

// countDup is the counting-mode step before build row i (hashed already) is
// linked: it adds the row to the multiplicity of the linked row with the same
// key and reports true — i then stays unlinked — or starts i's own
// multiplicity when its key is new.
func (t *joinTable) countDup(i int32) bool {
	h := t.hashes[i]
	for ci := t.head[h&t.mask]; ci != 0; ci = t.next[ci-1] {
		r := ci - 1
		if t.hashes[r] == h && colKeysEqual(t.data.cols, t.keys, int(r), t.data.cols, t.keys, int(i)) {
			t.mult[r]++
			return true
		}
	}
	t.mult[i] = 1
	return false
}

// buildJoinTable builds the table over data in t — nil, or the operator's
// table of its previous execution, whose arrays are reused where large enough.
func buildJoinTable(t *joinTable, data colData, keys []int, counting bool) *joinTable {
	n := data.n
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if t == nil {
		t = new(joinTable)
	}
	t.mask, t.keys, t.data = uint64(size-1), keys, data
	t.head, t.next, t.hashes = sized(t.head, size), sized(t.next, n), sized(t.hashes, n)
	clear(t.head) // next and hashes are written for every row that is read
	if counting {
		t.mult = sized(t.mult, n) // countDup starts each linked row's count
	}
	hashDense(t.hashes, data.cols, keys)
	for i := 0; i < n; i++ {
		if counting && t.countDup(int32(i)) {
			continue
		}
		b := t.hashes[i] & t.mask
		t.next[i] = t.head[b]
		t.head[b] = int32(i + 1)
	}
	if t.bits = t.bits[:0]; n == 0 {
		return t // heads drops every probe row without a bitmap
	}
	col := data.cols[keys[0]][:n]
	lo, hi := col[0], col[0]
	for _, v := range col {
		lo, hi = min(lo, v), max(hi, v)
	}
	span := uint64(hi) - uint64(lo) // exact, even across the int64 range
	if span/64 >= uint64(n) || span/2 < uint64(n) {
		return t // too sparse for a word per row, or too dense to drop many probe rows
	}
	t.lo, t.bits = lo, sized(t.bits, int(span/64+1))
	clear(t.bits)
	for _, v := range col {
		d := uint64(v) - uint64(lo)
		t.bits[d>>6] |= 1 << (d & 63)
	}
	return t
}

// admit compacts into dst, branch-free, the m > 0 live rows of a probe chunk
// (under sel) whose first key col[i] a build row has, given a bitmap. v-lo mod
// 2^64 is a bijection of v, so no key outside the span wraps into it.
func (t *joinTable) admit(col []int64, m int, sel, dst []int) []int {
	dst = sized(dst, m)
	lo, bits, last, k := uint64(t.lo), t.bits, uint64(len(t.bits)-1), 0
	if sel == nil {
		for i, v := range col[:m] {
			d := uint64(v) - lo
			dst[k] = i
			k += b2i(d>>6 <= last) & int(bits[min(d>>6, last)]>>(d&63))
		}
	} else {
		for _, i := range sel[:m] {
			d := uint64(col[i]) - lo
			dst[k] = i
			k += b2i(d>>6 <= last) & int(bits[min(d>>6, last)]>>(d&63))
		}
	}
	return dst[:k]
}

// probeRow is a probe row whose bucket is not empty: its index in the probe
// chunk and its chain cursor, a 1-based table row (0 = end of chain).
type probeRow struct{ row, chain int32 }

// heads loads every live probe row's bucket head in one pass, so the rows'
// independent cache misses overlap, and keeps — in order and branch-free —
// the rows whose bucket is not empty: afterwards hs[x] and cands[x] are the
// hash, the probe row and the chain head of the x-th of them.
func (t *joinTable) heads(hs []uint64, sel []int, cands []probeRow) ([]uint64, []probeRow) {
	cands = sized(cands, len(hs))
	m := 0
	for k, h := range hs {
		c := t.head[h&t.mask]
		i := k
		if sel != nil {
			i = sel[k]
		}
		hs[m], cands[m] = h, probeRow{int32(i), c}
		m += b2i(c != 0)
	}
	return hs[:m], cands[:m]
}

// walk appends to pb and pp the (build row, probe row) matches of the rows x,
// x+1, ... heads kept — in probe-row order, then chain order — until pb holds
// BatchSize pairs, and returns the row to resume at (len(cands) once the chunk
// is done). A stop mid-chain leaves the rest of the chain in the row's cursor.
// Both join modes probe through it; a counting table holds at most one match
// per probe row.
//
// A one-column key's hash is a bijection of the key (the seed xor, the odd
// multiply and the xorshift are each invertible), so there the hash compare is
// the key compare and no build column is read — an empty build side may have
// none. Wider keys are verified column by column against the probe chunk cols.
func (t *joinTable) walk(cols [][]int64, pKeys []int, hs []uint64, cands []probeRow, x int,
	pb, pp []int32) (int, []int32, []int32) {
	oneKey := len(t.keys) == 1
	for ; x < len(cands); x++ {
		h, i := hs[x], cands[x].row
		for ci := cands[x].chain; ci != 0; ci = t.next[ci-1] {
			r := ci - 1
			if t.hashes[r] != h || !oneKey && !colKeysEqual(t.data.cols, t.keys, int(r), cols, pKeys, int(i)) {
				continue
			}
			pb, pp = append(pb, r), append(pp, i)
			if len(pb) == BatchSize {
				cands[x].chain = t.next[r]
				return x, pb, pp
			}
		}
	}
	return x, pb, pp
}
