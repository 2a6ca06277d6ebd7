package exec

import (
	"cmp"
	"errors"
	"math"
	"slices"
)

// AggSpecExec describes a hash aggregation over the join output.
type AggSpecExec struct {
	GroupBy       []int // column offsets in the input row
	Sums          []int
	CountAll      bool
	CountDistinct []int
}

// aggTable is the grouping core of the hash aggregation operator: an
// open-addressing table of 1-based group ids hashed directly on the int64
// group-key columns, with all group state in columns indexed by group id —
// key columns, SUMs, COUNT(*) — the format a spilled partial has when it
// merges back (mergePartials). Adding a row allocates
// nothing beyond amortized slice growth — no per-row key string, no
// per-group state struct — which is what keeps the aggregation hot path off
// the allocator.
//
// In front of the slots sits a direct map: while the live keys of an
// execution fit a box of at most directSlots cells, a row's group is one load
// at its key's packed offset — no hash, probe or key compare. A box that would
// pass directSlots makes the table wide: it hashes until reset. Groups are
// created through the one probe, group, either way, so the slots always hold
// every group; over a few groups the sums add up beside the lookup, four rows
// a step (foldDirect).
type aggTable struct {
	spec AggSpecExec
	gw   int // group-key width
	sw   int // sum width
	dw   int // count-distinct width

	mask   uint64
	slots  []int32 // open addressing: 0 = empty, else 1-based group id
	hashes []uint64
	keys   [][]int64 // keys[c][g]: group g's key column c
	sums   [][]int64 // sums[s][g]: group g's SUM s
	counts []int64
	view   [][]int64 // keys, sums, counts: the partials
	n      int
	perm   []int32 // sorted's group permutation, kept until reset
	fresh  []int32 // sorted's new groups, merged into perm

	// All COUNT(DISTINCT) sets are one open-addressing set of (set id, value)
	// pairs, set id = group·dw + column: slot s holds value dvals[s] of set
	// dids[s]-1, or nothing when dids[s] is 0. dcounts[d] is the size of set d,
	// dn the values stored in all of them.
	dmask   uint64
	dids    []int32
	dvals   []int64
	dcounts []int64
	dn      int

	// The box holds key column c in [lo[c], lo[c]+span[c]); direct[x]-1 is the
	// group whose key packs row-major to cell x (none at 0), for every group
	// in [0, mapped) inside the box. No cells is no box yet.
	direct []int32
	lo     []int64
	span   []uint64
	mapped int
	wide   bool
}

const aggInitSlots = 256 // power of two

// aggInitGroups is the groups a new table holds before its columns grow: the
// handful a TPC-H aggregation makes.
const aggInitGroups = 16

// directSlots bounds the direct map at 16 KiB. Every narrow group key of the
// TPC-H and Linear Road queries fits; Q10's c_custkey × n_name does not.
const directSlots = 4096

func newAggTable(spec AggSpecExec) *aggTable {
	t := &aggTable{
		spec:  spec,
		gw:    len(spec.GroupBy),
		sw:    len(spec.Sums),
		dw:    len(spec.CountDistinct),
		mask:  aggInitSlots - 1,
		slots: make([]int32, aggInitSlots),
	}
	// The partial columns are one list, keys and sums views into it; one
	// block holds every column's first aggInitGroups groups.
	t.view = flatCols(t.gw+t.sw+1, aggInitGroups)
	for c := range t.view {
		t.view[c] = t.view[c][:0]
	}
	t.keys, t.sums, t.counts = t.view[:t.gw:t.gw], t.view[t.gw:t.gw+t.sw:t.gw+t.sw], t.view[t.gw+t.sw]
	if t.dw > 0 {
		t.dmask, t.dids, t.dvals = aggInitSlots-1, make([]int32, aggInitSlots), make([]int64, aggInitSlots)
	}
	return t
}

// reset empties the table for the next execution; every array keeps its
// capacity, and the slot arrays the size they grew to. The execution starts
// with no box and not wide.
func (t *aggTable) reset() {
	clear(t.slots)
	clear(t.dids)
	for c, col := range t.view {
		t.view[c] = col[:0]
	}
	t.hashes, t.counts, t.dcounts = t.hashes[:0], t.counts[:0], t.dcounts[:0]
	t.n, t.dn = 0, 0
	t.direct, t.mapped, t.wide = t.direct[:0], 0, false
	t.perm = t.perm[:0]
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
// aggregation path: the hash path's batch hash vector and the resolved group
// id per live row. One instance per consumer.
type aggScratch struct {
	hashes []uint64
	gids   []int32
}

// addBatch folds a column-major chunk (cols[c] holding rows 0..n-1, live
// rows given by sel) into the table. foldDirect takes what rows it can in one
// pass; for the rest group ids are resolved once per row — through the direct
// map, and for a wide table through the slots — and each accumulator column
// is then updated in its own loop over them. mult, when non-nil, is the
// chunk's multiplicity vector (Batch.Mult): row i stands for mult[i] copies,
// so it adds mult[i] to COUNT(*) and mult[i]·v to a SUM; a COUNT(DISTINCT)
// set is the same however often a value arrives.
func (t *aggTable) addBatch(cols [][]int64, n int, sel []int, mult []int64, s *aggScratch) {
	live := sel
	if live == nil {
		live = allRows[:n]
	}
	s.gids = sized(s.gids, len(live))
	folded := t.foldDirect(cols, live, mult, s.gids)
	live, s.gids = live[folded:], s.gids[:len(live)-folded]
	if k := t.resolveDirect(cols, live, s.gids); k < len(live) {
		t.resolveGids(cols, n, live, s, k)
	}
	for si, c := range t.spec.Sums {
		col, sums := cols[c], t.sums[si]
		for k, i := range live {
			sums[s.gids[k]] += col[i]
		}
	}
	if mult != nil {
		t.addExtraCopies(cols, live, mult, s.gids)
	}
	for di, c := range t.spec.CountDistinct {
		col := cols[c]
		for k, i := range live {
			t.addDistinct(int(s.gids[k])*t.dw+di, col[i])
		}
	}
}

// addExtraCopies finishes addBatch over a weighted chunk: COUNT(*) and every
// SUM hold each live row once by now, and row i stands for mult[i] copies, so
// the other mult[i]-1 are added here.
func (t *aggTable) addExtraCopies(cols [][]int64, live []int, mult []int64, gids []int32) {
	for k, g := range gids {
		i := live[k]
		extra := mult[i] - 1
		t.counts[g] += extra
		for si, c := range t.spec.Sums {
			t.sums[si][g] += extra * cols[c][i]
		}
	}
}

// allRows selects every row of a full batch, for the gid loops, which read
// live rows through a selection either way; its prefix of length gw is the
// identity offsets of a partial's key columns.
var allRows = func() (rows [BatchSize]int) {
	for i := range rows {
		rows[i] = i
	}
	return rows
}()

// fuseGroups bounds the groups of a table foldDirect adds chunks into; zeros
// stands in for a SUM column the table does not have.
const fuseGroups = 16

var zeros [BatchSize]int64

// foldDirect is addBatch's one pass over an unweighted chunk into a direct
// table of 1 to fuseGroups groups and no COUNT(DISTINCT): it resolves live
// rows as lookupDirect does, up to the first outside the box or without a
// group, and in the same loop adds COUNT(*) and the first two SUMs into stack
// accumulators, added into counts and sums once; later SUMs add up over gids,
// the only reader of the group ids it stores. A one- or two-column key takes
// four rows a step, one test of the four cells against the box and one of
// their groups, and a step that fails either adds nothing: the row-at-a-time
// loop after the steps resumes at its first row, so the rows taken are the
// same. It returns the rows it took, 0 for any other table or chunk. Without
// a group key COUNT(*) is the row count and a SUM a plain reduction.
func (t *aggTable) foldDirect(cols [][]int64, sel []int, mult []int64, gids []int32) int {
	if len(t.direct) == 0 || t.wide || t.n == 0 || t.n > fuseGroups || t.dw > 0 || mult != nil {
		return 0
	}
	t.mapGroups()
	keys, direct, sums := t.spec.GroupBy, t.direct, t.spec.Sums
	if len(keys) == 0 {
		t.counts[0] += int64(len(sel))
		for si, c := range sums {
			t.sums[si][0] += sumLive(cols[c], sel)
		}
		return len(sel)
	}
	v := [2][]int64{zeros[:], zeros[:]}
	for si, c := range sums[:min(t.sw, 2)] {
		v[si] = cols[c]
	}
	var acc [3][fuseGroups]int64 // COUNT(*), SUM 0, SUM 1
	k, sel, v0, v1, two, store := 0, sel[:len(gids)], v[0], v[1], t.sw > 1, t.sw > 2
	c0, lo0, s0 := cols[keys[0]], t.lo[0], t.span[0]
	switch len(keys) {
	case 1:
		for ; k+4 <= len(gids); k += 4 {
			r := sel[k : k+4 : k+4]
			i0, i1, i2, i3 := r[0], r[1], r[2], r[3]
			x0, x1, x2, x3 := uint64(c0[i0]-lo0), uint64(c0[i1]-lo0), uint64(c0[i2]-lo0), uint64(c0[i3]-lo0)
			if max(x0, x1, x2, x3) >= s0 {
				break
			}
			g0, g1, g2, g3 := direct[x0]-1, direct[x1]-1, direct[x2]-1, direct[x3]-1
			if min(g0, g1, g2, g3) < 0 {
				break
			}
			if store {
				gids[k], gids[k+1], gids[k+2], gids[k+3] = g0, g1, g2, g3
			}
			// Group ids are below t.n ≤ fuseGroups: the mask only drops bounds checks.
			g0, g1, g2, g3 = g0&(fuseGroups-1), g1&(fuseGroups-1), g2&(fuseGroups-1), g3&(fuseGroups-1)
			acc[0][g0], acc[1][g0] = acc[0][g0]+1, acc[1][g0]+v0[i0]
			acc[0][g1], acc[1][g1] = acc[0][g1]+1, acc[1][g1]+v0[i1]
			acc[0][g2], acc[1][g2] = acc[0][g2]+1, acc[1][g2]+v0[i2]
			acc[0][g3], acc[1][g3] = acc[0][g3]+1, acc[1][g3]+v0[i3]
			if two { // once a step: adding zeros costs a one-SUM table more
				acc[2][g0] += v1[i0]
				acc[2][g1] += v1[i1]
				acc[2][g2] += v1[i2]
				acc[2][g3] += v1[i3]
			}
		}
	case 2:
		c1, lo1, s1 := cols[keys[1]], t.lo[1], t.span[1]
		for ; k+4 <= len(gids); k += 4 {
			r := sel[k : k+4 : k+4]
			i0, i1, i2, i3 := r[0], r[1], r[2], r[3]
			a0, a1, a2, a3 := uint64(c0[i0]-lo0), uint64(c0[i1]-lo0), uint64(c0[i2]-lo0), uint64(c0[i3]-lo0)
			b0, b1, b2, b3 := uint64(c1[i0]-lo1), uint64(c1[i1]-lo1), uint64(c1[i2]-lo1), uint64(c1[i3]-lo1)
			if max(a0, a1, a2, a3) >= s0 || max(b0, b1, b2, b3) >= s1 {
				break
			}
			g0, g1, g2, g3 := direct[a0*s1+b0]-1, direct[a1*s1+b1]-1, direct[a2*s1+b2]-1, direct[a3*s1+b3]-1
			if min(g0, g1, g2, g3) < 0 {
				break
			}
			if store {
				gids[k], gids[k+1], gids[k+2], gids[k+3] = g0, g1, g2, g3
			}
			g0, g1, g2, g3 = g0&(fuseGroups-1), g1&(fuseGroups-1), g2&(fuseGroups-1), g3&(fuseGroups-1)
			acc[0][g0], acc[1][g0] = acc[0][g0]+1, acc[1][g0]+v0[i0]
			acc[0][g1], acc[1][g1] = acc[0][g1]+1, acc[1][g1]+v0[i1]
			acc[0][g2], acc[1][g2] = acc[0][g2]+1, acc[1][g2]+v0[i2]
			acc[0][g3], acc[1][g3] = acc[0][g3]+1, acc[1][g3]+v0[i3]
			if two {
				acc[2][g0] += v1[i0]
				acc[2][g1] += v1[i1]
				acc[2][g2] += v1[i2]
				acc[2][g3] += v1[i3]
			}
		}
	}
	// Row at a time: what the steps left, from a stopped step's first row or
	// the last one to three rows, and every row of a wider key.
	for ; k < len(gids); k++ {
		i := sel[k]
		x, in := t.cellAt(cols, i)
		if !in || direct[x] == 0 {
			break
		}
		g := direct[x] - 1
		gids[k], g = g, g&(fuseGroups-1)
		acc[0][g], acc[1][g], acc[2][g] = acc[0][g]+1, acc[1][g]+v0[i], acc[2][g]+v1[i]
	}
	for g := range t.n {
		t.counts[g] += acc[0][g]
		for si := range min(t.sw, 2) {
			t.sums[si][g] += acc[1+si][g]
		}
	}
	for si := 2; si < t.sw; si++ {
		col, out := cols[sums[si]], t.sums[si]
		for x, i := range sel[:k] {
			out[gids[x]] += col[i]
		}
	}
	return k
}

// sumLive is the sum of col over the live rows sel. It stays out of line:
// inlined into foldDirect, its short loop moved with the four-row steps'
// code and read 10–20 % slower (BenchmarkAggAddBatch/one-group).
//
//go:noinline
func sumLive(col []int64, sel []int) (sum int64) {
	for _, i := range sel {
		sum += col[i]
	}
	return sum
}

// resolveDirect resolves the live rows sel through the direct map, bumping
// COUNT(*), and returns how many it resolved: all, or those before the table
// went wide. A row whose group does not exist yet creates it through the
// slots; a row outside the box widens it. The lookup resumes at that row.
func (t *aggTable) resolveDirect(cols [][]int64, sel []int, gids []int32) int {
	k := 0
	for k < len(gids) && !t.wide {
		if len(t.direct) > 0 {
			t.mapGroups()
			if k = t.lookupDirect(cols, sel, gids, k); k == len(gids) {
				break
			}
			i := sel[k]
			if _, in := t.cellAt(cols, i); in {
				g := t.group(hashColsAt(cols, t.spec.GroupBy, i), cols, t.spec.GroupBy, i)
				gids[k] = int32(g)
				t.counts[g]++
				k++
				continue
			}
		}
		t.widen(cols, sel[k:])
	}
	return k
}

// lookupDirect resolves live rows k, k+1, … through the direct map up to the
// first whose key lies outside the box or has no group, and returns that row
// (len(gids) if none). One unsigned compare checks a key column's offset
// against its span; one- and two-column keys get their own loops.
func (t *aggTable) lookupDirect(cols [][]int64, sel []int, gids []int32, k int) int {
	keys, direct, counts := t.spec.GroupBy, t.direct, t.counts
	switch len(keys) {
	case 1:
		c0, lo0, s0 := cols[keys[0]], t.lo[0], t.span[0]
		for ; k < len(gids); k++ {
			x := uint64(c0[sel[k]] - lo0)
			if x >= s0 || direct[x] == 0 {
				break
			}
			g := direct[x] - 1
			gids[k] = g
			counts[g]++
		}
	case 2:
		c0, c1 := cols[keys[0]], cols[keys[1]]
		lo0, lo1, s0, s1 := t.lo[0], t.lo[1], t.span[0], t.span[1]
		for ; k < len(gids); k++ {
			i := sel[k]
			d0, d1 := uint64(c0[i]-lo0), uint64(c1[i]-lo1)
			if d0 >= s0 || d1 >= s1 || direct[d0*s1+d1] == 0 {
				break
			}
			g := direct[d0*s1+d1] - 1
			gids[k] = g
			counts[g]++
		}
	default:
		for ; k < len(gids); k++ {
			x, in := t.cellAt(cols, sel[k])
			if !in || direct[x] == 0 {
				break
			}
			g := direct[x] - 1
			gids[k] = g
			counts[g]++
		}
	}
	return k
}

// cellAt returns the cell row i's key packs to, row-major, and whether the key
// lies in the box.
func (t *aggTable) cellAt(cols [][]int64, i int) (uint64, bool) {
	x := uint64(0)
	for c, key := range t.spec.GroupBy {
		d := uint64(cols[key][i] - t.lo[c])
		if d >= t.span[c] {
			return 0, false
		}
		x = x*t.span[c] + d
	}
	return x, true
}

// mapGroups enters the groups created since the map was complete — all of them
// after widen — whose keys lie in the box.
func (t *aggTable) mapGroups() {
	for ; t.mapped < t.n; t.mapped++ {
		x, in := uint64(0), true
		for c, s := range t.span {
			d := uint64(t.keys[c][t.mapped] - t.lo[c])
			in = in && d < s
			x = x*s + d
		}
		if in {
			t.direct[x] = int32(t.mapped + 1)
		}
	}
}

// widen grows the box to cover the keys of the live rows sel (a first box is
// their range) and clears the map. An outgrown key column grows to up to twice
// its span, on the side it outgrew and as far as directSlots allows, so a key
// that creeps upward rebuilds the map O(log) times. No fit makes it wide.
func (t *aggTable) widen(cols [][]int64, sel []int) {
	if t.lo == nil {
		t.lo, t.span = make([]int64, t.gw), make([]uint64, t.gw)
	}
	boxed, cells := len(t.direct) > 0, uint64(1)
	var up, down uint64 // outgrown key columns, a bit each
	for c, key := range t.spec.GroupBy {
		lo, hi := liveRange(cols[key], sel)
		if boxed {
			olo, ohi := t.lo[c], t.lo[c]+int64(t.span[c]-1)
			up |= uint64(b2i(hi > ohi)) << c
			down |= uint64(b2i(lo < olo)) << c
			lo, hi = min(lo, olo), max(hi, ohi)
		}
		t.lo[c], t.span[c] = lo, uint64(hi-lo)+1
		if cells *= t.span[c]; uint64(hi-lo) >= directSlots || cells > directSlots {
			t.wide = true
			return
		}
	}
	for c, s := range t.span {
		g := min(s, directSlots/(cells/s)-s) // cells to add along c
		switch {
		case up>>c&1 == 1:
			g = min(g, uint64(math.MaxInt64-(t.lo[c]+int64(s-1))))
		case down>>c&1 == 1:
			g = min(g, uint64(t.lo[c]-math.MinInt64))
			t.lo[c] -= int64(g)
		default:
			continue
		}
		t.span[c] += g
		cells = cells / s * t.span[c]
	}
	t.direct, t.mapped = sized(t.direct, int(cells)), 0
	clear(t.direct)
}

// liveRange returns the least and the greatest value of col over the live
// rows sel; there is at least one.
func liveRange(col []int64, sel []int) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, i := range sel {
		lo, hi = min(lo, col[i]), max(hi, col[i])
	}
	return lo, hi
}

// resolveGids is the hash path, for a wide table: it fills gids[k], for live
// rows k from on, with the group id of live row sel[k], creating groups as
// needed, and bumps each group's COUNT(*) in the same pass.
func (t *aggTable) resolveGids(cols [][]int64, n int, sel []int, s *aggScratch, from int) {
	s.hashes = hashLive(s.hashes, cols, t.spec.GroupBy, n, sel)
	for k := from; k < len(sel); k++ {
		g := t.group(s.hashes[k], cols, t.spec.GroupBy, sel[k])
		s.gids[k] = int32(g)
		t.counts[g]++
	}
}

// group is the one probe: it returns the id of the group whose key is row i
// of the columns offs of cols, creating the group if it is new. h must be
// that key's hash. The hash path passes an input chunk at spec.GroupBy, a
// merge a partial's key columns at identity offsets.
func (t *aggTable) group(h uint64, cols [][]int64, offs []int, i int) int {
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		gi := t.slots[s]
		if gi == 0 {
			g := t.n
			t.n++
			t.slots[s] = int32(g + 1)
			t.hashes = append(t.hashes, h)
			for k, c := range offs {
				t.keys[k] = append(t.keys[k], cols[c][i])
			}
			for k := range t.sums {
				t.sums[k] = append(t.sums[k], 0)
			}
			t.counts = append(t.counts, 0)
			t.dcounts = append(t.dcounts, make([]int64, t.dw)...)
			// Grow at 3/4 load; rehashing only touches the slot array
			// (hashes are stored per group).
			if uint64(t.n)*4 > (t.mask+1)*3 {
				t.grow()
			}
			return g
		}
		g := int(gi - 1)
		if t.hashes[g] != h {
			continue
		}
		k := 0
		for k < len(offs) && t.keys[k][g] == cols[offs[k]][i] {
			k++
		}
		if k == len(offs) {
			return g
		}
	}
}

// approxBytes estimates the table's tracked footprint: the slot array, the
// direct map (4 bytes a cell), the per-group hash, key, sum, count and
// distinct-count storage, and the distinct set's two slot arrays as held (12
// bytes a slot). Monotone in n, in the box and in the stored values, so
// charging the delta after each batch keeps the reservation current.
func (t *aggTable) approxBytes() int64 {
	per := int64(8 + t.gw*8 + t.sw*8 + 8 + t.dw*8)
	return int64(t.mask+1)*4 + int64(len(t.direct))*4 + int64(t.n)*per + int64(len(t.dids))*12
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

// partials returns the groups as partials — key columns, SUMs, then COUNT(*),
// one column each, indexed by group id — the table's own state, valid until
// its next group.
func (t *aggTable) partials() [][]int64 {
	t.view[t.gw+t.sw] = t.counts
	return t.view
}

// mergePartials folds n partials, columns p as partials renders them, into
// t: partial i, whose key hashes to hs[i], merges into group gids[i].
func (t *aggTable) mergePartials(p [][]int64, hs []uint64, n int, gids []int32) {
	sums, counts := p[t.gw:t.gw+t.sw], p[t.gw+t.sw]
	for i := range n {
		g := t.group(hs[i], p, allRows[:t.gw], i)
		for s, col := range sums {
			t.sums[s][g] += col[i]
		}
		t.counts[g] += counts[i]
		gids[i] = int32(g)
	}
}

// cmpKeys orders rows a and b of the key columns keys by their keys, column
// by column — the output order, which both the table and the spill merge
// sort by.
func cmpKeys(keys [][]int64, a, b int32) int {
	for _, col := range keys {
		if c := cmp.Compare(col[a], col[b]); c != 0 {
			return c
		}
	}
	return 0
}

// sorted returns the group ids in ascending group-key order — the
// deterministic output order. Keys are unique, so they order the rows.
// Groups are only ever added until reset, so the order of the ones sorted
// last is kept: a table that absorbs a few groups (a maintained one) sorts
// only those and merges them in, from the back.
func (t *aggTable) sorted() []int32 {
	old := len(t.perm)
	for g := old; g < t.n; g++ {
		t.perm = append(t.perm, int32(g))
	}
	byKey := func(a, b int32) int { return cmpKeys(t.keys, a, b) }
	slices.SortFunc(t.perm[old:], byKey)
	if old == 0 || old == t.n {
		return t.perm
	}
	t.fresh = append(t.fresh[:0], t.perm[old:]...)
	for i, j, k := old-1, len(t.fresh)-1, t.n-1; j >= 0; k-- {
		if i >= 0 && byKey(t.perm[i], t.fresh[j]) > 0 {
			t.perm[k], i = t.perm[i], i-1
		} else {
			t.perm[k], j = t.fresh[j], j-1
		}
	}
	return t.perm
}

// cols renders the groups column-major in sorted group-key order into out's
// columns, after its first out.n rows (none after Close): group-by columns,
// SUMs, COUNT(*) if requested, then COUNT(DISTINCT) values.
func (t *aggTable) cols(out colData) colData {
	perm, n, src := t.sorted(), out.n, t.partials()
	if !t.spec.CountAll {
		src = src[:t.gw+t.sw]
	}
	out.cols, out.n = sized(out.cols, len(src)+t.dw), n+t.n
	for c := range out.cols {
		// A distinct count is every dw-th value of dcounts.
		vals, stride, off := t.dcounts, t.dw, c-len(src)
		if c < len(src) {
			vals, stride, off = src[c], 1, 0
		}
		col := slices.Grow(out.cols[c][:n], t.n)[:out.n]
		for r, g := range perm {
			col[n+r] = vals[int(g)*stride+off]
		}
		out.cols[c] = col
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

	// Maintaining the table (maintain): st is the record of a tree that
	// runs again (nil: the table is emptied every execution), and kept
	// says the table holds the fold of the last execution's whole input.
	st   *RunStats
	kept bool
}

// NewVecHashAgg returns a blocking hash aggregation: it consumes its input
// batch-at-a-time through aggTable.addBatch (group ids by direct map while the
// keys fit a small box, by hashing beyond it; sums beside the lookup over a
// few groups, else per-column loops) and emits the groups as dense column
// windows in deterministic (sorted group key) order — the group-by columns,
// SUM values, COUNT(*) if requested, then COUNT(DISTINCT) values. Under a
// memory budget it spills (spillagg.go). In a held tree it keeps its table
// and folds only the rows its input gained since (maintain).
func NewVecHashAgg(in VecIterator, spec AggSpecExec) VecIterator {
	return &vecHashAggOp{in: in, spec: spec}
}

func (a *vecHashAggOp) Open() error {
	if a.t == nil {
		a.t = newAggTable(a.spec)
	}
	kept := a.kept
	a.kept = false // until this execution's fold has finished
	askDelta(a.in, kept)
	if err := a.in.Open(); err != nil {
		return err
	}
	t, charged, part, err := a.fold(a.t, a.maintain(kept && gotDelta(a.in)), 0, false, a.in.Next)
	if err = errors.Join(err, a.in.Close()); err != nil {
		if part != nil {
			part.abort()
		}
		a.mem.Release(charged)
		return err
	}
	a.t = t // after a spill, the small table folding restarted in
	if err := a.merge(t, charged, part, 0); err != nil {
		return err
	}
	if part != nil {
		a.out = order(a.out, t.gw)
	}
	// Only a fold that finished in memory without a budget is kept.
	a.kept = a.st != nil && part == nil && !a.mem.Bounded()
	// The final output must materialize for the consumer regardless of
	// budget; Force records any overage.
	a.mem.Force(colBytes(a.out.width(), a.out.n))
	a.pos = 0
	return nil
}

// maintain readies the table for the execution's fold, after the input
// has opened, and returns what the table is charged. SUM, COUNT(*) and
// COUNT(DISTINCT) all absorb inserts, so when the table was kept and the
// input emits only the rows it gained since (delta), the fold is those
// rows alone: the table is charged as it stands, and the aggregation's
// shim and the record marked maintained. Every other execution — the
// first, one after a reset, after a failed or spilled one, any under a
// budget — is the same fold into the emptied table.
func (a *vecHashAggOp) maintain(delta bool) int64 {
	if !delta {
		a.t.reset()
		return 0
	}
	a.st.maintained, a.st.agg.maintained = true, true
	charged := a.t.approxBytes()
	a.mem.Force(charged)
	return charged
}

func (a *vecHashAggOp) Next() (*Batch, error) { return a.out.emit(&a.batch, &a.pos), nil }

func (a *vecHashAggOp) Close() error {
	a.out.n = 0 // the columns stay for the next execution
	a.mem.ReleaseAll()
	return nil
}
