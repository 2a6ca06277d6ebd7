package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relalg"
)

// chainWalkProbe is the hash join's probe as a one-row-at-a-time state
// machine — a chain cursor, the probe row it belongs to and that row's hash,
// carried across calls — driving an opened vecHashJoinOp's table, probe
// source (in memory or spilled) and emitter. It is the reference for the
// pairs the batch walk emits and for their order.
type chainWalkProbe struct {
	j       *vecHashJoinOp
	pb      *Batch
	pi      int
	hs      []uint64
	curIdx  int
	curHash uint64
	chain   int32
	drained bool

	pairsB, pairsP []int32
	sel            []int
	mult           []int64
	out            Batch

	midChain int // flushes of a full pair buffer in the middle of a chain
	dropped  int // flushes whose every pair the residual dropped
}

// refFilterPairs is the residual filter evaluated pair by pair with CmpOp.Eval.
func refFilterPairs(preds []ColPred, build *colData, probeCols [][]int64, pb, pp []int32) ([]int32, []int32) {
	bw := build.width()
	k := 0
	for x := range pb {
		bi, pi := pb[x], pp[x]
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

func (r *chainWalkProbe) flushPairs() *Batch {
	j := r.j
	if len(r.pairsB) == BatchSize && r.chain != 0 {
		r.midChain++
	}
	pb, pp := refFilterPairs(j.residual, &j.table.data, r.pb.Cols, r.pairsB, r.pairsP)
	r.pairsB, r.pairsP = r.pairsB[:0], r.pairsP[:0]
	if len(pb) == 0 {
		r.dropped++
		return nil
	}
	return j.emit.emit(&j.table.data, r.pb.Cols, pb, pp)
}

// nextCounted probes a whole batch per call: each live row's first linked
// match, verified on hash and key, is selected with its multiplicity.
func (r *chainWalkProbe) nextCounted() (*Batch, error) {
	j := r.j
	for {
		b, err := j.nextProbeBatch()
		if err != nil || b == nil {
			return nil, err
		}
		r.hs = hashLive(r.hs, b.Cols, j.rKeys, b.N, b.Sel)
		r.mult = slices.Grow(r.mult[:0], b.N)[:b.N]
		r.sel = r.sel[:0]
		t := j.table
		for k, h := range r.hs {
			i := k
			if b.Sel != nil {
				i = b.Sel[k]
			}
			for ci := t.head[h&t.mask]; ci != 0; ci = t.next[ci-1] {
				row := int(ci - 1)
				if t.hashes[row] != h || !colKeysEqual(t.data.cols, t.keys, row, b.Cols, j.rKeys, i) {
					continue
				}
				m := int64(t.mult[row])
				if b.Mult != nil {
					m *= b.Mult[i]
				}
				r.sel = append(r.sel, i)
				r.mult[i] = m
				break
			}
		}
		if len(r.sel) == 0 {
			continue
		}
		r.out.Cols = r.out.Cols[:0]
		for _, c := range j.emit.probeOut {
			r.out.Cols = append(r.out.Cols, b.Cols[c])
		}
		r.out.N, r.out.Sel, r.out.Mult = b.N, r.sel, r.mult
		return &r.out, nil
	}
}

func (r *chainWalkProbe) Next() (*Batch, error) {
	j := r.j
	if j.counting {
		return r.nextCounted()
	}
	t := j.table
	for {
		for r.chain != 0 {
			i := r.chain - 1
			r.chain = t.next[i]
			if t.hashes[i] != r.curHash {
				continue
			}
			if !colKeysEqual(t.data.cols, j.lKeys, int(i), r.pb.Cols, j.rKeys, r.curIdx) {
				continue
			}
			r.pairsB = append(r.pairsB, i)
			r.pairsP = append(r.pairsP, int32(r.curIdx))
			if len(r.pairsB) == BatchSize {
				if out := r.flushPairs(); out != nil {
					return out, nil
				}
			}
		}
		if r.pb != nil && r.pi < r.pb.Len() {
			r.curIdx = r.pi
			if r.pb.Sel != nil {
				r.curIdx = r.pb.Sel[r.pi]
			}
			r.curHash = r.hs[r.pi]
			r.pi++
			r.chain = t.head[r.curHash&t.mask]
			continue
		}
		if len(r.pairsB) > 0 {
			if out := r.flushPairs(); out != nil {
				return out, nil
			}
		}
		if r.drained {
			return nil, nil
		}
		b, err := j.nextProbeBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			r.drained = true
			r.pb = nil
			continue
		}
		r.pb, r.pi = b, 0
		r.hs = hashLive(r.hs, b.Cols, j.rKeys, b.N, b.Sel)
		t = j.table
	}
}

// batchRows copies out every batch next returns: each live row's columns,
// followed by its multiplicity when the batch carries one.
func batchRows(t *testing.T, next func() (*Batch, error)) [][][]int64 {
	t.Helper()
	var out [][][]int64
	for {
		b, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		live := b.Sel
		if live == nil {
			live = seq(b.N)
		}
		var rows [][]int64
		for _, i := range live {
			row := make([]int64, 0, b.Width()+1)
			for _, col := range b.Cols {
				row = append(row, col[i])
			}
			if b.Mult != nil {
				row = append(row, b.Mult[i])
			}
			rows = append(rows, row)
		}
		out = append(out, rows)
	}
}

// probeCase is one join of TestHashJoinProbeMatchesChainWalk. Build rows are
// (key columns..., build id); probe rows are (key columns..., probe id, flag).
type probeCase struct {
	name     string
	keys     int
	build    [][]int64 // column-major
	probe    [][]int64 // column-major
	filtered bool      // probe scan keeps flag == 1 rows, so batches carry Sel
	residual []ColPred
	budget   int64 // > 0: the join runs under a tracker of this limit
	counting bool
}

func (c probeCase) join(t *testing.T) *vecHashJoinOp {
	var filter ScanFilter
	if c.filtered {
		filter.Conds = []ScanCond{{Off: c.keys + 1, Op: relalg.CmpEQ, Val: 1}}
	}
	bn := 0
	if len(c.build) > 0 {
		bn = len(c.build[0])
	}
	lOut := seq(len(c.build))
	if c.counting {
		lOut = nil
	}
	j := NewVecHashJoin(NewVecScan(c.build, bn, ScanFilter{}), NewVecScan(c.probe, len(c.probe[0]), filter),
		seq(c.keys), seq(c.keys), c.residual, lOut, seq(len(c.probe))).(*vecHashJoinOp)
	j.counting = c.counting
	if c.budget > 0 {
		tr := NewMemTracker(c.budget)
		tr.SetSpillDir(t.TempDir())
		j.mem = tr.Child()
	}
	return j
}

// probeTestCols returns keys key columns plus an id and a flag column of n rows:
// keys from a small domain, with hot rows (every hotEvery-th) on the hot key 7.
func probeTestCols(rng *rand.Rand, keys, n, hotEvery int, withFlag bool) [][]int64 {
	width := keys + 1
	if withFlag {
		width++
	}
	cols := make([][]int64, width)
	for c := range cols {
		cols[c] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		hot := hotEvery > 0 && i%hotEvery == 0
		for c := 0; c < keys; c++ {
			cols[c][i] = int64(rng.Intn(4))
			if hot {
				cols[c][i] = 7
			}
		}
		cols[keys][i] = int64(i)
		if withFlag {
			cols[keys+1][i] = int64(rng.Intn(2))
		}
	}
	return cols
}

// bitmapTestCols returns a build side of n rows and a probe side of
// 3·BatchSize-70 rows (with a flag column) for the key bitmap's regimes.
// First build keys are sampled from [lo, lo+span) — with min and max int64
// among them when extremes is set — and later key columns from {0, 1}. Of the probe rows a
// fifth copy a build row's first key, with a later column that matches half
// the time, and the rest are drawn from [lo-span/8, lo+span+span/8): most
// miss inside the range, some fall below and above it, and near the ends of
// int64 those wrap.
func bitmapTestCols(rng *rand.Rand, keys, n int, lo, span int64, extremes bool) (build, probe [][]int64) {
	build = probeTestCols(rng, keys, n, 0, false)
	probe = probeTestCols(rng, keys, 3*BatchSize-70, 0, true)
	for i := range build[0] {
		build[0][i] = lo + rng.Int63n(span)
		for c := 1; c < keys; c++ {
			build[c][i] = int64(rng.Intn(2))
		}
	}
	if extremes {
		build[0][2], build[0][3] = math.MinInt64, math.MaxInt64
	}
	for i := range probe[0] {
		if rng.Intn(5) == 0 {
			r := rng.Intn(n)
			for c := 0; c < keys; c++ {
				probe[c][i] = build[c][r]
			}
			if keys > 1 && rng.Intn(2) == 0 {
				probe[keys-1][i] = 2 // the first column matches, a later one does not
			}
			continue
		}
		probe[0][i] = lo - span/8 + rng.Int63n(span+span/4) // wraps near the ends of int64
		for c := 1; c < keys; c++ {
			probe[c][i] = int64(rng.Intn(2))
		}
	}
	return build, probe
}

// wantBitmap reports whether a join table over build should carry a key
// bitmap: a non-empty build side whose first key column spans more than 2 and
// at most 64 values per row.
func wantBitmap(build [][]int64) bool {
	if len(build) == 0 || len(build[0]) == 0 {
		return false
	}
	n := uint64(len(build[0]))
	values := uint64(slices.Max(build[0])) - uint64(slices.Min(build[0])) + 1
	return values > 2*n && values <= 64*n
}

// TestHashJoinProbeMatchesChainWalk runs the hash join's batch walk and the
// row-at-a-time chain walk over the same opened operators and requires the
// same batches, row for row and in order: a hot key whose chain spans more
// than two pair buffers (resumes mid-chain), probe batches with and without a
// selection, one- to three-column keys, a residual that drops every pair of a
// flush, the spilled path under a tight tracker, and an empty build side with
// no columns, enumerating and counting. The chain walk never reads the key
// bitmap, so the bitmap's regimes are cases too: sparse build keys (a bitmap
// whose range most probes miss inside and some fall outside), build keys at
// the ends of int64 (probe keys whose distance to the bitmap's low end wraps),
// a range of exactly 64 values per build row and one a word wider, a range
// too wide for a bitmap, ranges of 2 values per build row (too dense for one)
// and one more, and an empty build side. Each unspilled
// table is checked to carry a bitmap exactly when its range allows one, and
// the bitmap to admit exactly the probe keys some build row has.
func TestHashJoinProbeMatchesChainWalk(t *testing.T) {
	const hot = 2*BatchSize + 600
	var cases []probeCase
	for keys := 1; keys <= 3; keys++ {
		rng := rand.New(rand.NewSource(int64(31 + keys)))
		build := probeTestCols(rng, keys, 400+hot, 0, false)
		for i := 400; i < len(build[0]); i++ {
			for c := 0; c < keys; c++ {
				build[c][i] = 7 // the hot key's chain
			}
		}
		probe := probeTestCols(rng, keys, 3*BatchSize-70, 97, true)
		bw := keys + 1
		for _, filtered := range []bool{false, true} {
			cases = append(cases,
				probeCase{name: "hot", keys: keys, build: build, probe: probe, filtered: filtered},
				probeCase{name: "counting", keys: keys, build: build, probe: probe, filtered: filtered, counting: true},
				probeCase{name: "spilled", keys: keys, build: build, probe: probe, filtered: filtered, budget: 24 << 10},
				probeCase{name: "spilled-counting", keys: keys, build: build, probe: probe, filtered: filtered,
					budget: 24 << 10, counting: true},
			)
		}
		// Keeps build id <= probe id - BatchSize: hot probe row 0 fails on
		// every one of its pairs, which fill the first flushes.
		drop := []ColPred{{L: keys, R: bw + keys, Op: relalg.CmpLE, Off: -int64(BatchSize)}}
		cases = append(cases, probeCase{name: "residual-drops-a-flush", keys: keys, build: build, probe: probe,
			residual: drop})
		cases = append(cases, probeCase{name: "residual-drops-a-flush-spilled", keys: keys, build: build,
			probe: probe, residual: drop, budget: 24 << 10})
	}
	for keys := 1; keys <= 3; keys++ {
		rng := rand.New(rand.NewSource(int64(71 + keys)))
		const n = 2000 // spills under the tight tracker
		for _, regime := range []struct {
			name     string
			lo, span int64
			extremes bool
		}{
			{"bitmap-sparse", 1000, 32 * n, false},
			{"bitmap-at-the-limit", 1000, 64 * n, false},        // n words
			{"bitmap-one-word-too-wide", 1000, 64*n + 1, false}, // n+1 words
			{"bitmap-one-value-past-dense", 1000, 2*n + 1, false},
			{"bitmap-dense", 1000, 2 * n, false},
			{"bitmap-at-min-int64", math.MinInt64, 32 * n, false},
			{"bitmap-at-max-int64", math.MaxInt64 - 32*n + 1, 32 * n, false},
			{"bitmap-too-wide", 1000, 32 * n, true},
		} {
			build, probe := bitmapTestCols(rng, keys, n, regime.lo, regime.span, regime.extremes)
			build[0][0], build[0][1] = regime.lo, regime.lo+regime.span-1 // the range's ends
			for _, filtered := range []bool{false, true} {
				for _, budget := range []int64{0, 24 << 10} {
					for _, counting := range []bool{false, true} {
						name := regime.name
						if budget > 0 {
							name += "-spilled"
						}
						if counting {
							name += "-counting"
						}
						cases = append(cases, probeCase{name: name, keys: keys, build: build, probe: probe,
							filtered: filtered, budget: budget, counting: counting})
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, counting := range []bool{false, true} {
		var residual []ColPred
		if !counting {
			// Compiled against a two-column build schema: evaluated against
			// the empty build side's zero columns it would index past the probe's.
			residual = []ColPred{{L: 1, R: 5, Op: relalg.CmpEQ}}
		}
		cases = append(cases, probeCase{name: "empty-build-no-columns", keys: 1, build: nil,
			probe: probeTestCols(rng, 1, BatchSize+5, 3, true), residual: residual, counting: counting})
	}

	for _, c := range cases {
		name := fmt.Sprintf("%s/keys=%d/sel=%v", c.name, c.keys, c.filtered)
		got, want := c.join(t), c.join(t)
		if err := got.Open(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.budget == 0 {
			checkBitmap(t, name, got.table, c.build, c.probe)
		}
		gotRows := batchRows(t, got.Next)
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
		if err := want.Open(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := &chainWalkProbe{j: want}
		wantRows := batchRows(t, ref.Next)
		if err := want.Close(); err != nil {
			t.Fatal(err)
		}
		if parts, _, _ := got.mem.SpillStats(); (parts > 0) != (c.budget > 0) {
			t.Fatalf("%s: %d spill partitions under a %d-byte budget", name, parts, c.budget)
		}
		if len(gotRows) != len(wantRows) {
			t.Fatalf("%s: %d batches, the chain walk emits %d", name, len(gotRows), len(wantRows))
		}
		rows := 0
		for b := range wantRows {
			if len(gotRows[b]) != len(wantRows[b]) {
				t.Fatalf("%s: batch %d has %d rows, the chain walk's %d", name, b, len(gotRows[b]), len(wantRows[b]))
			}
			for i := range wantRows[b] {
				if !slices.Equal(gotRows[b][i], wantRows[b][i]) {
					t.Fatalf("%s: batch %d row %d = %v, the chain walk emits %v", name, b, i, gotRows[b][i], wantRows[b][i])
				}
			}
			rows += len(wantRows[b])
		}
		switch {
		case c.build != nil && rows == 0:
			t.Fatalf("%s: no rows: the case tests nothing", name)
		case c.name == "hot" && ref.midChain == 0:
			t.Fatalf("%s: no flush stopped mid-chain", name)
		case c.residual != nil && c.build != nil && ref.dropped == 0:
			t.Fatalf("%s: the residual dropped no whole flush", name)
		}
	}
}

// checkBitmap requires tbl, built over build, to carry a key bitmap exactly
// when wantBitmap says so, and admit to keep a live probe row, with and
// without a selection, exactly when some build row's first key equals the
// row's: no false drop and no false keep.
func checkBitmap(t *testing.T, name string, tbl *joinTable, build, probe [][]int64) {
	t.Helper()
	if got, want := len(tbl.bits) > 0, wantBitmap(build); got != want {
		t.Fatalf("%s: key bitmap built = %v, want %v", name, got, want)
	}
	if len(tbl.bits) == 0 {
		return
	}
	has := map[int64]bool{}
	for _, v := range build[0] {
		has[v] = true
	}
	n := len(probe[0])
	var odd []int
	for i := 1; i < n; i += 2 {
		odd = append(odd, i)
	}
	for _, sel := range [][]int{nil, odd} {
		live := sel
		if sel == nil {
			live = seq(n)
		}
		var want []int
		for _, i := range live {
			if has[probe[0][i]] {
				want = append(want, i)
			}
		}
		if got := tbl.admit(probe[0], len(live), sel, nil); !slices.Equal(got, want) {
			t.Fatalf("%s: the bitmap admits %d of %d live probe rows, %d have a build row's first key",
				name, len(got), len(live), len(want))
		}
	}
}

// TestOneColumnKeyHashIsABijection pins what lets joinTable.walk skip the key
// compare for one-column keys: the hash of one column inverts to its value.
func TestOneColumnKeyHashIsABijection(t *testing.T) {
	inv := hashMul // Newton's iteration for the inverse of an odd number mod 2^64
	for range 6 {
		inv *= 2 - hashMul*inv
	}
	unhash := func(h uint64) int64 { return int64((h^h>>32)*inv ^ hashSeed) }
	rng := rand.New(rand.NewSource(3))
	vals := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	for range 1000 {
		vals = append(vals, int64(rng.Uint64()))
	}
	for _, v := range vals {
		h := hashLive(nil, [][]int64{{v}}, []int{0}, 1, nil)[0]
		if got := unhash(h); got != v {
			t.Fatalf("hash of %d inverts to %d", v, got)
		}
	}
}

// BenchmarkHashJoinProbe runs a whole join over a 1024-row build side and a
// 64-batch probe side whose keys hit the build side at the given rate, in
// random order; ns/row is per probe row and includes the build, which is
// 1/64 of the rows. The dense regimes' build keys are 0..1023 and their misses
// fall far above them; the sparse regime's build keys are a sample of a
// domain 32 times wider and its misses fall inside that domain, within the
// range of the table's key bitmap.
func BenchmarkHashJoinProbe(b *testing.B) {
	const buildN, probeN = BatchSize, 64 * BatchSize
	regimes := []struct {
		keys, hit int
		sparse    bool
	}{{1, 10, false}, {1, 90, false}, {2, 10, false}, {2, 90, false}, {1, 3, true}}
	for _, r := range regimes {
		keys, hit := r.keys, r.hit
		name := fmt.Sprintf("keys=%d/hit=%d", keys, hit)
		if r.sparse {
			name += "/sparse"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			build, probe := make([][]int64, keys+1), make([][]int64, keys+1)
			for c := range build {
				build[c], probe[c] = make([]int64, buildN), make([]int64, probeN)
			}
			domain := buildN
			if r.sparse {
				domain *= 32
			}
			inBuild := make(map[int64]bool, buildN)
			for i := 0; i < buildN; i++ {
				v := int64(i)
				if r.sparse {
					for v = int64(rng.Intn(domain)); inBuild[v]; v = int64(rng.Intn(domain)) {
					}
				}
				inBuild[v] = true
				for c := 0; c < keys; c++ {
					build[c][i] = v
				}
				build[keys][i] = int64(i)
			}
			for i := 0; i < probeN; i++ {
				v := int64(buildN + rng.Intn(1<<30))
				switch {
				case rng.Intn(100) < hit:
					v = build[0][rng.Intn(buildN)]
				case r.sparse:
					for v = int64(rng.Intn(domain)); inBuild[v]; v = int64(rng.Intn(domain)) {
					}
				}
				for c := 0; c < keys; c++ {
					probe[c][i] = v
				}
				probe[keys][i] = int64(i)
			}
			j := NewVecHashJoin(NewVecScan(build, buildN, ScanFilter{}), NewVecScan(probe, probeN, ScanFilter{}),
				seq(keys), seq(keys), nil, []int{keys}, []int{keys})
			run := func() {
				if err := j.Open(); err != nil {
					b.Fatal(err)
				}
				for {
					out, err := j.Next()
					if err != nil {
						b.Fatal(err)
					}
					if out == nil {
						break
					}
				}
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
			}
			run() // sizes the table, the pair buffers and the emitter
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probeN), "ns/row")
		})
	}
}

// TestJoinTableInsertMatchesBuild grows a join table chunk by chunk with
// joinTable.insert and requires, after every chunk, the table buildJoinTable
// makes over the same rows: the same bucket count, every bucket's chain —
// its rows in order and, counting, their multiplicities — and the same key
// bitmap over the same range. The key regimes cover what an insert meets:
// keys rising past the table's top (new orders: the bitmap grows at its top
// end), keys falling below its bottom (built again), sparse keys whose range
// starts to fit the bitmap rule as rows arrive, keys that leave it, a small
// domain of duplicates (counted onto their linked rows), and keys at both
// ends of int64; each with one- and two-column keys, enumerating and
// counting, across chunks of 1 to 915 rows that cross the half-load regrowth.
func TestJoinTableInsertMatchesBuild(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(11))
	regimes := map[string]func(i int) int64{
		"rising":     func(i int) int64 { return 3 * int64(i) },
		"falling":    func(i int) int64 { return 3 * int64(n-i) },
		"sparse":     func(int) int64 { return rng.Int63n(40 * n) },
		"duplicates": func(int) int64 { return rng.Int63n(50) },
		"leaving": func(i int) int64 {
			if i < n/2 {
				return 3 * int64(i)
			}
			return 1e12 + int64(i)
		},
		"extremes": func(i int) int64 {
			switch i {
			case 700:
				return math.MinInt64
			case 701:
				return math.MaxInt64
			}
			return rng.Int63n(4 * n)
		},
	}
	for name, key := range regimes {
		for _, keys := range []int{1, 2} {
			for _, counting := range []bool{false, true} {
				label := fmt.Sprintf("%s, %d key columns, counting %v", name, keys, counting)
				cols := make([][]int64, keys+1)
				for c := range cols {
					cols[c] = make([]int64, n)
				}
				for i := 0; i < n; i++ {
					cols[0][i] = key(i)
					if keys > 1 {
						cols[1][i] = rng.Int63n(2)
					}
					cols[keys][i] = int64(i)
				}
				var tbl *joinTable
				n0 := 0
				for _, chunk := range []int{1, 3, 17, 64, 300, 700, 915} {
					rows := colData{cols: (&colData{cols: cols, n: n}).window(nil, 0, n0+chunk), n: n0 + chunk}
					if tbl == nil {
						tbl = buildJoinTable(nil, rows, seq(keys), counting)
					} else {
						tbl = tbl.insert(rows, n0, counting)
					}
					sameJoinTable(t, fmt.Sprintf("%s, %d rows", label, rows.n), tbl, buildJoinTable(nil, rows, seq(keys), counting), counting)
					n0 = rows.n
				}
			}
		}
	}
}

// sameJoinTable requires got to be want: the same buckets, chains, counts
// and key bitmap.
func sameJoinTable(t *testing.T, label string, got, want *joinTable, counting bool) {
	t.Helper()
	if got.mask != want.mask || !slices.Equal(got.bits, want.bits) || len(want.bits) > 0 && got.lo != want.lo {
		t.Fatalf("%s: %d buckets and a %d-word bitmap from %d, a build has %d, %d and %d",
			label, got.mask+1, len(got.bits), got.lo, want.mask+1, len(want.bits), want.lo)
	}
	chain := func(tbl *joinTable, b int) (rows []int64) {
		for ci := tbl.head[b]; ci != 0; ci = tbl.next[ci-1] {
			rows = append(rows, int64(ci-1), int64(tbl.hashes[ci-1]))
			if counting {
				rows = append(rows, int64(tbl.mult[ci-1]))
			}
		}
		return rows
	}
	for b := range want.head {
		if g, w := chain(got, b), chain(want, b); !slices.Equal(g, w) {
			t.Fatalf("%s: bucket %d chains %v, a build's %v", label, b, g, w)
		}
	}
}
