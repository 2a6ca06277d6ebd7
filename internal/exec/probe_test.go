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

// TestHashJoinProbeMatchesChainWalk runs the hash join's batch walk and the
// row-at-a-time chain walk over the same opened operators and requires the
// same batches, row for row and in order: a hot key whose chain spans more
// than two pair buffers (resumes mid-chain), probe batches with and without a
// selection, one- to three-column keys, a residual that drops every pair of a
// flush, the spilled path under a tight tracker, and an empty build side with
// no columns, enumerating and counting.
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
// 1/64 of the rows.
func BenchmarkHashJoinProbe(b *testing.B) {
	const buildN, probeN = BatchSize, 64 * BatchSize
	for _, keys := range []int{1, 2} {
		for _, hit := range []int{10, 90} {
			b.Run(fmt.Sprintf("keys=%d/hit=%d", keys, hit), func(b *testing.B) {
				rng := rand.New(rand.NewSource(11))
				build, probe := make([][]int64, keys+1), make([][]int64, keys+1)
				for c := range build {
					build[c], probe[c] = make([]int64, buildN), make([]int64, probeN)
				}
				for i := 0; i < buildN; i++ {
					for c := 0; c < keys; c++ {
						build[c][i] = int64(i)
					}
					build[keys][i] = int64(i)
				}
				for i := 0; i < probeN; i++ {
					v := int64(buildN + rng.Intn(1<<30))
					if rng.Intn(100) < hit {
						v = int64(rng.Intn(buildN))
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
}
