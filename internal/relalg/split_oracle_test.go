package relalg_test

import (
	"fmt"
	"testing"

	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// The reference enumerator below is the shared Split, Connected and
// CrossPreds as they stood before the join graph became neighbour masks:
// every proper submask of the group, two allocating flood fills per
// submask, and a fresh slice of crossing predicates per surviving split.
// Only the package qualifiers and the adjacency lists (cached here per
// query, where the old Query cached them in a field) differ from that code.

var refAdj = map[*relalg.Query][][]int{}

func refAdjacency(q *relalg.Query) [][]int {
	if adj, ok := refAdj[q]; ok {
		return adj
	}
	adj := make([][]int, len(q.Rels))
	for pi, p := range q.Joins {
		adj[p.L.Rel] = append(adj[p.L.Rel], pi)
		adj[p.R.Rel] = append(adj[p.R.Rel], pi)
	}
	refAdj[q] = adj
	return adj
}

func refConnected(q *relalg.Query, s relalg.RelSet) bool {
	if s.Empty() {
		return false
	}
	if s.IsSingle() {
		return true
	}
	adj := refAdjacency(q)
	start := s.Members()[0]
	visited := relalg.Single(start)
	frontier := []int{start}
	for len(frontier) > 0 {
		r := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, pi := range adj[r] {
			p := q.Joins[pi]
			for _, other := range [2]int{p.L.Rel, p.R.Rel} {
				if s.Has(other) && !visited.Has(other) {
					visited = visited.Add(other)
					frontier = append(frontier, other)
				}
			}
		}
	}
	return visited == s
}

func refCrossPreds(q *relalg.Query, l, r relalg.RelSet) []int {
	var out []int
	for pi, p := range q.Joins {
		if p.Crosses(l, r) {
			out = append(out, pi)
		}
	}
	return out
}

func refSplit(q *relalg.Query, schema relalg.SchemaInfo, opts relalg.SpaceOptions, s relalg.RelSet, p relalg.Prop) []relalg.Alt {
	if s.IsSingle() {
		return refSplitLeaf(q, schema, opts, s.SingleMember(), p)
	}
	var alts []relalg.Alt
	s.ProperSubsets(func(l relalg.RelSet) {
		r := s.Without(l)
		if opts.LeftDeepOnly && !r.IsSingle() {
			return
		}
		if !refConnected(q, l) || !refConnected(q, r) {
			return
		}
		cross := refCrossPreds(q, l, r)
		if len(cross) == 0 {
			return // no Cartesian products
		}
		primary := cross[0]
		if opts.HashJoin && p.Kind == relalg.PropAny {
			alts = append(alts, relalg.Alt{
				Log: relalg.LogJoin, Phy: relalg.PhyHashJoin, Pred: primary,
				LExpr: l, LProp: relalg.AnyProp, RExpr: r, RProp: relalg.AnyProp,
			})
		}
		if opts.MergeJoin {
			for _, pi := range cross {
				jp := q.Joins[pi]
				lcol, rcol := jp.L, jp.R
				if !l.Has(lcol.Rel) {
					lcol, rcol = rcol, lcol
				}
				if p.Kind == relalg.PropAny || (p.Kind == relalg.PropSorted && (p.Col == lcol || p.Col == rcol)) {
					alts = append(alts, relalg.Alt{
						Log: relalg.LogJoin, Phy: relalg.PhyMergeJoin, Pred: pi,
						LExpr: l, LProp: relalg.Sorted(lcol), RExpr: r, RProp: relalg.Sorted(rcol),
					})
				}
			}
		}
		if opts.IndexNL && p.Kind == relalg.PropAny && l.IsSingle() {
			inner := l.SingleMember()
			idxCols := schema.IndexCols(inner)
			for _, pi := range cross {
				jp := q.Joins[pi]
				innerCol := jp.L
				if innerCol.Rel != inner {
					innerCol = jp.R
				}
				if innerCol.Rel != inner || !refHasInt(idxCols, innerCol.Off) {
					continue
				}
				alts = append(alts, relalg.Alt{
					Log: relalg.LogJoin, Phy: relalg.PhyIndexNLJoin, Pred: pi,
					LExpr: l, LProp: relalg.Indexed(innerCol), RExpr: r, RProp: relalg.AnyProp,
				})
			}
		}
	})
	if opts.SortEnforcer && p.Kind == relalg.PropSorted {
		alts = append(alts, relalg.Alt{
			Log: relalg.LogEnforce, Phy: relalg.PhySort,
			LExpr: s, LProp: relalg.AnyProp,
		})
	}
	return alts
}

func refSplitLeaf(q *relalg.Query, schema relalg.SchemaInfo, opts relalg.SpaceOptions, rel int, p relalg.Prop) []relalg.Alt {
	idxCols := schema.IndexCols(rel)
	switch p.Kind {
	case relalg.PropAny:
		alts := []relalg.Alt{{Log: relalg.LogScan, Phy: relalg.PhyTableScan, Rel: rel}}
		for _, pr := range q.ScanPredsOf(rel) {
			if refHasInt(idxCols, pr.Col.Off) {
				alts = append(alts, relalg.Alt{Log: relalg.LogScan, Phy: relalg.PhyIndexScan, Rel: rel, IdxCol: pr.Col})
				break
			}
		}
		return alts
	case relalg.PropSorted:
		if p.Col.Rel != rel {
			return nil
		}
		var alts []relalg.Alt
		if schema.SortedCol(rel) == p.Col.Off {
			alts = append(alts, relalg.Alt{Log: relalg.LogScan, Phy: relalg.PhyTableScan, Rel: rel})
		}
		if refHasInt(idxCols, p.Col.Off) {
			alts = append(alts, relalg.Alt{Log: relalg.LogScan, Phy: relalg.PhyIndexScan, Rel: rel, IdxCol: p.Col})
		}
		if opts.SortEnforcer {
			alts = append(alts, relalg.Alt{Log: relalg.LogEnforce, Phy: relalg.PhySort,
				LExpr: relalg.Single(rel), LProp: relalg.AnyProp})
		}
		return alts
	case relalg.PropIndexed:
		if p.Col.Rel != rel || !refHasInt(idxCols, p.Col.Off) {
			return nil
		}
		return []relalg.Alt{{Log: relalg.LogScan, Phy: relalg.PhyIndexScan, Rel: rel, IdxCol: p.Col}}
	}
	return nil
}

func refHasInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// seededSchema is a seeded physical design: per relation a set of indexed
// columns and a clustering column, so the oracle sees index scans and
// sorted table scans.
type seededSchema struct {
	idx    [][]int
	sorted []int
}

func (z *seededSchema) IndexCols(rel int) []int { return z.idx[rel] }
func (z *seededSchema) SortedCol(rel int) int   { return z.sorted[rel] }

func randomSchema(r *stats.Rand, n int) *seededSchema {
	z := &seededSchema{idx: make([][]int, n), sorted: make([]int, n)}
	for rel := 0; rel < n; rel++ {
		z.sorted[rel] = r.Intn(testkit.ColsPerTable+1) - 1
		for c := 0; c < testkit.ColsPerTable; c++ {
			if r.Intn(2) == 0 {
				z.idx[rel] = append(z.idx[rel], c)
			}
		}
	}
	return z
}

// oracleQueries returns seeded testkit.RandomQuery shapes of 2–8 relations,
// each also with a duplicate edge (a second predicate between the pair of
// the first) and, from three relations on, a cycle-closing edge between the
// first and last relation; and a 7-relation clique, whose groups have more
// connected halves and crossing predicates than Split keeps on its stack.
func oracleQueries(t *testing.T) []*relalg.Query {
	t.Helper()
	clique := &relalg.Query{Name: "clique7"}
	for i := 0; i < 7; i++ {
		clique.Rels = append(clique.Rels, relalg.RelRef{Alias: fmt.Sprintf("K%d", i), Table: "T0"})
		for j := 0; j < i; j++ {
			clique.Joins = append(clique.Joins, relalg.JoinPred{
				L: relalg.ColID{Rel: j, Off: i % testkit.ColsPerTable}, R: relalg.ColID{Rel: i, Off: j % testkit.ColsPerTable},
			})
		}
	}
	out := []*relalg.Query{clique}
	for n := 2; n <= 8; n++ {
		for seed := uint64(1); seed <= 4; seed++ {
			r := stats.NewRand(seed*100 + uint64(n))
			q := testkit.RandomQuery(r, testkit.SyntheticCatalog(r, 4), n)
			joins := append([]relalg.JoinPred(nil), q.Joins...)
			first := joins[0]
			joins = append(joins, relalg.JoinPred{
				L: relalg.ColID{Rel: first.R.Rel, Off: (first.R.Off + 1) % testkit.ColsPerTable},
				R: relalg.ColID{Rel: first.L.Rel, Off: first.L.Off},
			})
			if n >= 3 {
				joins = append(joins, relalg.JoinPred{
					L: relalg.ColID{Rel: 0, Off: 1}, R: relalg.ColID{Rel: n - 1, Off: 2},
				})
			}
			dense := &relalg.Query{Name: q.Name + "+dup+cycle", Rels: q.Rels, Scans: q.Scans, Joins: joins}
			if err := dense.Validate(); err != nil {
				t.Fatal(err)
			}
			out = append(out, q, dense)
		}
	}
	return out
}

// oracleSpaces are the default space, left-deep only, and each operator
// switched off in turn.
func oracleSpaces() map[string]relalg.SpaceOptions {
	spaces := map[string]relalg.SpaceOptions{"default": relalg.DefaultSpace()}
	ld := relalg.DefaultSpace()
	ld.LeftDeepOnly = true
	spaces["left-deep"] = ld
	for name, off := range map[string]func(*relalg.SpaceOptions){
		"no-hash":  func(o *relalg.SpaceOptions) { o.HashJoin = false },
		"no-merge": func(o *relalg.SpaceOptions) { o.MergeJoin = false },
		"no-inl":   func(o *relalg.SpaceOptions) { o.IndexNL = false },
		"no-sort":  func(o *relalg.SpaceOptions) { o.SortEnforcer = false },
	} {
		o := relalg.DefaultSpace()
		off(&o)
		spaces[name] = o
	}
	return spaces
}

// oracleProps are Any, plus Sorted and Indexed on every join column.
func oracleProps(q *relalg.Query) []relalg.Prop {
	props := []relalg.Prop{relalg.AnyProp}
	for _, jp := range q.Joins {
		for _, c := range [2]relalg.ColID{jp.L, jp.R} {
			props = append(props, relalg.Sorted(c), relalg.Indexed(c))
		}
	}
	return props
}

// TestSplitMatchesReference compares the shared enumerator slice for slice
// with the reference above: every connected subset of every oracle query,
// under every oracle property and space, must yield the same alternatives in
// the same order, appended after whatever the caller's buffer already holds.
// Connected must agree with the reference flood fill on every subset.
func TestSplitMatchesReference(t *testing.T) {
	sentinel := relalg.Alt{Log: relalg.LogScan, Phy: relalg.PhyTableScan, Rel: 63}
	buf := []relalg.Alt{sentinel}
	calls, alts := 0, 0
	for i, q := range oracleQueries(t) {
		schema := randomSchema(stats.NewRand(uint64(i)+1), len(q.Rels))
		props := oracleProps(q)
		for v := relalg.RelSet(0); v <= q.AllRels(); v++ {
			if got, want := q.Connected(v), refConnected(q, v); got != want {
				t.Fatalf("%s: Connected(%v) = %v, reference %v", q.Name, v, got, want)
			}
			if !q.Connected(v) {
				continue
			}
			for name, opts := range oracleSpaces() {
				for _, p := range props {
					want := refSplit(q, schema, opts, v, p)
					buf = relalg.Split(q, schema, opts, v, p, buf[:1])
					if err := sameAlts(buf, sentinel, want); err != nil {
						t.Fatalf("%s %s group (%v, %v): %v", q.Name, name, v, p, err)
					}
					calls++
					alts += len(want)
				}
			}
		}
	}
	t.Logf("%d groups, %d alternatives agree", calls, alts)
}

func sameAlts(got []relalg.Alt, sentinel relalg.Alt, want []relalg.Alt) error {
	if len(got) == 0 || got[0] != sentinel {
		return fmt.Errorf("the caller's buffer prefix was overwritten")
	}
	got = got[1:]
	if len(got) != len(want) {
		return fmt.Errorf("%d alternatives, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("alternative %d is %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestSplitIntoWarmBufferAllocatesNothing: enumerating into a buffer that
// already has the capacity allocates nothing, for the root, a Sorted group
// with its enforcer, and a leaf.
func TestSplitIntoWarmBufferAllocatesNothing(t *testing.T) {
	r := stats.NewRand(5)
	q := testkit.RandomQuery(r, testkit.SyntheticCatalog(r, 4), 8)
	schema := randomSchema(r, len(q.Rels))
	opts := relalg.DefaultSpace()
	sorted := relalg.Sorted(q.Joins[0].L)
	var buf []relalg.Alt
	run := func() {
		buf = relalg.Split(q, schema, opts, q.AllRels(), relalg.AnyProp, buf[:0])
		buf = relalg.Split(q, schema, opts, q.AllRels(), sorted, buf[:0])
		buf = relalg.Split(q, schema, opts, relalg.Single(q.Joins[0].L.Rel), relalg.AnyProp, buf[:0])
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("Split into a warm buffer: %v allocations per run, want 0", allocs)
	}
}
