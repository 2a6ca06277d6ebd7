package server

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/relalg"
	"repro/internal/stats"
)

// This fuzz target guards the canonical forms the serving stack finds its
// state by, all renderings of relalg.Fingerprinter: the plan-cache key, the
// subexpression fingerprints of the statistics plane, and the clone shape
// with its maps. The soundness contract is directional —
// mutations that preserve query structure (alias renames, predicate
// reordering, join-direction flips) must preserve both the cache key and
// every connected subexpression's fingerprint, while mutations that change
// structure (literals, operators, join columns, added predicates, filter
// selectivities) must change the cache key and the full expression's
// fingerprint. A violation of the first half splits one statement's learned
// history across entries; a violation of the second half pools statistics
// about different quantities — a silently wrong optimizer either way. A
// FROM permutation changes the key but not the shape, and the clone maps
// between the two spellings are the permutation itself.

// fuzzTables is the pool of distinct table names; relations draw distinct
// tables so canonical member ordering never hits the self-join tie-break
// (which is documented to be minting-order dependent).
var fuzzTables = [6]string{"fa", "fb", "fc", "fd", "fe", "ff"}

// randQuery derives a random connected 2..4-relation query from the RNG.
func randQuery(r *stats.Rand) *relalg.Query {
	n := 2 + int(r.Int64n(3))
	perm := [6]int{0, 1, 2, 3, 4, 5}
	for i := 5; i > 0; i-- { // Fisher-Yates over the table pool
		j := int(r.Int64n(int64(i + 1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	q := &relalg.Query{Name: "fuzz"}
	for i := 0; i < n; i++ {
		q.Rels = append(q.Rels, relalg.RelRef{
			Alias: fmt.Sprintf("r%d", i), Table: fuzzTables[perm[i]],
		})
	}
	// A random spanning construction keeps the join graph connected.
	for i := 1; i < n; i++ {
		q.Joins = append(q.Joins, relalg.JoinPred{
			L: relalg.ColID{Rel: int(r.Int64n(int64(i))), Off: int(r.Int64n(5))},
			R: relalg.ColID{Rel: i, Off: int(r.Int64n(5))},
		})
	}
	ops := [3]relalg.CmpOp{relalg.CmpEQ, relalg.CmpLT, relalg.CmpGT}
	for k := int(r.Int64n(4)); k > 0; k-- {
		q.Scans = append(q.Scans, relalg.ScanPred{
			Col: relalg.ColID{Rel: int(r.Int64n(int64(n))), Off: int(r.Int64n(5))},
			Op:  ops[r.Int64n(3)], Val: r.Int64n(100),
		})
	}
	for k := int(r.Int64n(3)); k > 0; k-- {
		a, b := int(r.Int64n(int64(n))), int(r.Int64n(int64(n)))
		if a == b {
			continue
		}
		q.Filters = append(q.Filters, relalg.FilterPred{
			L:  relalg.ColID{Rel: a, Off: int(r.Int64n(5))},
			R:  relalg.ColID{Rel: b, Off: int(r.Int64n(5))},
			Op: relalg.CmpLT, Off: r.Int64n(10), Sel: 0.5,
		})
	}
	return q
}

func copyQuery(q *relalg.Query) *relalg.Query {
	return &relalg.Query{
		Name:    q.Name,
		Rels:    append([]relalg.RelRef(nil), q.Rels...),
		Scans:   append([]relalg.ScanPred(nil), q.Scans...),
		Joins:   append([]relalg.JoinPred(nil), q.Joins...),
		Filters: append([]relalg.FilterPred(nil), q.Filters...),
		Agg:     q.Agg,
	}
}

// permuteFrom returns q with its FROM list permuted: relation i of q is
// relation perm[i] of the copy, and every column reference follows it.
// Predicates keep their order.
func permuteFrom(q *relalg.Query, perm []int) *relalg.Query {
	c := copyQuery(q)
	col := func(id relalg.ColID) relalg.ColID { return relalg.ColID{Rel: perm[id.Rel], Off: id.Off} }
	cols := func(ids []relalg.ColID) []relalg.ColID {
		out := make([]relalg.ColID, len(ids))
		for i, id := range ids {
			out[i] = col(id)
		}
		return out
	}
	for i, r := range q.Rels {
		c.Rels[perm[i]] = r
	}
	for i := range c.Scans {
		c.Scans[i].Col = col(c.Scans[i].Col)
	}
	for i := range c.Joins {
		c.Joins[i].L, c.Joins[i].R = col(c.Joins[i].L), col(c.Joins[i].R)
	}
	for i := range c.Filters {
		c.Filters[i].L, c.Filters[i].R = col(c.Filters[i].L), col(c.Filters[i].R)
	}
	if a := q.Agg; a != nil {
		c.Agg = &relalg.AggSpec{GroupBy: cols(a.GroupBy), Sums: cols(a.Sums),
			CountDistinct: cols(a.CountDistinct), CountAll: a.CountAll}
	}
	return c
}

// randPerm draws a permutation of n elements.
func randPerm(r *stats.Rand, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.Int64n(int64(i + 1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// preserveMutate applies only structure-preserving spelling changes:
// renamed aliases, shuffled predicate order, flipped join directions.
func preserveMutate(q *relalg.Query, r *stats.Rand) *relalg.Query {
	for i := range q.Rels {
		q.Rels[i].Alias = fmt.Sprintf("zz%d", i)
	}
	shuffle := func(n int, swap func(i, j int)) {
		for i := n - 1; i > 0; i-- {
			swap(i, int(r.Int64n(int64(i+1))))
		}
	}
	shuffle(len(q.Scans), func(i, j int) { q.Scans[i], q.Scans[j] = q.Scans[j], q.Scans[i] })
	shuffle(len(q.Joins), func(i, j int) { q.Joins[i], q.Joins[j] = q.Joins[j], q.Joins[i] })
	shuffle(len(q.Filters), func(i, j int) { q.Filters[i], q.Filters[j] = q.Filters[j], q.Filters[i] })
	for i := range q.Joins {
		if r.Int64n(2) == 0 {
			q.Joins[i].L, q.Joins[i].R = q.Joins[i].R, q.Joins[i].L
		}
	}
	return q
}

// structMutate applies one structure-CHANGING mutation, selected by sel and
// falling through to an always-applicable one when the preferred target is
// absent. It returns a description for failure messages.
func structMutate(q *relalg.Query, r *stats.Rand, sel byte) (*relalg.Query, string) {
	switch sel % 5 {
	case 0:
		if len(q.Scans) > 0 {
			q.Scans[0].Val += 1000003
			return q, "scan literal changed"
		}
	case 1:
		if len(q.Scans) > 0 {
			q.Scans[0].Op = relalg.CmpNE
			return q, "scan operator changed"
		}
	case 2:
		q.Joins[0].R.Off += 101
		return q, "join column changed"
	case 3:
		if len(q.Filters) > 0 {
			q.Filters[0].Sel = 0.37
			return q, "filter selectivity changed"
		}
	case 4:
		q.Joins = append(q.Joins, relalg.JoinPred{
			L: relalg.ColID{Rel: 0, Off: 97},
			R: relalg.ColID{Rel: len(q.Rels) - 1, Off: 98},
		})
		return q, "join predicate added"
	}
	// Preferred target absent: add a scan predicate, always applicable.
	q.Scans = append(q.Scans, relalg.ScanPred{
		Col: relalg.ColID{Rel: int(r.Int64n(int64(len(q.Rels)))), Off: 99},
		Op:  relalg.CmpEQ, Val: 424243,
	})
	return q, "scan predicate added"
}

func FuzzFingerprintStability(f *testing.F) {
	for s := uint64(1); s <= 12; s++ {
		f.Add(s, byte(s))
	}
	f.Fuzz(func(t *testing.T, seed uint64, sel byte) {
		r := stats.NewRand(seed)
		q := randQuery(r)
		key := CanonicalKey(q)
		fp := relalg.NewFingerprinter(q)
		sets := warmSets(q)
		fps := make(map[relalg.RelSet]string, len(sets))
		for _, set := range sets {
			fps[set] = fp.Fingerprint(set)
		}

		members := make(map[relalg.RelSet][]int, len(sets))
		for _, set := range sets {
			if fp.AmbiguousOrder(set) {
				// Tables are drawn distinct, so descriptors never collide.
				t.Fatalf("descriptor-distinct set %v reported ambiguous", set)
			}
			members[set] = fp.CanonicalMembers(set)
		}

		same := preserveMutate(copyQuery(q), r)
		if got := CanonicalKey(same); got != key {
			t.Fatalf("spelling mutation changed the cache key:\n%s\n%s", key, got)
		}
		fpSame := relalg.NewFingerprinter(same)
		for _, set := range sets {
			if got := fpSame.Fingerprint(set); got != fps[set] {
				t.Fatalf("spelling mutation changed fingerprint of %v:\n%s\n%s", set, fps[set], got)
			}
			// The canonical member order — the result cache's column-order
			// contract — must survive spelling mutations too (relation
			// indices are untouched by preserveMutate, so the orders must
			// be literally equal).
			got := fpSame.CanonicalMembers(set)
			want := members[set]
			if len(got) != len(want) {
				t.Fatalf("spelling mutation changed canonical arity of %v: %v vs %v", set, want, got)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("spelling mutation changed canonical member order of %v: %v vs %v", set, want, got)
				}
			}
			if fpSame.AmbiguousOrder(set) {
				t.Fatalf("spelling mutation made set %v ambiguous", set)
			}
		}

		changed, what := structMutate(copyQuery(q), r, sel)
		if got := CanonicalKey(changed); got == key {
			t.Fatalf("%s but the cache key is unchanged:\n%s", what, key)
		}
		all := q.AllRels()
		if got := relalg.NewFingerprinter(changed).Fingerprint(all); got == fps[all] {
			t.Fatalf("%s but the full-expression fingerprint is unchanged:\n%s", what, got)
		}

		// A FROM permutation keeps the join graph in new coordinates:
		// another key, the same shape, and clone maps that are exactly the
		// permutation (permuteFrom keeps the predicates in order).
		perm := randPerm(r, len(q.Rels))
		if slices.IsSorted(perm) {
			perm[0], perm[1] = perm[1], perm[0]
		}
		fpPerm := relalg.NewFingerprinter(permuteFrom(q, perm))
		if got := fpPerm.Key(); got == key {
			t.Fatalf("FROM permutation %v kept the cache key:\n%s", perm, key)
		}
		if got, want := fpPerm.Shape(), fp.Shape(); got != want || got == "" {
			t.Fatalf("FROM permutation %v changed the shape:\n%s\n%s", perm, want, got)
		}
		rel, pred := relalg.ShapeMaps(fp, fpPerm)
		for j := range pred {
			if pred[j] != j {
				t.Fatalf("FROM permutation %v: predicate map %v, want the identity", perm, pred)
			}
		}
		if !slices.Equal(rel, perm) {
			t.Fatalf("FROM permutation %v: relation map %v", perm, rel)
		}
	})
}
