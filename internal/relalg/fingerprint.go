package relalg

import (
	"fmt"
	"sort"
	"strings"
)

// This file derives canonical, query-independent fingerprints for
// subexpressions. A RelSet is positional — bit i indexes one query's Rels —
// so a RelSet means nothing outside the query that minted it. The
// fingerprint re-expresses the subexpression in terms the whole server can
// agree on: the multiset of (table, local predicates) descriptors of its
// member relations, plus the join and residual-filter predicates internal to
// the subset rendered over a canonical ordering of those members. Two
// subexpressions of two different queries that read the same tables under
// the same predicates fingerprint identically, which is what lets learned
// cardinalities outlive any single plan-cache entry (internal/fbstore).
//
// Soundness over completeness: equal fingerprints imply structurally
// isomorphic subexpressions (same tables, same predicates up to relabeling),
// so shared statistics are always statistics about the same quantity.
// The converse does not fully hold — when a subset contains two relations
// with identical descriptors (a self-join), ties are broken by the minting
// query's relation order, so a reordered self-join spelling may fingerprint
// differently and merely forgo sharing. That conservatism costs a warm-up,
// never a wrong estimate.

// Fingerprinter derives canonical fingerprints for the subexpressions of one
// query. It precomputes per-relation descriptors once and memoizes per-set
// results, since the serving layer fingerprints the same few sets on every
// execution. Not safe for concurrent use; callers serialize it with the
// calibration state it feeds.
type Fingerprinter struct {
	q     *Query
	desc  []string // canonical per-relation descriptor
	cache map[RelSet]string
}

// NewFingerprinter builds the per-relation descriptors for q.
func NewFingerprinter(q *Query) *Fingerprinter {
	f := &Fingerprinter{q: q, desc: make([]string, len(q.Rels)), cache: map[RelSet]string{}}
	for i, r := range q.Rels {
		preds := make([]string, 0, 2)
		for _, p := range q.ScanPredsOf(i) {
			preds = append(preds, fmt.Sprintf("c%d%s%d", p.Col.Off, p.Op, p.Val))
		}
		sort.Strings(preds)
		f.desc[i] = r.Table + "{" + strings.Join(preds, ",") + "}"
	}
	return f
}

// CanonicalMembers returns the member relations of s in the canonical order
// Fingerprint renders them: by per-relation descriptor, ties by the minting
// query's relation order. Because two fingerprint-equal subexpressions agree
// descriptor-by-descriptor along this order, it is also the column order a
// materialized result of s can be shared in across queries — provided the
// order is not ambiguous (see AmbiguousOrder).
func (f *Fingerprinter) CanonicalMembers(s RelSet) []int {
	members := s.Members()
	sort.SliceStable(members, func(i, j int) bool {
		return f.desc[members[i]] < f.desc[members[j]]
	})
	return members
}

// AmbiguousOrder reports whether two members of s share a descriptor (a
// self-join under identical local predicates). The canonical member order
// then falls back to the minting query's relation order, so equal
// fingerprints still mean isomorphic subexpressions but no longer pin WHICH
// member maps to which — statistics sharing stays sound (cardinalities are
// permutation-invariant), result sharing is not (columns are not). Result
// caching refuses ambiguous sets.
func (f *Fingerprinter) AmbiguousOrder(s RelSet) bool {
	members := f.CanonicalMembers(s)
	for i := 1; i < len(members); i++ {
		if f.desc[members[i-1]] == f.desc[members[i]] {
			return true
		}
	}
	return false
}

// Fingerprint renders the canonical fingerprint of subexpression s.
func (f *Fingerprinter) Fingerprint(s RelSet) string {
	if fp, ok := f.cache[s]; ok {
		return fp
	}
	members := f.CanonicalMembers(s)
	pos := map[int]int{}
	for p, rel := range members {
		pos[rel] = p
	}

	var b strings.Builder
	b.WriteString("T:")
	for p, rel := range members {
		if p > 0 {
			b.WriteByte(';')
		}
		b.WriteString(f.desc[rel])
	}

	joins := make([]string, 0, 2)
	for _, p := range f.q.Joins {
		if !s.Has(p.L.Rel) || !s.Has(p.R.Rel) {
			continue
		}
		l := fmt.Sprintf("%d.%d", pos[p.L.Rel], p.L.Off)
		r := fmt.Sprintf("%d.%d", pos[p.R.Rel], p.R.Off)
		if r < l { // equi-joins are symmetric: normalize direction
			l, r = r, l
		}
		joins = append(joins, l+"="+r)
	}
	sort.Strings(joins)
	b.WriteString("|J:")
	b.WriteString(strings.Join(joins, ","))

	filters := make([]string, 0, 1)
	for _, fp := range f.q.Filters {
		if !s.Has(fp.L.Rel) || !s.Has(fp.R.Rel) {
			continue
		}
		filters = append(filters, fmt.Sprintf("%d.%d%s%d.%d+%d@%g",
			pos[fp.L.Rel], fp.L.Off, fp.Op, pos[fp.R.Rel], fp.R.Off, fp.Off, fp.Sel))
	}
	sort.Strings(filters)
	b.WriteString("|F:")
	b.WriteString(strings.Join(filters, ","))

	fp := b.String()
	f.cache[s] = fp
	return fp
}
