package relalg

import (
	"bytes"
	"slices"
	"strconv"
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
//
// The statement-level forms the serving layer finds its state by are
// renderings of the same fingerprint, so one rule decides when two
// statements are the same: Key, the plan-cache key, adds the relation
// ordinals and the aggregation; Shape, the join graph a cache miss clones a
// template of, renders over table names alone.

// Fingerprinter derives canonical fingerprints for the subexpressions of one
// query, and its statement-level Key and Shape. It precomputes per-relation
// descriptors once and memoizes per-set results, since the serving layer
// fingerprints the same few sets on every execution. Not safe for concurrent
// use; callers serialize it with the calibration state it feeds.
type Fingerprinter struct {
	q     *Query
	desc  []string // canonical per-relation descriptor
	cache map[RelSet]string

	// Rendering buffers, reused by every call: the output, and the terms
	// of a sorted list, each term's [start, end) in spans.
	out, terms []byte
	spans      [][2]int
}

// endTerm closes the term appended to f.terms since the previous one.
func (f *Fingerprinter) endTerm() {
	start := 0
	if n := len(f.spans); n > 0 {
		start = f.spans[n-1][1]
	}
	f.spans = append(f.spans, [2]int{start, len(f.terms)})
}

// appendTerms appends the closed terms to out in byte order — the order
// sort.Strings gives the same strings — separated by commas, and clears them.
func (f *Fingerprinter) appendTerms(out []byte) []byte {
	slices.SortFunc(f.spans, func(a, b [2]int) int { return bytes.Compare(f.terms[a[0]:a[1]], f.terms[b[0]:b[1]]) })
	for i, sp := range f.spans {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, f.terms[sp[0]:sp[1]]...)
	}
	f.terms, f.spans = f.terms[:0], f.spans[:0]
	return out
}

// appendCol appends a column reference "pos.off".
func appendCol(b []byte, pos, off int) []byte {
	return strconv.AppendInt(append(strconv.AppendInt(b, int64(pos), 10), '.'), int64(off), 10)
}

// NewFingerprinter builds the per-relation descriptors for q: the table
// name and the sorted local predicates, "table{c<off><op><val>,...}".
func NewFingerprinter(q *Query) *Fingerprinter {
	f := &Fingerprinter{q: q, desc: make([]string, len(q.Rels)), cache: map[RelSet]string{}}
	for i, r := range q.Rels {
		for _, p := range q.ScanPredsOf(i) {
			f.terms = append(strconv.AppendInt(append(f.terms, 'c'), int64(p.Col.Off), 10), p.Op.String()...)
			f.terms = strconv.AppendInt(f.terms, p.Val, 10)
			f.endTerm()
		}
		f.out = append(f.appendTerms(append(append(f.out[:0], r.Table...), '{')), '}')
		f.desc[i] = string(f.out)
	}
	return f
}

// order returns the members of s sorted by their descriptors in desc, ties
// by the minting query's relation order, and each member's position in that
// order.
func order(desc []string, s RelSet) (members []int, pos [64]int) {
	members = s.Members()
	slices.SortStableFunc(members, func(a, b int) int { return strings.Compare(desc[a], desc[b]) })
	for p, rel := range members {
		pos[rel] = p
	}
	return members, pos
}

// CanonicalMembers returns the member relations of s in the canonical order
// Fingerprint renders them: by per-relation descriptor, ties by the minting
// query's relation order. Because two fingerprint-equal subexpressions agree
// descriptor-by-descriptor along this order, it is also the column order a
// materialized result of s can be shared in across queries — provided the
// order is not ambiguous (see AmbiguousOrder).
func (f *Fingerprinter) CanonicalMembers(s RelSet) []int {
	members, _ := order(f.desc, s)
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

// Fingerprint renders the canonical fingerprint of subexpression s:
// "T:" and the members' descriptors in canonical order, separated by ';';
// "|J:" and the sorted join terms "p.off=p.off" over canonical positions,
// each written with its lesser side first; "|F:" and the sorted residual
// filter terms "p.off<op>p.off+<off>@<sel>".
func (f *Fingerprinter) Fingerprint(s RelSet) string {
	if fp, ok := f.cache[s]; ok {
		return fp
	}
	fp := string(f.render(f.desc, s, true))
	f.cache[s] = fp
	return fp
}

// render renders s as Fingerprint describes over the per-relation
// descriptors desc, each filter term with its "@<sel>" only when sel is set.
// The result aliases f.out.
func (f *Fingerprinter) render(desc []string, s RelSet, sel bool) []byte {
	members, pos := order(desc, s)
	b := append(f.out[:0], "T:"...)
	for p, rel := range members {
		if p > 0 {
			b = append(b, ';')
		}
		b = append(b, desc[rel]...)
	}

	for _, p := range f.q.Joins {
		if s.Has(p.L.Rel) && s.Has(p.R.Rel) {
			f.terms = appendJoin(f.terms, &pos, p)
			f.endTerm()
		}
	}
	b = f.appendTerms(append(b, "|J:"...))

	for _, fp := range f.q.Filters {
		if !s.Has(fp.L.Rel) || !s.Has(fp.R.Rel) {
			continue
		}
		f.terms = append(appendCol(f.terms, pos[fp.L.Rel], fp.L.Off), fp.Op.String()...)
		f.terms = append(appendCol(f.terms, pos[fp.R.Rel], fp.R.Off), '+')
		f.terms = strconv.AppendInt(f.terms, fp.Off, 10)
		if sel {
			f.terms = strconv.AppendFloat(append(f.terms, '@'), fp.Sel, 'g', -1, 64)
		}
		f.endTerm()
	}
	f.out = f.appendTerms(append(b, "|F:"...))
	return f.out
}

// appendJoin appends the join term "p.off=p.off" over the canonical
// positions pos, its lesser side first: equi-joins are symmetric.
func appendJoin(b []byte, pos *[64]int, p JoinPred) []byte {
	var lb, rb [40]byte
	l := appendCol(lb[:0], pos[p.L.Rel], p.L.Off)
	r := appendCol(rb[:0], pos[p.R.Rel], p.R.Off)
	if string(r) < string(l) {
		l, r = r, l
	}
	return append(append(append(b, l...), '='), r...)
}

// Key renders the statement's plan-cache key: the fingerprint of all its
// relations, "|R:" and the relation ordinal at each canonical position, and
// "|A:" and the aggregation over ordinals ("g", "s" or "d" before each
// group-by, summed or distinct-counted column, "c*" for COUNT(*)). The
// ordinals keep FROM order a coordinate system, as column references are
// positional: "FROM a, b" and "FROM b, a" share only a Shape. Two statements
// share a key exactly when they differ in spelling alone: aliases,
// predicate order, join direction.
func (f *Fingerprinter) Key() string {
	all := f.q.AllRels()
	fp := f.Fingerprint(all)
	b := append(append(f.out[:0], fp...), "|R:"...)
	for p, rel := range f.CanonicalMembers(all) {
		if p > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(rel), 10)
	}
	b = append(b, "|A:"...)
	if a := f.q.Agg; a != nil {
		b = appendCols(appendCols(appendCols(b, 'g', a.GroupBy), 's', a.Sums), 'd', a.CountDistinct)
		if a.CountAll {
			b = append(b, "c*"...)
		}
	}
	f.out = b
	return string(b)
}

// appendCols appends "<tag>rel.off," for each column.
func appendCols(b []byte, tag byte, cols []ColID) []byte {
	for _, c := range cols {
		b = append(appendCol(append(b, tag), c.Rel, c.Off), ',')
	}
	return b
}

// Shape renders the join graph a plan-cache miss may clone a template of:
// the fingerprint of all relations over descriptors cut to table names, with
// no scan predicates and no filter selectivities. Statements of one shape
// differ, to the optimizer, only in cost parameters and coordinates, which
// core.Optimizer.Clone rewrites (ShapeMaps). A statement that repeats a
// table has no shape (""): its relations have no names to map by.
func (f *Fingerprinter) Shape() string {
	tables := f.tables()
	if distinct := slices.Compact(slices.Sorted(slices.Values(tables))); len(distinct) < len(tables) {
		return ""
	}
	return string(f.render(tables, f.q.AllRels(), false))
}

// tables returns each relation's table name, the descriptors of a Shape.
func (f *Fingerprinter) tables() []string {
	t := make([]string, len(f.q.Rels))
	for i, r := range f.q.Rels {
		t[i] = r.Table
	}
	return t
}

// ShapeMaps maps the coordinates of from onto those of to, two statements
// of one Shape, as core.Optimizer.Clone takes them: relation i of from is
// relation rel[i] of to, the one at the same canonical position, and from's
// join predicate j is to's pred[j], equal edge terms paired in order of
// appearance. It reads only the two queries, so unlike the renderers it is
// safe to call concurrently.
func ShapeMaps(from, to *Fingerprinter) (rel, pred []int) {
	fromAt, fromPos := order(from.tables(), from.q.AllRels())
	toAt, toPos := order(to.tables(), to.q.AllRels())
	rel = make([]int, len(fromAt))
	for p, i := range fromAt {
		rel[i] = toAt[p]
	}
	at := make(map[string][]int, len(to.q.Joins)) // an edge's predicates in to, taken in order
	for j, jp := range to.q.Joins {
		k := string(appendJoin(nil, &toPos, jp))
		at[k] = append(at[k], j)
	}
	pred = make([]int, len(from.q.Joins))
	for j, jp := range from.q.Joins {
		k := string(appendJoin(nil, &fromPos, jp))
		pred[j], at[k] = at[k][0], at[k][1:]
	}
	return rel, pred
}
