package server

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relalg"
)

// CanonicalKey canonicalizes a query's structure into its plan-cache key.
// The key is what makes the cache a cache of *prepared statements* rather
// than of SQL strings: two statements that differ only in SQL spelling —
// alias names, whitespace, predicate order, join-predicate direction —
// canonicalize identically and therefore share one cache entry, i.e. one
// live incremental optimizer and one feedback history.
//
// Relation ORDER is structural, not cosmetic: column ordinals are positional
// (relalg.ColID.Rel indexes Query.Rels), so "FROM a, b" and "FROM b, a"
// denote different coordinate systems and get distinct entries. That is a
// deliberate conservatism — merging them would require remapping every
// ColID in every plan — and costs only a second entry, whose initial
// optimization clones the first's optimizer through such a remapping
// (shapeKey, shapeMaps).
func CanonicalKey(q *relalg.Query) string {
	var b strings.Builder
	b.WriteString("T:")
	for i, r := range q.Rels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(r.Table)
	}

	scans := make([]string, len(q.Scans))
	for i, p := range q.Scans {
		scans[i] = fmt.Sprintf("%d.%d%s%d", p.Col.Rel, p.Col.Off, p.Op, p.Val)
	}
	sort.Strings(scans)
	b.WriteString("|S:")
	b.WriteString(strings.Join(scans, ","))

	joins := make([]string, len(q.Joins))
	for i, p := range q.Joins {
		l, r := p.L, p.R
		// Equi-joins are symmetric: normalize direction.
		if r.Rel < l.Rel || (r.Rel == l.Rel && r.Off < l.Off) {
			l, r = r, l
		}
		joins[i] = fmt.Sprintf("%d.%d=%d.%d", l.Rel, l.Off, r.Rel, r.Off)
	}
	sort.Strings(joins)
	b.WriteString("|J:")
	b.WriteString(strings.Join(joins, ","))

	filters := make([]string, len(q.Filters))
	for i, f := range q.Filters {
		filters[i] = fmt.Sprintf("%d.%d%s%d.%d+%d@%g",
			f.L.Rel, f.L.Off, f.Op, f.R.Rel, f.R.Off, f.Off, f.Sel)
	}
	sort.Strings(filters)
	b.WriteString("|F:")
	b.WriteString(strings.Join(filters, ","))

	b.WriteString("|A:")
	if a := q.Agg; a != nil {
		for _, c := range a.GroupBy {
			fmt.Fprintf(&b, "g%d.%d,", c.Rel, c.Off)
		}
		for _, c := range a.Sums {
			fmt.Fprintf(&b, "s%d.%d,", c.Rel, c.Off)
		}
		for _, c := range a.CountDistinct {
			fmt.Fprintf(&b, "d%d.%d,", c.Rel, c.Off)
		}
		if a.CountAll {
			b.WriteString("c*")
		}
	}
	return b.String()
}

// keyHash renders a short digest of a cache key for protocol output and
// metrics display. FNV-64: 32-bit digests collide visibly once ad-hoc
// workloads push thousands of distinct keys through metrics output.
func keyHash(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%016x", h.Sum64())
}

// shapeKey names the join graph a plan-cache miss may clone a template of:
// the statement's distinct tables, its join edges and filters written over
// table names instead of relation ordinals. Two statements with one shape
// differ, to the optimizer, only in cost parameters and coordinates, which
// core.Optimizer.Clone rewrites (shapeMaps). A statement that repeats a
// table has no shape (""): its relations have no names to map by.
func shapeKey(q *relalg.Query) string {
	rels := make([]int, len(q.Rels))
	for i := range rels {
		rels[i] = i
	}
	slices.SortFunc(rels, func(a, b int) int { return strings.Compare(q.Rels[a].Table, q.Rels[b].Table) })
	var b strings.Builder
	for k, i := range rels {
		if k > 0 && q.Rels[rels[k-1]].Table == q.Rels[i].Table {
			return ""
		}
		b.WriteString(q.Rels[i].Table)
		b.WriteByte(',')
	}
	edges := make([]string, len(q.Joins))
	for j, jp := range q.Joins {
		edges[j] = edgeKey(q, jp)
	}
	slices.Sort(edges)
	b.WriteString("|J:")
	b.WriteString(strings.Join(edges, ","))
	filters := make([]string, len(q.Filters))
	for i, f := range q.Filters {
		filters[i] = fmt.Sprintf("%s%s%s%+d", colName(q, f.L), f.Op, colName(q, f.R), f.Off)
	}
	slices.Sort(filters)
	b.WriteString("|F:")
	b.WriteString(strings.Join(filters, ","))
	return b.String()
}

// edgeKey renders a join predicate over table names, its sides in order.
func edgeKey(q *relalg.Query, jp relalg.JoinPred) string {
	l, r := colName(q, jp.L), colName(q, jp.R)
	if r < l {
		l, r = r, l
	}
	return l + "=" + r
}

func colName(q *relalg.Query, c relalg.ColID) string {
	return q.Rels[c.Rel].Table + "." + strconv.Itoa(c.Off)
}

// shapeMaps maps the coordinates of from onto those of to, two statements
// with one shapeKey, as core.Optimizer.Clone takes them: relation i of from
// is relation rel[i] of to, and from's join predicate j is to's pred[j].
func shapeMaps(from, to *relalg.Query) (rel, pred []int) {
	ord := make(map[string]int, len(to.Rels))
	for i, r := range to.Rels {
		ord[r.Table] = i
	}
	rel = make([]int, len(from.Rels))
	for i, r := range from.Rels {
		rel[i] = ord[r.Table]
	}
	at := make(map[string][]int, len(to.Joins)) // an edge's predicates in to, taken in order
	for j, jp := range to.Joins {
		k := edgeKey(to, jp)
		at[k] = append(at[k], j)
	}
	pred = make([]int, len(from.Joins))
	for j, jp := range from.Joins {
		k := edgeKey(from, jp)
		pred[j], at[k] = at[k][0], at[k][1:]
	}
	return rel, pred
}
