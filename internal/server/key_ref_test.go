package server

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// The plan-cache key, the clone shape and its maps as they stood before
// they became renderings of relalg.Fingerprinter, each with its own fmt
// renderer. Only the function names differ from that code. The tests below
// hold the Fingerprinter's forms to them: the same statements must share a
// key, and a shape, with the same maps.

// refCanonicalKey is CanonicalKey as its own renderer.
func refCanonicalKey(q *relalg.Query) string {
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

// refShapeKey is the clone shape as its own renderer: distinct tables,
// edges and filters over table names, "" when a table repeats.
func refShapeKey(q *relalg.Query) string {
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
		edges[j] = refEdgeKey(q, jp)
	}
	slices.Sort(edges)
	b.WriteString("|J:")
	b.WriteString(strings.Join(edges, ","))
	filters := make([]string, len(q.Filters))
	for i, f := range q.Filters {
		filters[i] = fmt.Sprintf("%s%s%s%+d", refColName(q, f.L), f.Op, refColName(q, f.R), f.Off)
	}
	slices.Sort(filters)
	b.WriteString("|F:")
	b.WriteString(strings.Join(filters, ","))
	return b.String()
}

// refEdgeKey renders a join predicate over table names, its sides in order.
func refEdgeKey(q *relalg.Query, jp relalg.JoinPred) string {
	l, r := refColName(q, jp.L), refColName(q, jp.R)
	if r < l {
		l, r = r, l
	}
	return l + "=" + r
}

func refColName(q *relalg.Query, c relalg.ColID) string {
	return q.Rels[c.Rel].Table + "." + strconv.Itoa(c.Off)
}

// refShapeMaps is the clone maps of from onto to, two statements of one
// refShapeKey, paired by table name and by edge in order of appearance.
func refShapeMaps(from, to *relalg.Query) (rel, pred []int) {
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
		k := refEdgeKey(to, jp)
		at[k] = append(at[k], j)
	}
	pred = make([]int, len(from.Joins))
	for j, jp := range from.Joins {
		k := refEdgeKey(from, jp)
		pred[j], at[k] = at[k][0], at[k][1:]
	}
	return rel, pred
}

// withFilters returns a copy of q with a residual filter over every join
// predicate's columns, each of selectivity sel: two selectivities give two
// statements of one shape and two keys.
func withFilters(q *relalg.Query, sel float64) *relalg.Query {
	c := copyQuery(q)
	for i, j := range q.Joins {
		c.Filters = append(c.Filters, relalg.FilterPred{
			L: j.R, R: j.L, Op: relalg.CmpOp(i % 6), Off: int64(i*37 - 50), Sel: sel,
		})
	}
	return c
}

// withScan returns a copy of q with one more local predicate: a statement
// of q's shape and another key.
func withScan(q *relalg.Query) *relalg.Query {
	c := copyQuery(q)
	c.Scans = append(c.Scans, relalg.ScanPred{Col: relalg.ColID{Rel: len(q.Rels) - 1, Off: 1}, Op: relalg.CmpGE, Val: -12})
	return c
}

// withDupJoin returns a copy of q whose first join predicate appears again,
// flipped, at the end: two equal edges, which the clone maps pair in order
// of appearance.
func withDupJoin(q *relalg.Query) *relalg.Query {
	c := copyQuery(q)
	if len(q.Joins) > 0 {
		c.Joins = append(c.Joins, relalg.JoinPred{L: q.Joins[0].R, R: q.Joins[0].L})
	}
	return c
}

// dupScan is key_test.go's single-relation statement, its predicate
// duplicated or not.
func dupScan(dup bool) *relalg.Query {
	q := &relalg.Query{
		Name:  "dup",
		Rels:  []relalg.RelRef{{Alias: "c", Table: "customer"}},
		Scans: []relalg.ScanPred{{Col: relalg.ColID{Rel: 0, Off: 1}, Op: relalg.CmpLT, Val: 9}},
	}
	if dup {
		q.Scans = append(q.Scans, q.Scans[0])
	}
	return q
}

// keyCorpus is the statements the reference tests compare: the named TPC-H
// queries and the join workload, as written, with residual filters at two
// selectivities, with one more local predicate and with a repeated edge; key_test.go's self-joins
// and duplicate predicates; the fuzz seeds' random queries; and of each of
// these a respelled copy, its FROM list reversed and randomly permuted.
func keyCorpus() []*relalg.Query {
	named := tpch.Queries()
	names := make([]string, 0, len(named))
	for n := range named {
		names = append(names, n)
	}
	sort.Strings(names)
	var base []*relalg.Query
	for _, n := range names {
		base = append(base, named[n])
	}
	base = append(base, tpch.JoinWorkload()...)
	for _, q := range base[:len(base):len(base)] {
		base = append(base, withFilters(q, 0.5), withFilters(q, 0.25), withScan(q), withDupJoin(q))
	}
	base = append(base, selfJoin("sj1", 0, 3), selfJoin("sj2", 0, 3), selfJoin("sj3", 0, 4),
		selfJoin("sj4", 3, 0), dupScan(true), dupScan(true), dupScan(false))
	for s := uint64(1); s <= 12; s++ {
		base = append(base, randQuery(stats.NewRand(s)))
	}
	r := stats.NewRand(48)
	corpus := base
	for _, q := range base {
		n := len(q.Rels)
		rev := make([]int, n)
		for i := range rev {
			rev[i] = n - 1 - i
		}
		corpus = append(corpus, preserveMutate(copyQuery(q), r), permuteFrom(q, rev), permuteFrom(q, randPerm(r, n)))
	}
	return corpus
}

// TestCanonicalKeyMatchesReference: over every pair of corpus statements,
// the Fingerprinter's key is equal exactly when the fmt renderer's is.
func TestCanonicalKeyMatchesReference(t *testing.T) {
	corpus := keyCorpus()
	keys, refs := make([]string, len(corpus)), make([]string, len(corpus))
	for i, q := range corpus {
		keys[i], refs[i] = CanonicalKey(q), refCanonicalKey(q)
	}
	equal := 0
	for i := range corpus {
		for j := i + 1; j < len(corpus); j++ {
			if got, want := keys[i] == keys[j], refs[i] == refs[j]; got != want {
				t.Fatalf("%s and %s: keys equal %v, reference keys equal %v\n%s\n%s\nreference:\n%s\n%s",
					corpus[i].Name, corpus[j].Name, got, want, keys[i], keys[j], refs[i], refs[j])
			} else if got {
				equal++
			}
		}
	}
	t.Logf("%d statements, %d pairs share a key", len(corpus), equal)
}

// TestShapeMatchesReference: over every pair of corpus statements, the
// Fingerprinter's shapes are equal exactly when the reference shapes are,
// and where they are (and name a shape), ShapeMaps gives the reference maps.
func TestShapeMatchesReference(t *testing.T) {
	corpus := keyCorpus()
	fps := make([]*relalg.Fingerprinter, len(corpus))
	shapes, refs := make([]string, len(corpus)), make([]string, len(corpus))
	for i, q := range corpus {
		fps[i] = relalg.NewFingerprinter(q)
		shapes[i], refs[i] = fps[i].Shape(), refShapeKey(q)
		if (shapes[i] == "") != (refs[i] == "") {
			t.Fatalf("%s: shape %q, reference shape %q", q.Name, shapes[i], refs[i])
		}
	}
	mapped := 0
	for i := range corpus {
		for j := range corpus {
			got, want := shapes[i] == shapes[j], refs[i] == refs[j]
			if got != want {
				t.Fatalf("%s and %s: shapes equal %v, reference shapes equal %v\n%s\n%s\nreference:\n%s\n%s",
					corpus[i].Name, corpus[j].Name, got, want, shapes[i], shapes[j], refs[i], refs[j])
			}
			if !got || shapes[i] == "" {
				continue
			}
			rel, pred := relalg.ShapeMaps(fps[i], fps[j])
			wantRel, wantPred := refShapeMaps(corpus[i], corpus[j])
			if !slices.Equal(rel, wantRel) || !slices.Equal(pred, wantPred) {
				t.Fatalf("%s onto %s: maps %v %v, reference maps %v %v",
					corpus[i].Name, corpus[j].Name, rel, pred, wantRel, wantPred)
			}
			mapped++
		}
	}
	t.Logf("%d statements, %d ordered pairs share a shape", len(corpus), mapped)
}
