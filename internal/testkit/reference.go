package testkit

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/relalg"
)

// Reference evaluates a logical query naively, straight from its
// definition: per-relation Scans, relations joined in a fixed order that no
// optimizer chose, every Joins/Filters predicate checked as soon as both its
// sides are present, Agg through a plain map. It is the oracle the executor's
// results and RunStats cardinalities are compared against, so it imports
// neither the executor nor any optimizer and shares no helper with them.
type Reference struct {
	q    *relalg.Query
	cols [][][]int64 // cols[rel][off][row]: the relation's column snapshot
	live [][]int     // live[rel]: row ids passing the relation's Scans
}

// NewReference snapshots the query's tables and applies the local selections.
func NewReference(q *relalg.Query, cat *catalog.Catalog) *Reference {
	r := &Reference{q: q, cols: make([][][]int64, len(q.Rels)), live: make([][]int, len(q.Rels))}
	for rel, ref := range q.Rels {
		cols, n := cat.MustTable(ref.Table).ColumnSnapshot()
		r.cols[rel] = cols
	rows:
		for i := 0; i < n; i++ {
			for _, sp := range q.Scans {
				if sp.Col.Rel == rel && !sp.Op.Eval(cols[sp.Col.Off][i], sp.Val) {
					continue rows
				}
			}
			r.live[rel] = append(r.live[rel], i)
		}
	}
	return r
}

// val reads column c of a joined tuple (one row id per query relation).
func (r *Reference) val(tuple []int, c relalg.ColID) int64 {
	return r.cols[c.Rel][c.Off][tuple[c.Rel]]
}

// join returns the join over the relations of s alone, as tuples of row ids
// indexed by relation. The order is plan-independent: start at the first
// member, then repeatedly add the first member in query order that an
// equi-join predicate connects to the joined set. One such predicate picks
// the candidate rows through a map; every predicate with both sides present
// (that one included) is then checked on the candidate.
func (r *Reference) join(s relalg.RelSet) [][]int {
	members := s.Members()
	joined := relalg.Single(members[0])
	var tuples [][]int
	for _, id := range r.live[members[0]] {
		t := make([]int, len(r.q.Rels))
		t[members[0]] = id
		tuples = append(tuples, t)
	}
	for joined != s {
		next, have, want := -1, relalg.ColID{}, relalg.ColID{}
	pick:
		for _, m := range members {
			for _, jp := range r.q.Joins {
				if !joined.Has(m) && jp.Crosses(joined, relalg.Single(m)) {
					next, have, want = m, jp.L, jp.R
					if have.Rel == m {
						have, want = want, have
					}
					break pick
				}
			}
		}
		if next < 0 {
			panic(fmt.Sprintf("testkit: %v is not a connected subexpression", s))
		}
		joined = joined.Add(next)
		byVal := map[int64][]int{}
		for _, id := range r.live[next] {
			v := r.cols[next][want.Off][id]
			byVal[v] = append(byVal[v], id)
		}
		var out [][]int
		for _, t := range tuples {
		cands:
			for _, id := range byVal[r.val(t, have)] {
				t[next] = id
				for _, jp := range r.q.Joins {
					if jp.Touches(next) && joined.Has(jp.L.Rel) && joined.Has(jp.R.Rel) &&
						r.val(t, jp.L) != r.val(t, jp.R) {
						continue cands
					}
				}
				for _, f := range r.q.Filters {
					if (f.L.Rel == next || f.R.Rel == next) && joined.Has(f.L.Rel) && joined.Has(f.R.Rel) &&
						!f.Op.Eval(r.val(t, f.L), r.val(t, f.R)+f.Off) {
						continue cands
					}
				}
				out = append(out, append([]int(nil), t...))
			}
		}
		tuples = out
	}
	return tuples
}

// Card returns the cardinality of the connected subexpression s — what
// exec.RunStats must report for a scan or join node whose Expr is s.
func (r *Reference) Card(s relalg.RelSet) int64 { return int64(len(r.join(s))) }

// Rows returns the query's result multiset. Without an aggregate, each row
// holds every column of every relation in canonical (relation, offset)
// order; with one, it holds the group-by columns, the SUMs, COUNT(*) if
// requested, then the COUNT(DISTINCT)s — the executor's output layout. An
// aggregate over an empty join yields no row.
func (r *Reference) Rows() [][]int64 {
	tuples := r.join(r.q.AllRels())
	agg := r.q.Agg
	if agg == nil {
		out := make([][]int64, len(tuples))
		for i, t := range tuples {
			for rel, cols := range r.cols {
				for _, col := range cols {
					out[i] = append(out[i], col[t[rel]])
				}
			}
		}
		return out
	}
	type group struct {
		key, sums []int64
		count     int64
		distinct  []map[int64]bool
	}
	groups := map[string]*group{}
	for _, t := range tuples {
		key := make([]int64, len(agg.GroupBy))
		for i, c := range agg.GroupBy {
			key[i] = r.val(t, c)
		}
		g := groups[fmt.Sprint(key)]
		if g == nil {
			g = &group{key: key, sums: make([]int64, len(agg.Sums))}
			for range agg.CountDistinct {
				g.distinct = append(g.distinct, map[int64]bool{})
			}
			groups[fmt.Sprint(key)] = g
		}
		for i, c := range agg.Sums {
			g.sums[i] += r.val(t, c)
		}
		g.count++
		for i, c := range agg.CountDistinct {
			g.distinct[i][r.val(t, c)] = true
		}
	}
	var out [][]int64
	for _, g := range groups {
		row := append(append([]int64(nil), g.key...), g.sums...)
		if agg.CountAll {
			row = append(row, g.count)
		}
		for _, d := range g.distinct {
			row = append(row, int64(len(d)))
		}
		out = append(out, row)
	}
	return out
}

// Canonical renders a row multiset order-independently. A non-nil schema
// gives the column id of each row position (a plan's output schema); columns
// are then put in (relation, offset) order first, so any plan compares to Rows.
func Canonical[R ~[]int64](rows []R, schema []relalg.ColID) string {
	perm := make([]int, len(schema))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ca, cb := schema[perm[a]], schema[perm[b]]
		return ca.Rel < cb.Rel || ca.Rel == cb.Rel && ca.Off < cb.Off
	})
	keys := make([]string, len(rows))
	for i, row := range rows {
		var b strings.Builder
		for pos := range row {
			if schema != nil {
				pos = perm[pos]
			}
			fmt.Fprintf(&b, "|%d", row[pos])
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}
