package server

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// This property test is the soundness gate for serving cached results: if
// two subexpressions — of the same query or of different random queries —
// fingerprint identically, executing each standalone must produce the SAME
// multiset of rows once both are rendered in the canonical column order
// (relalg.Fingerprinter.CanonicalMembers). That is exactly the substitution
// the result cache performs, so a counterexample here is a wrong query
// answer waiting to happen.

// chainTables is the customer→orders→lineitem join chain the random
// queries draw from, with the real TPC-H key columns.
var chainTables = []struct {
	table     string
	joinL     int // column joining to the previous chain element
	joinRPrev int // the previous element's column
}{
	{table: "customer"},
	{table: "orders", joinL: 1, joinRPrev: 0},   // o_custkey = c_custkey
	{table: "lineitem", joinL: 0, joinRPrev: 0}, // l_orderkey = o_orderkey
}

// predPool is a deliberately small per-table predicate pool so random
// queries collide on subexpression fingerprints often — collisions are what
// the property is about.
var predPool = map[string][]relalg.ScanPred{
	"customer": {
		{Col: relalg.ColID{Off: 2}, Op: relalg.CmpEQ, Val: tpch.SegMachinery},
		{Col: relalg.ColID{Off: 0}, Op: relalg.CmpLT, Val: 40},
	},
	"orders": {
		{Col: relalg.ColID{Off: 2}, Op: relalg.CmpLT, Val: tpch.Date(1995, 3, 15)},
	},
	"lineitem": {
		{Col: relalg.ColID{Off: 3}, Op: relalg.CmpGT, Val: tpch.Date(1995, 3, 15)},
	},
}

// randChainQuery derives a random contiguous subchain query with random
// predicate subsets and a random relation minting order.
func randChainQuery(r *stats.Rand) *relalg.Query {
	start := int(r.Int64n(int64(len(chainTables))))
	n := 1 + int(r.Int64n(int64(len(chainTables)-start)))
	order := make([]int, n) // chain position -> minting index
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.Int64n(int64(i + 1)))
		order[i], order[j] = order[j], order[i]
	}
	q := &relalg.Query{Name: "prop", Rels: make([]relalg.RelRef, n)}
	for pos := 0; pos < n; pos++ {
		ct := chainTables[start+pos]
		q.Rels[order[pos]] = relalg.RelRef{Alias: fmt.Sprintf("p%d", pos), Table: ct.table}
		if pos > 0 {
			q.Joins = append(q.Joins, relalg.JoinPred{
				L: relalg.ColID{Rel: order[pos], Off: ct.joinL},
				R: relalg.ColID{Rel: order[pos-1], Off: ct.joinRPrev},
			})
		}
		for _, sp := range predPool[ct.table] {
			if r.Int64n(2) == 0 {
				sp.Col.Rel = order[pos]
				q.Scans = append(q.Scans, sp)
			}
		}
	}
	return q
}

// subQuery extracts the connected subexpression set of q as a standalone
// query, remapping member relations to ascending fresh indices.
func subQuery(q *relalg.Query, set relalg.RelSet) *relalg.Query {
	members := set.Members()
	idx := make(map[int]int, len(members))
	sub := &relalg.Query{Name: "sub"}
	for newi, rel := range members {
		idx[rel] = newi
		sub.Rels = append(sub.Rels, q.Rels[rel])
	}
	for _, sp := range q.Scans {
		if set.Has(sp.Col.Rel) {
			sp.Col.Rel = idx[sp.Col.Rel]
			sub.Scans = append(sub.Scans, sp)
		}
	}
	for _, jp := range q.Joins {
		if set.Has(jp.L.Rel) && set.Has(jp.R.Rel) {
			jp.L.Rel, jp.R.Rel = idx[jp.L.Rel], idx[jp.R.Rel]
			sub.Joins = append(sub.Joins, jp)
		}
	}
	for _, fp := range q.Filters {
		if set.Has(fp.L.Rel) && set.Has(fp.R.Rel) {
			fp.L.Rel, fp.R.Rel = idx[fp.L.Rel], idx[fp.R.Rel]
			sub.Filters = append(sub.Filters, fp)
		}
	}
	return sub
}

// canonicalMultiset executes sub standalone (fresh optimizer, serial
// executor) and renders the result multiset with columns permuted into the
// canonical member order — the query-independent form two fingerprint-equal
// subexpressions must agree on.
func canonicalMultiset(t *testing.T, cat *catalog.Catalog, sub *relalg.Query) string {
	t.Helper()
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := cost.NewModel(sub, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.New(m, relalg.DefaultSpace(), core.PruneAll)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	comp := &exec.Compiler{Q: sub, Cat: cat}
	v, _, err := comp.CompileVec(plan)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.DrainVec(v)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := comp.PlanSchema(plan)
	if err != nil {
		t.Fatal(err)
	}
	// perm[i] = schema position of the i-th canonical column.
	fper := relalg.NewFingerprinter(sub)
	var perm []int
	for _, rel := range fper.CanonicalMembers(sub.AllRels()) {
		arity := len(cat.MustTable(sub.Rels[rel].Table).ColNames)
		for off := 0; off < arity; off++ {
			pos := -1
			for i, cid := range schema {
				if cid == (relalg.ColID{Rel: rel, Off: off}) {
					pos = i
					break
				}
			}
			if pos < 0 {
				t.Fatalf("column %d.%d missing from plan schema %v", rel, off, schema)
			}
			perm = append(perm, pos)
		}
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, p := range perm {
			fmt.Fprintf(&b, "|%d", r[p])
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestFingerprintEqualImpliesResultEqual: across a population of random
// chain queries, every pair of fingerprint-equal connected subexpressions
// produces the identical canonical result multiset.
func TestFingerprintEqualImpliesResultEqual(t *testing.T) {
	cat := testCatalog()
	r := stats.NewRand(99)

	type witness struct {
		multiset string
		origin   string
	}
	seen := map[string]witness{}
	collisions := 0
	for i := 0; i < 60; i++ {
		q := randChainQuery(r)
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
		fper := relalg.NewFingerprinter(q)
		sets := warmSets(q)
		for _, set := range sets {
			if fper.AmbiguousOrder(set) {
				continue // result sharing refuses these; nothing to prove
			}
			fp := fper.Fingerprint(set)
			sub := subQuery(q, set)
			// The remapped standalone query must fingerprint identically —
			// the cross-query half of the canonicalization contract.
			if got := relalg.NewFingerprinter(sub).Fingerprint(sub.AllRels()); got != fp {
				t.Fatalf("standalone remap changed the fingerprint:\n%s\n%s", fp, got)
			}
			ms := canonicalMultiset(t, cat, sub)
			origin := fmt.Sprintf("query %d set %v", i, set)
			if w, ok := seen[fp]; ok {
				collisions++
				if w.multiset != ms {
					t.Fatalf("fingerprint-equal subexpressions disagree:\n%s\nvs %s\nfp=%s",
						w.origin, origin, fp)
				}
			} else {
				seen[fp] = witness{multiset: ms, origin: origin}
			}
		}
	}
	// The property is vacuous without collisions; the small pools guarantee
	// plenty.
	if collisions < 20 {
		t.Fatalf("only %d fingerprint collisions across the population — pool too diverse to test the property", collisions)
	}
}
