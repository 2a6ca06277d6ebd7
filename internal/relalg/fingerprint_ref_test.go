package relalg_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/relalg"
	"repro/internal/tpch"
)

// refFingerprinter is the Fingerprinter as it stood when it rendered with
// fmt.Sprintf and strings.Join: persisted statistics snapshots key on these
// strings, so the renderer must reproduce them byte for byte. Only the
// package qualifiers differ from that code.
type refFingerprinter struct {
	q    *relalg.Query
	desc []string
}

func newRefFingerprinter(q *relalg.Query) *refFingerprinter {
	f := &refFingerprinter{q: q, desc: make([]string, len(q.Rels))}
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

func (f *refFingerprinter) fingerprint(s relalg.RelSet) string {
	members := s.Members()
	sort.SliceStable(members, func(i, j int) bool {
		return f.desc[members[i]] < f.desc[members[j]]
	})
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
		if r < l {
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
	return b.String()
}

// withFilters returns a copy of q with a residual filter over every join
// predicate's columns and a second local predicate on relation 0, so the
// filter terms and multi-predicate descriptors are rendered too: every
// comparison operator, negative offsets and values, and selectivities whose
// shortest %g form is plain, long or exponential.
func withFilters(q *relalg.Query) *relalg.Query {
	c := relalg.Query{Name: q.Name + "+filters", Rels: q.Rels, Joins: q.Joins, Agg: q.Agg}
	sels := []float64{0.5, 1.0 / 3, 1e-7, 1, 0.25e-4, 123.0 / 1024}
	for i, j := range q.Joins {
		c.Filters = append(c.Filters, relalg.FilterPred{
			L: j.R, R: j.L, Op: relalg.CmpOp(i % 6), Off: int64(i*37 - 50), Sel: sels[i%len(sels)],
		})
	}
	c.Scans = append(append([]relalg.ScanPred(nil), q.Scans...),
		relalg.ScanPred{Col: relalg.ColID{Rel: 0, Off: 1}, Op: relalg.CmpGE, Val: -12},
		relalg.ScanPred{Col: relalg.ColID{Rel: 0, Off: 0}, Op: relalg.CmpNE, Val: 1 << 40})
	return &c
}

// TestFingerprintMatchesReference renders every connected subset of the
// join workload and of every named TPC-H query, as written and with residual
// filters added, and checks that the fingerprints equal the fmt-based
// renderer's byte for byte.
func TestFingerprintMatchesReference(t *testing.T) {
	named := tpch.Queries()
	var queries []*relalg.Query
	for _, name := range sortedNames(named) {
		queries = append(queries, named[name])
	}
	queries = append(queries, tpch.JoinWorkload()...)
	for _, q := range queries[:len(queries):len(queries)] {
		queries = append(queries, withFilters(q))
	}
	sets := 0
	for _, q := range queries {
		f, ref := relalg.NewFingerprinter(q), newRefFingerprinter(q)
		for s := relalg.RelSet(1); s <= q.AllRels(); s++ {
			if !s.IsSubset(q.AllRels()) || !q.Connected(s) {
				continue
			}
			sets++
			if got, want := f.Fingerprint(s), ref.fingerprint(s); got != want {
				t.Fatalf("%s %v: fingerprint\n%q, the fmt renderer gives\n%q", q.Name, s, got, want)
			}
		}
	}
	t.Logf("%d queries, %d connected subsets", len(queries), sets)
}

func sortedNames(m map[string]*relalg.Query) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
