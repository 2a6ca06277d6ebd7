// Package relalg defines the relational-algebra vocabulary shared by every
// optimizer architecture in this repository: relation-set bitmaps, physical
// and logical operators, plan properties ("interesting orders" and index
// availability), the single-block query model, the join graph, the common
// plan-space enumerator (the paper's Fn_split / Fn_isleaf built-ins), and
// physical plan trees.
//
// Keeping this vocabulary in one package mirrors the paper's methodology:
// "wherever possible we used common code across the implementations" — the
// Volcano-style, System-R-style and declarative/incremental optimizers all
// enumerate exactly the same search space and therefore must agree on the
// optimum, which the test suite verifies.
package relalg

import (
	"fmt"
	"math/bits"
	"strings"
)

// RelSet is a bitmap over the base relations of a query: bit i is set when
// the i-th relation of Query.Rels participates in the (sub)expression. This
// is the paper's Expr key of the SearchSpace relation. A query may reference
// at most 64 relations, far beyond the paper's largest workload (8-way join).
type RelSet uint64

// Single returns the set containing only relation i.
func Single(i int) RelSet { return RelSet(1) << uint(i) }

// Has reports whether relation i is a member of s.
func (s RelSet) Has(i int) bool { return s&Single(i) != 0 }

// Add returns s with relation i included.
func (s RelSet) Add(i int) RelSet { return s | Single(i) }

// Union returns the set union of s and t.
func (s RelSet) Union(t RelSet) RelSet { return s | t }

// Without returns s with every member of t removed.
func (s RelSet) Without(t RelSet) RelSet { return s &^ t }

// Count returns the number of member relations.
func (s RelSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no members.
func (s RelSet) Empty() bool { return s == 0 }

// IsSingle reports whether the set has exactly one member, i.e. whether the
// expression is a leaf in the sense of the paper's Fn_isleaf built-in.
func (s RelSet) IsSingle() bool { return s != 0 && s&(s-1) == 0 }

// SingleMember returns the index of the sole member of a singleton set.
// It panics if the set is not a singleton.
func (s RelSet) SingleMember() int {
	if !s.IsSingle() {
		panic(fmt.Sprintf("relalg: SingleMember of non-singleton %b", uint64(s)))
	}
	return bits.TrailingZeros64(uint64(s))
}

// IsSubset reports whether every member of s is also in t.
func (s RelSet) IsSubset(t RelSet) bool { return s&^t == 0 }

// Members returns the member indices in ascending order.
func (s RelSet) Members() []int {
	out := make([]int, 0, s.Count())
	for v := uint64(s); v != 0; {
		i := bits.TrailingZeros64(v)
		out = append(out, i)
		v &= v - 1
	}
	return out
}

// EachMember calls fn for every member index in ascending order.
func (s RelSet) EachMember(fn func(i int)) {
	for v := uint64(s); v != 0; {
		fn(bits.TrailingZeros64(v))
		v &= v - 1
	}
}

// ProperSubsets calls fn for every non-empty proper subset of s, in
// descending numeric order of the subset bitmap. server.warmSets walks it
// for the subexpressions to warm-start; Split visits connected halves only.
func (s RelSet) ProperSubsets(fn func(sub RelSet)) {
	u := uint64(s)
	// Standard sub-mask enumeration: iterates all non-zero submasks.
	for sub := (u - 1) & u; sub != 0; sub = (sub - 1) & u {
		fn(RelSet(sub))
	}
}

// String renders the set as a compact brace list of member indices, e.g.
// "{0,2,3}". Query.SetString renders names instead.
func (s RelSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.EachMember(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
