// Package cost implements the shared cost model: cardinality summaries (the
// paper's Fn_scansummary / Fn_nonscansummary), per-operator cost functions
// (Fn_scancost / Fn_nonscancost), and — crucially for this paper — the
// runtime cost-parameter overrides that drive incremental re-optimization:
// per-expression cardinality factors (a join-selectivity update, Figure 5)
// and per-relation scan-cost factors (Figure 8).
//
// Every optimizer architecture in the repository computes costs exclusively
// through this package, mirroring the paper's methodology ("reuse the
// histogram, cost estimation, and other core components"), so their optima
// are directly comparable.
package cost

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/catalog"
	"repro/internal/relalg"
)

// Params are the constants of the cost model, in abstract cost units
// (roughly: 1.0 == one sequential page read).
type Params struct {
	SeqPage      float64 // sequential page I/O
	RandPage     float64 // random page I/O
	PageSize     float64 // bytes per page
	CPUTuple     float64 // per-tuple CPU handling
	CPUCompare   float64 // per-tuple comparison (merge, sort)
	CPUHashBuild float64 // per-tuple hash-table insert
	CPUHashProbe float64 // per-tuple hash-table probe
	IndexLookup  float64 // one B-tree descent
	SortFactor   float64 // multiplier on n*log2(n) comparisons
}

// DefaultParams returns the parameter set used throughout the evaluation.
func DefaultParams() Params {
	return Params{
		SeqPage:      1.0,
		RandPage:     4.0,
		PageSize:     8192,
		CPUTuple:     0.01,
		CPUCompare:   0.02,
		CPUHashBuild: 0.03,
		CPUHashProbe: 0.015,
		IndexLookup:  0.5,
		SortFactor:   1.0,
	}
}

// cardOverride is one SetCardFactor entry: every expression that contains
// Over gets its cardinality multiplied by Factor.
type cardOverride struct {
	Over   relalg.RelSet
	Factor float64
}

// cardSlot is one slot of the cardinality memo: an expression (empty in a
// free slot), its unclamped override-free product and its current estimate.
type cardSlot struct {
	set        relalg.RelSet
	base, card float64
}

// Model binds a query to a catalog and parameter set and answers every
// cost-model question the optimizers ask. It is not safe for concurrent
// mutation; optimizers own their model.
type Model struct {
	Q   *relalg.Query
	Cat *catalog.Catalog
	P   Params

	tables    []*catalog.Table
	baseRows  []float64 // raw row counts per query relation
	baseCard  []float64 // after local selection predicates
	scanSel   []float64
	joinSel   []float64 // per q.Joins entry
	filterSel []float64 // per q.Filters entry

	overrides  []cardOverride // sorted by Over for determinism
	scanFactor []float64      // per query relation, default 1
	// scanFrac is, per query relation, the fraction of its rows a table
	// scan reads once segment zone maps prune it (1 without a predicate on
	// a zone column).
	scanFrac []float64

	// cards memoizes Card per expression for the model's lifetime in an
	// open-addressed table: 2^k slots (four per relation to start),
	// probed linearly from a multiplicative hash, at most 3/4 full. The
	// override-free product never changes; SetCardFactor walks the slots
	// and re-applies the overrides to the supersets of the set it changed.
	cards  []cardSlot
	nCards int

	// Epoch increments on every override mutation; incremental optimizers
	// use it to detect staleness of cached costs.
	Epoch uint64
}

// NewModel resolves the query against the catalog and precomputes base
// selectivities. It fails if a relation or column cannot be resolved.
func NewModel(q *relalg.Query, cat *catalog.Catalog, p Params) (*Model, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Q: q, Cat: cat, P: p, cards: make([]cardSlot, max(8, 1<<bits.Len(uint(4*len(q.Rels)-1))))}
	m.tables = make([]*catalog.Table, len(q.Rels))
	m.baseRows = make([]float64, len(q.Rels))
	m.baseCard = make([]float64, len(q.Rels))
	m.scanSel = make([]float64, len(q.Rels))
	m.scanFactor = make([]float64, len(q.Rels))
	m.scanFrac = make([]float64, len(q.Rels))
	for i, r := range q.Rels {
		t, err := cat.Table(r.Table)
		if err != nil {
			return nil, fmt.Errorf("query %s relation %s: %w", q.Name, r.Alias, err)
		}
		m.tables[i] = t
		m.baseRows[i] = math.Max(t.Rows(), 1)
		m.scanFactor[i] = 1
		sel := 1.0
		for _, pr := range q.ScanPredsOf(i) {
			s, err := m.predSel(t, pr)
			if err != nil {
				return nil, err
			}
			sel *= s
		}
		m.scanSel[i] = sel
		m.baseCard[i] = math.Max(m.baseRows[i]*sel, 1e-6)
		m.scanFrac[i] = m.prunedFrac(i)
	}
	m.joinSel = make([]float64, len(q.Joins))
	for pi, jp := range q.Joins {
		dl := m.colDistinct(jp.L)
		dr := m.colDistinct(jp.R)
		m.joinSel[pi] = 1 / math.Max(math.Max(dl, dr), 1)
	}
	m.filterSel = make([]float64, len(q.Filters))
	for fi, f := range q.Filters {
		m.filterSel[fi] = f.Sel
	}
	return m, nil
}

func (m *Model) predSel(t *catalog.Table, pr relalg.ScanPred) (float64, error) {
	cs := t.Stats(pr.Col.Off)
	if cs.Hist != nil {
		return cs.Hist.FracCmp(pr.Op.String(), pr.Val)
	}
	// No histogram: textbook defaults.
	switch pr.Op {
	case relalg.CmpEQ:
		return 1 / math.Max(cs.Distinct, 1), nil
	case relalg.CmpNE:
		return 1 - 1/math.Max(cs.Distinct, 1), nil
	default:
		return 1.0 / 3.0, nil
	}
}

func (m *Model) colDistinct(c relalg.ColID) float64 {
	t := m.tables[c.Rel]
	if c.Off < len(t.ColNames) {
		if d := t.Stats(c.Off).Distinct; d >= 1 {
			return d
		}
	}
	return math.Max(t.Rows(), 1)
}

// ---- relalg.SchemaInfo ----

// IndexCols implements relalg.SchemaInfo.
func (m *Model) IndexCols(rel int) []int { return m.tables[rel].Indexes }

// SortedCol implements relalg.SchemaInfo.
func (m *Model) SortedCol(rel int) int { return m.tables[rel].SortedBy }

// pruneSlack is the read fraction added to the zone-column selectivity
// of a pruned table scan: segments whose key range straddles a predicate
// boundary must still be read whole, so pruning rarely achieves the
// predicate's exact selectivity.
const pruneSlack = 0.10

// prunedFrac is the fraction of relation rel's rows a table scan reads after
// zone-map pruning: the selectivity of the local predicates on the first
// zone column one lands on, plus slack, at most 1. It reads the table's zone
// columns, which takes the table's lock, so NewModel calls it once per
// relation.
func (m *Model) prunedFrac(rel int) float64 {
	zone := m.tables[rel].ZoneCols()
	for _, pr := range m.Q.Scans {
		if pr.Col.Rel == rel && slices.Contains(zone, pr.Col.Off) {
			return math.Min(1, m.colSel(rel, pr.Col)+pruneSlack)
		}
	}
	return 1
}

// ---- overrides (the incremental re-optimization inputs) ----

// SetCardFactor installs a cardinality override: the estimated cardinality
// of every expression containing s is multiplied by factor. Setting factor
// 1 removes the override. This models the paper's Figure 5 experiment
// ("change to join selectivity estimate" of a subexpression) and the
// feedback loop of Figure 6 (actual/estimated cardinality ratios observed
// during execution).
func (m *Model) SetCardFactor(s relalg.RelSet, factor float64) {
	if s.Empty() {
		panic("cost: SetCardFactor of empty set")
	}
	m.Epoch++
	i := 0
	for i < len(m.overrides) && m.overrides[i].Over < s {
		i++
	}
	found := i < len(m.overrides) && m.overrides[i].Over == s
	switch {
	case found && factor == 1:
		m.overrides = append(m.overrides[:i], m.overrides[i+1:]...)
	case found:
		m.overrides[i].Factor = factor
	case factor == 1:
		return
	default:
		m.overrides = append(m.overrides, cardOverride{})
		copy(m.overrides[i+1:], m.overrides[i:])
		m.overrides[i] = cardOverride{Over: s, Factor: factor}
	}
	for i := range m.cards {
		if c := &m.cards[i]; s.IsSubset(c.set) { // never a free slot: s is not empty
			c.card = m.applyOverrides(c.set, c.base)
		}
	}
}

// CardFactor returns the current override factor for exactly s (1 if none).
func (m *Model) CardFactor(s relalg.RelSet) float64 {
	for _, o := range m.overrides {
		if o.Over == s {
			return o.Factor
		}
	}
	return 1
}

// SetScanCostFactor scales the I/O cost of reading the base relation rel
// (table scans, index scans, and index-NL inner fetches). This models the
// paper's Figure 8 experiment ("Orders has updated scan cost").
func (m *Model) SetScanCostFactor(rel int, factor float64) {
	if factor <= 0 {
		panic("cost: non-positive scan cost factor")
	}
	m.Epoch++
	m.scanFactor[rel] = factor
}

// CardDependsOn reports whether the cardinality of expression e is affected
// by an override on s — i.e. whether s ⊆ e. The incremental optimizer uses
// it to locate the affected region of its state.
func CardDependsOn(e, s relalg.RelSet) bool { return s.IsSubset(e) }

// ---- summaries (Fn_scansummary / Fn_nonscansummary) ----

// Card estimates the output cardinality of expression s: the product of the
// base cardinalities (after local predicates), the selectivities of every
// join and filter predicate internal to s, and every matching override
// factor. The product form makes the estimate independent of join order, so
// all plans of one group agree on it — the paper's memoized summary.
func (m *Model) Card(s relalg.RelSet) float64 { return m.memo(s).card }

// memo returns s's slot in the cardinality memo, filling it on first use. s
// must not be empty: every expression has a member.
func (m *Model) memo(s relalg.RelSet) *cardSlot {
	if c := m.probe(s); c.set == s {
		return c
	}
	base := 1.0
	s.EachMember(func(i int) { base *= m.baseCard[i] })
	for pi, jp := range m.Q.Joins {
		if s.Has(jp.L.Rel) && s.Has(jp.R.Rel) {
			base *= m.joinSel[pi]
		}
	}
	for fi, f := range m.Q.Filters {
		if s.Has(f.L.Rel) && s.Has(f.R.Rel) {
			base *= m.filterSel[fi]
		}
	}
	if 4*(m.nCards+1) > 3*len(m.cards) {
		old := m.cards
		m.cards = make([]cardSlot, 2*len(old))
		for i := range old {
			if old[i].set != 0 {
				*m.probe(old[i].set) = old[i]
			}
		}
	}
	m.nCards++
	c := m.probe(s)
	*c = cardSlot{set: s, base: base, card: m.applyOverrides(s, base)}
	return c
}

// probe returns the slot that holds s, or the free slot where s belongs.
func (m *Model) probe(s relalg.RelSet) *cardSlot {
	mask := uint64(len(m.cards) - 1)
	i := uint64(s) * 0x9e3779b97f4a7c15 >> bits.LeadingZeros64(mask)
	for {
		if c := &m.cards[i]; c.set == s || c.set == 0 {
			return c
		}
		i = (i + 1) & mask
	}
}

// applyOverrides multiplies the override-free product of s by every matching
// override factor, in Over order so the floating-point result is independent
// of the order the overrides were installed in.
func (m *Model) applyOverrides(s relalg.RelSet, base float64) float64 {
	for _, o := range m.overrides {
		if o.Over.IsSubset(s) {
			base *= o.Factor
		}
	}
	return math.Max(base, 1e-6)
}

// ---- operator costs (Fn_scancost / Fn_nonscancost) ----

// LocalCost computes the cost of the operator described by alt, rooted at
// expression s demanded with property prop, excluding children. It is the
// single cost function shared by all optimizers.
func (m *Model) LocalCost(alt *relalg.Alt, s relalg.RelSet, prop relalg.Prop) float64 {
	p := m.P
	switch alt.Phy {
	case relalg.PhyTableScan:
		// A sequential scan that reads only the fraction of rows zone
		// maps cannot prune (all of them on an in-memory table).
		rel := alt.Rel
		rows := m.baseRows[rel]
		pages := rows * m.tables[rel].Width / p.PageSize
		return m.scanFactor[rel] * m.scanFrac[rel] * (p.SeqPage*pages + p.CPUTuple*rows)

	case relalg.PhyIndexScan:
		rel := alt.Rel
		if prop.Kind == relalg.PropIndexed {
			// Demanded as the inner of an index-NL join: the index
			// already exists; per-probe work is charged at the join.
			return p.IndexLookup
		}
		// Fetch through the index, restricted by local predicates on
		// the key column; residual predicates filter after the fetch.
		fetched := math.Max(m.baseRows[rel]*m.colSel(rel, alt.IdxCol), 1)
		return m.scanFactor[rel] * (p.IndexLookup + fetched*(p.RandPage+p.CPUTuple))

	case relalg.PhyHashJoin:
		lc := m.Card(alt.LExpr)
		rc := m.Card(alt.RExpr)
		out := m.Card(s)
		return p.CPUHashBuild*lc + p.CPUHashProbe*rc + p.CPUTuple*out

	case relalg.PhyMergeJoin:
		lc := m.Card(alt.LExpr)
		rc := m.Card(alt.RExpr)
		out := m.Card(s)
		return p.CPUCompare*(lc+rc) + p.CPUTuple*out

	case relalg.PhyIndexNLJoin:
		inner := alt.LExpr.SingleMember()
		probes := m.Card(alt.RExpr)
		jp := m.Q.Joins[alt.Pred]
		innerCol := jp.L
		if innerCol.Rel != inner {
			innerCol = jp.R
		}
		perProbe := m.baseRows[inner] / math.Max(m.colDistinct(innerCol), 1)
		fetched := probes * math.Max(perProbe, 1e-6)
		out := m.Card(s)
		return probes*p.IndexLookup +
			m.scanFactor[inner]*fetched*(p.RandPage+p.CPUTuple) +
			p.CPUTuple*out

	case relalg.PhySort:
		n := math.Max(m.Card(s), 2)
		return p.SortFactor * p.CPUCompare * n * math.Log2(n)
	}
	panic(fmt.Sprintf("cost: unknown physical operator %v", alt.Phy))
}

// colSel is the combined selectivity of rel's local predicates on col. It
// walks Query.Scans in place: LocalCost runs once per affected alternative of
// every repair and must not allocate.
func (m *Model) colSel(rel int, col relalg.ColID) float64 {
	sel := 1.0
	for _, pr := range m.Q.Scans {
		if pr.Col.Rel == rel && pr.Col == col {
			if s, err := m.predSel(m.tables[rel], pr); err == nil {
				sel *= s
			}
		}
	}
	return sel
}

// ScanAffects reports whether a scan-cost factor change on rel affects the
// local cost of alt: true for scans of rel and for index-NL joins whose
// inner is rel.
func ScanAffects(alt *relalg.Alt, rel int) bool {
	switch alt.Phy {
	case relalg.PhyTableScan, relalg.PhyIndexScan:
		return alt.Rel == rel
	case relalg.PhyIndexNLJoin:
		return alt.LExpr == relalg.Single(rel)
	}
	return false
}
