package sqlmini

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/relalg"
)

// Options configures name resolution.
type Options struct {
	// Dict resolves string literals to their integer dictionary codes
	// (e.g. 'MACHINERY' -> tpch.SegMachinery). Nil rejects strings.
	Dict map[string]int64
	// Date encodes 'YYYY-MM-DD' literals; nil rejects date literals.
	Date func(y, m, d int) int64
}

// Parse compiles a single-block SELECT statement into a relalg.Query,
// resolving table and column names through the catalog.
func Parse(sql string, cat *catalog.Catalog, opts Options) (*relalg.Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, cat: cat, opts: opts}
	q, err := p.parse()
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
	cat  *catalog.Catalog
	opts Options

	q       *relalg.Query
	aliases map[string]int   // alias -> relation ordinal
	tables  []*catalog.Table // per relation
	selects []selectItem     // deferred until FROM is resolved
	groupBy []colRef
}

type selectItem struct {
	star          bool
	col           *colRef
	sum           *colRef
	countAll      bool
	countDistinct *colRef
}

type colRef struct {
	alias string // empty when unqualified
	name  string
	pos   int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

// errf reports a parse error at token t.
//
// Reached by: every statement the parser rejects — the error path of
// reproserve's prepare and run commands and of optcli -sql.
func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("sqlmini: offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

func (p *parser) keyword(word string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(word string) error {
	if !p.keyword(word) {
		return p.errf(p.cur(), "expected %s, found %q", strings.ToUpper(word), p.cur().text)
	}
	return nil
}

func (p *parser) symbol(s string) bool {
	t := p.cur()
	if t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parse() (*relalg.Query, error) {
	p.q = &relalg.Query{Name: "sql"}
	p.aliases = map[string]int{}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	if err := p.parseSelectList(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if err := p.parseFrom(); err != nil {
		return nil, err
	}
	if p.keyword("where") {
		if err := p.parseWhere(); err != nil {
			return nil, err
		}
	}
	if p.keyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		if err := p.parseGroupBy(); err != nil {
			return nil, err
		}
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, p.errf(t, "trailing input %q", t.text)
	}
	return p.q, p.buildAgg()
}

func (p *parser) parseSelectList() error {
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return err
		}
		p.selects = append(p.selects, item)
		if !p.symbol(",") {
			return nil
		}
	}
}

func (p *parser) parseSelectItem() (selectItem, error) {
	if p.symbol("*") {
		return selectItem{star: true}, nil
	}
	t := p.cur()
	if t.kind != tokIdent {
		return selectItem{}, p.errf(t, "expected select item, found %q", t.text)
	}
	switch {
	case strings.EqualFold(t.text, "sum"):
		p.pos++
		if !p.symbol("(") {
			return selectItem{}, p.errf(p.cur(), "expected ( after SUM")
		}
		c, err := p.parseColRef()
		if err != nil {
			return selectItem{}, err
		}
		if !p.symbol(")") {
			return selectItem{}, p.errf(p.cur(), "expected ) after SUM argument")
		}
		return selectItem{sum: &c}, nil
	case strings.EqualFold(t.text, "count"):
		p.pos++
		if !p.symbol("(") {
			return selectItem{}, p.errf(p.cur(), "expected ( after COUNT")
		}
		if p.symbol("*") {
			if !p.symbol(")") {
				return selectItem{}, p.errf(p.cur(), "expected ) after COUNT(*)")
			}
			return selectItem{countAll: true}, nil
		}
		if err := p.expectKeyword("distinct"); err != nil {
			return selectItem{}, err
		}
		c, err := p.parseColRef()
		if err != nil {
			return selectItem{}, err
		}
		if !p.symbol(")") {
			return selectItem{}, p.errf(p.cur(), "expected ) after COUNT(DISTINCT ...)")
		}
		return selectItem{countDistinct: &c}, nil
	}
	c, err := p.parseColRef()
	if err != nil {
		return selectItem{}, err
	}
	return selectItem{col: &c}, nil
}

func (p *parser) parseColRef() (colRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return colRef{}, p.errf(t, "expected column, found %q", t.text)
	}
	if p.symbol(".") {
		name := p.next()
		if name.kind != tokIdent {
			return colRef{}, p.errf(name, "expected column after %q.", t.text)
		}
		return colRef{alias: t.text, name: name.text, pos: t.pos}, nil
	}
	return colRef{name: t.text, pos: t.pos}, nil
}

func (p *parser) parseFrom() error {
	for {
		t := p.next()
		if t.kind != tokIdent {
			return p.errf(t, "expected table name, found %q", t.text)
		}
		tb, err := p.cat.Table(strings.ToLower(t.text))
		if err != nil {
			// Allow exact-case names too.
			tb, err = p.cat.Table(t.text)
			if err != nil {
				return p.errf(t, "unknown table %q", t.text)
			}
		}
		alias := t.text
		p.keyword("as")
		if a := p.cur(); a.kind == tokIdent && !isKeyword(a.text) {
			alias = a.text
			p.pos++
		}
		key := strings.ToLower(alias)
		if _, dup := p.aliases[key]; dup {
			return p.errf(t, "duplicate alias %q", alias)
		}
		p.aliases[key] = len(p.q.Rels)
		p.q.Rels = append(p.q.Rels, relalg.RelRef{Alias: alias, Table: tb.Name})
		p.tables = append(p.tables, tb)
		if !p.symbol(",") {
			return nil
		}
	}
}

func isKeyword(s string) bool {
	switch strings.ToLower(s) {
	case "where", "group", "by", "and", "select", "from", "as":
		return true
	}
	return false
}

// resolve turns a column reference into a relalg.ColID.
func (p *parser) resolve(c colRef) (relalg.ColID, error) {
	if c.alias != "" {
		rel, ok := p.aliases[strings.ToLower(c.alias)]
		if !ok {
			return relalg.ColID{}, fmt.Errorf("sqlmini: offset %d: unknown alias %q", c.pos, c.alias)
		}
		off, err := p.tables[rel].ColIndex(strings.ToLower(c.name))
		if err != nil {
			return relalg.ColID{}, fmt.Errorf("sqlmini: offset %d: %v", c.pos, err)
		}
		return relalg.ColID{Rel: rel, Off: off}, nil
	}
	// Unqualified: must be unambiguous across the FROM list.
	found := relalg.ColID{Rel: -1}
	for rel, tb := range p.tables {
		if off, err := tb.ColIndex(strings.ToLower(c.name)); err == nil {
			if found.Rel >= 0 {
				return relalg.ColID{}, fmt.Errorf("sqlmini: offset %d: column %q is ambiguous", c.pos, c.name)
			}
			found = relalg.ColID{Rel: rel, Off: off}
		}
	}
	if found.Rel < 0 {
		return relalg.ColID{}, fmt.Errorf("sqlmini: offset %d: unknown column %q", c.pos, c.name)
	}
	return found, nil
}

var cmpOps = map[string]relalg.CmpOp{
	"=": relalg.CmpEQ, "<>": relalg.CmpNE, "!=": relalg.CmpNE,
	"<": relalg.CmpLT, "<=": relalg.CmpLE, ">": relalg.CmpGT, ">=": relalg.CmpGE,
}

func (p *parser) parseWhere() error {
	for {
		if err := p.parseConjunct(); err != nil {
			return err
		}
		if !p.keyword("and") {
			return nil
		}
	}
}

func (p *parser) parseConjunct() error {
	lc, err := p.parseColRef()
	if err != nil {
		return err
	}
	l, err := p.resolve(lc)
	if err != nil {
		return err
	}
	opTok := p.next()
	op, ok := cmpOps[opTok.text]
	if opTok.kind != tokSymbol || !ok {
		return p.errf(opTok, "expected comparison operator, found %q", opTok.text)
	}
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return p.errf(t, "bad number %q", t.text)
		}
		p.q.Scans = append(p.q.Scans, relalg.ScanPred{Col: l, Op: op, Val: v})
		return nil
	case tokString:
		p.pos++
		v, err := p.literal(t)
		if err != nil {
			return err
		}
		p.q.Scans = append(p.q.Scans, relalg.ScanPred{Col: l, Op: op, Val: v})
		return nil
	case tokIdent:
		rc, err := p.parseColRef()
		if err != nil {
			return err
		}
		r, err := p.resolve(rc)
		if err != nil {
			return err
		}
		var off int64
		if t := p.cur(); t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			sign := int64(1)
			if t.text == "-" {
				sign = -1
			}
			p.pos++
			num := p.next()
			if num.kind != tokNumber {
				return p.errf(num, "expected integer offset, found %q", num.text)
			}
			v, err := strconv.ParseInt(num.text, 10, 64)
			if err != nil {
				return p.errf(num, "bad number %q", num.text)
			}
			off = sign * v
		}
		if l.Rel == r.Rel {
			return p.errf(opTok, "predicates within one relation are not supported")
		}
		if op == relalg.CmpEQ && off == 0 {
			p.q.Joins = append(p.q.Joins, relalg.JoinPred{L: l, R: r})
			return nil
		}
		// Non-equi (or offset) comparison: a residual filter with a
		// default selectivity estimate.
		p.q.Filters = append(p.q.Filters, relalg.FilterPred{
			L: l, R: r, Op: op, Off: off, Sel: defaultFilterSel(op),
		})
		return nil
	}
	return p.errf(t, "expected literal or column, found %q", t.text)
}

// defaultFilterSel is the selectivity a column-vs-column filter starts with,
// before feedback corrects it.
//
// Reached by: SQL that compares two columns of one relation (the parser's
// column-vs-column filter), which no workload statement does.
func defaultFilterSel(op relalg.CmpOp) float64 {
	if op == relalg.CmpEQ || op == relalg.CmpNE {
		return 0.1
	}
	return 1.0 / 3.0
}

// literal resolves a string literal: a date 'YYYY-MM-DD' or a dictionary
// word.
func (p *parser) literal(t token) (int64, error) {
	s := t.text
	if len(s) == 10 && s[4] == '-' && s[7] == '-' && p.opts.Date != nil {
		y, err1 := strconv.Atoi(s[0:4])
		m, err2 := strconv.Atoi(s[5:7])
		d, err3 := strconv.Atoi(s[8:10])
		if err1 == nil && err2 == nil && err3 == nil {
			return p.opts.Date(y, m, d), nil
		}
	}
	if p.opts.Dict != nil {
		if v, ok := p.opts.Dict[strings.ToUpper(s)]; ok {
			return v, nil
		}
	}
	return 0, p.errf(t, "cannot resolve string literal %q (no dictionary entry)", s)
}

func (p *parser) parseGroupBy() error {
	for {
		c, err := p.parseColRef()
		if err != nil {
			return err
		}
		p.groupBy = append(p.groupBy, c)
		if !p.symbol(",") {
			return nil
		}
	}
}

// buildAgg assembles the AggSpec from the select list and GROUP BY.
func (p *parser) buildAgg() error {
	var agg relalg.AggSpec
	hasAgg := false
	for _, it := range p.selects {
		switch {
		case it.sum != nil:
			c, err := p.resolve(*it.sum)
			if err != nil {
				return err
			}
			agg.Sums = append(agg.Sums, c)
			hasAgg = true
		case it.countAll:
			agg.CountAll = true
			hasAgg = true
		case it.countDistinct != nil:
			c, err := p.resolve(*it.countDistinct)
			if err != nil {
				return err
			}
			agg.CountDistinct = append(agg.CountDistinct, c)
			hasAgg = true
		case it.col != nil:
			// Validate the reference even if projection is not part
			// of the optimization problem.
			if _, err := p.resolve(*it.col); err != nil {
				return err
			}
		}
	}
	for _, c := range p.groupBy {
		col, err := p.resolve(c)
		if err != nil {
			return err
		}
		agg.GroupBy = append(agg.GroupBy, col)
		hasAgg = true
	}
	if hasAgg {
		p.q.Agg = &agg
	}
	return nil
}
