// Package catalog models the database's physical design and statistics:
// tables, columns, indexes, sort orders, and the per-column statistics (row
// counts, distincts, min/max, equi-depth histograms) that the cost model
// consumes. A table's data lives in exactly one place, the column snapshot
// of its storage.Store; rows are how data arrives (AppendRows), never how
// it is held, and a stream window is republished as columns (ResetSnapshot).
// Statistics are lazy: Analyze only records which rows they describe, and a
// column's histogram is built the first time a planner reads it (Stats) — a
// table nobody plans over pays nothing. The paper's built-in functions
// Fn_scansummary and the histogram machinery it mentions live on top of this
// package.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/storage"
)

// DefaultHistogramBuckets is the bucket count used when analyzing tables.
const DefaultHistogramBuckets = 32

// ColStats carries the optimizer-visible statistics of one column.
type ColStats struct {
	Distinct float64
	Min, Max int64
	Hist     *stats.Histogram // nil until Analyze
}

// tableStats is what one Analyze leaves behind: which rows the statistics
// describe, and the columns somebody has read since. It holds no snapshot —
// snapshots are append-only and prefix-stable, so Stats builds from the first
// rows rows of the current one and a superseded snapshot's arrays stay
// collectable.
type tableStats struct {
	rows    float64
	buckets int
	cols    []atomic.Pointer[ColStats] // nil entry: not built yet
}

// Table is a base table: schema, physical design, statistics, and the
// storage.Store that holds its data as one immutable, atomically
// republished column snapshot (see ColumnSnapshot) — what the executor scans
// as zero-copy column windows and what Analyze reads. Values are int64;
// strings and decimals are dictionary/fixed-point encoded by the workload
// generators. NewTable gives a table a store in memory; persistent
// deployments bind stores on directories with Catalog.BindDir.
type Table struct {
	Name     string
	ColNames []string

	// NumRows is the analyzed row count. It is an exported field only because
	// benchmarks/servehot.go reads it; everything else calls Rows, which is
	// ordered with Analyze.
	NumRows  float64
	Width    float64 // estimated bytes per row, for page-count costing
	Indexes  []int   // column offsets carrying an index, ascending
	SortedBy int     // column offset of the physical sort order, or -1

	// st is the last Analyze (nil before the first): readers load it and a
	// built column without locking — the planner costs index joins from
	// Stats inside every repair. statsMu serializes whoever writes NumRows,
	// replaces st or builds a column; Stats may take mu under it, never the
	// reverse.
	statsMu sync.Mutex
	st      atomic.Pointer[tableStats]

	// mu serializes the writers — AppendRows, ResetSnapshot and BindDir's
	// swap of the store — so no write lands in a store being replaced.
	// Readers never take it: they load store and read its published
	// storage.Snapshot, so none waits for an append's fsync.
	mu    sync.Mutex
	store atomic.Pointer[storage.Store]

	// dataVersion counts AppendRows and ResetSnapshot calls, and BindDir
	// sets it to a loaded directory's. It is persisted with every flush and
	// decides nothing: what derived state pins is the snapshot (Pin).
	dataVersion atomic.Uint64
}

// NewTable creates an empty table with the given schema. SortedBy defaults
// to -1 (heap organization).
func NewTable(name string, cols ...string) *Table {
	t := &Table{
		Name:     name,
		ColNames: cols,
		SortedBy: -1,
		Width:    float64(8 * len(cols)),
	}
	t.store.Store(storage.New(len(cols)))
	return t
}

// ColIndex returns the offset of the named column, or an error.
func (t *Table) ColIndex(name string) (int, error) {
	for i, c := range t.ColNames {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("catalog: table %s has no column %q", t.Name, name)
}

// MustCol is ColIndex for statically known names; it panics on a typo.
func (t *Table) MustCol(name string) int {
	i, err := t.ColIndex(name)
	if err != nil {
		panic(err)
	}
	return i
}

// AddIndex registers an index on the named column (idempotent).
func (t *Table) AddIndex(col string) {
	off := t.MustCol(col)
	for _, o := range t.Indexes {
		if o == off {
			return
		}
	}
	t.Indexes = append(t.Indexes, off)
	sort.Ints(t.Indexes)
}

// Append adds a row. The caller must Analyze afterwards to refresh stats.
// It panics on arity mismatch or a storage failure; mutation paths that
// must surface storage errors (a store on a directory) use AppendRows, and
// bulk loads batch their rows into it (every call republishes the snapshot).
func (t *Table) Append(row []int64) {
	if err := t.AppendRows([][]int64{row}); err != nil {
		panic(fmt.Sprintf("catalog: append to %s: %v", t.Name, err))
	}
}

// AppendRows adds a batch of rows through the store and bumps the data
// version. In-flight executions are unaffected: they keep reading the
// storage snapshot they captured, which appends never mutate.
func (t *Table) AppendRows(rows [][]int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.Store().Append(rows); err != nil {
		return err
	}
	t.dataVersion.Add(1)
	return nil
}

// ResetSnapshot replaces the table's content wholesale with snap — a stream
// window republished each slice — and bumps the data version. The columns
// are shared, not copied. It panics on arity mismatch. The caller must
// Analyze afterwards: statistics describe a prefix of the current content.
func (t *Table) ResetSnapshot(snap *storage.Snapshot) {
	if len(snap.Cols) != len(t.ColNames) {
		panic(fmt.Sprintf("catalog: reset %s: %d columns != schema arity %d", t.Name, len(snap.Cols), len(t.ColNames)))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Store().ResetSnapshot(snap)
	t.dataVersion.Add(1)
}

// DataVersion returns the table's data version: a counter bumped by every
// AppendRows and ResetSnapshot, persisted with each flush (FlushDir) and
// adopted from a loaded directory (BindDir). Nothing in this module decides
// by it: kept state is tied to snapshots instead (Pin, and the executor's
// scans).
func (t *Table) DataVersion() uint64 { return t.dataVersion.Load() }

// Pin is the snapshots (storage.Snapshot's Epoch and N) of a set of tables
// as read when state derived from their rows — a cached query result —
// began to be built; the state is current while Holds. The pair is the content: an append keeps the epoch and grows N, a
// reset or a store swap (BindDir) takes a new epoch, a flush republishes
// the same pair, and an empty append publishes nothing. The zero Pin pins no
// table and always holds.
//
// Record BEFORE anything the state is built from is read: the snapshots its
// scans bind, and any kept state it is built on (a cached result served
// inside it). What is read first is then never newer than the rows read
// after it; read after, it could be, and the state would be kept over rows
// it never saw.
type Pin struct {
	tabs []*Table
	at   []pinned
}

// pinned is one table's snapshot as a Pin recorded it.
type pinned struct {
	epoch uint64
	n     int
}

// NewPin pins tabs; their snapshots are read by Record.
func NewPin(tabs []*Table) Pin { return Pin{tabs: tabs, at: make([]pinned, len(tabs))} }

// stateOf reads t's current snapshot's epoch and row count.
func stateOf(t *Table) pinned {
	snap := t.Store().Snapshot()
	return pinned{snap.Epoch, snap.N}
}

// Record reads every pinned table's current snapshot.
func (p *Pin) Record() {
	for i, t := range p.tabs {
		p.at[i] = stateOf(t)
	}
}

// Holds reports whether every pinned table's snapshot still has the
// recorded epoch and row count.
func (p *Pin) Holds() bool {
	for i, t := range p.tabs {
		if stateOf(t) != p.at[i] {
			return false
		}
	}
	return true
}

// Store returns the table's store. It takes no lock.
func (t *Table) Store() *storage.Store { return t.store.Load() }

// ColumnSnapshot returns the table's data: an immutable column-major view,
// cols[c][i] being row i's value in column c for i < n. The pair is
// consistent — later appends publish new snapshots without disturbing this
// one — so it is safe to scan concurrently with mutations.
func (t *Table) ColumnSnapshot() (cols [][]int64, n int) {
	snap := t.Store().Snapshot()
	return snap.Cols, snap.N
}

// Analyze refreshes the statistics in O(1): it sets NumRows to the row count
// of the snapshot published now and forgets the column statistics built so
// far; Stats rebuilds a column over exactly those rows when a planner next
// reads it. It needs no quiescence from writers or planners — whatever is
// appended meanwhile, the statistics describe a state of the table that was
// actually published.
func (t *Table) Analyze(buckets int) {
	if buckets <= 0 {
		buckets = DefaultHistogramBuckets
	}
	n := float64(t.Store().Snapshot().N)
	t.setStats(&tableStats{rows: n, buckets: buckets, cols: make([]atomic.Pointer[ColStats], len(t.ColNames))})
}

func (t *Table) setStats(st *tableStats) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	t.NumRows = st.rows
	t.st.Store(st)
}

// Rows returns the analyzed row count (NumRows, read in order with Analyze).
func (t *Table) Rows() float64 {
	if st := t.st.Load(); st != nil {
		return st.rows
	}
	return 0
}

// Stats returns the statistics of the column at off as of the last Analyze
// (distinct count, min/max, equi-depth histogram), building them on first
// read. A never-analyzed table reports the zero ColStats, an analyzed empty
// one Distinct 1.
func (t *Table) Stats(off int) ColStats {
	st := t.st.Load()
	if st == nil {
		return ColStats{}
	}
	if cs := st.cols[off].Load(); cs != nil {
		return *cs
	}
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if cs := st.cols[off].Load(); cs != nil {
		return *cs
	}
	cs := ColStats{Distinct: 1}
	snap := t.Store().Snapshot()
	if n := min(int(st.rows), snap.N); n > 0 {
		h := stats.BuildHistogram(snap.Cols[off][:n], st.buckets)
		cs = ColStats{Distinct: h.Distinct(), Min: h.Min(), Max: h.Max(), Hist: h}
	}
	st.cols[off].Store(&cs)
	return cs
}

// ZoneCols returns the column offsets whose segment zone maps make
// predicate pruning effective on the table's store (none for a store in
// memory). The cost model prices a table scan by the rows pruning leaves.
func (t *Table) ZoneCols() []int { return t.Store().ZoneCols() }

// SetSyntheticStats configures statistics without row data, for
// optimizer-only experiments: rows, and per-column distinct counts with
// value domain [0, distinct). Histograms are built over the uniform domain.
func (t *Table) SetSyntheticStats(rows float64, distincts []int64) {
	if len(distincts) != len(t.ColNames) {
		panic("catalog: SetSyntheticStats arity mismatch")
	}
	st := &tableStats{rows: rows, cols: make([]atomic.Pointer[ColStats], len(t.ColNames))}
	for c, d := range distincts {
		if d < 1 {
			d = 1
		}
		// A compact synthetic equi-depth histogram: one bucket per
		// decile of the domain, uniform counts.
		vals := make([]int64, 0, 64)
		per := rows / 64
		if per < 1 {
			per = 1
		}
		for i := 0; i < 64; i++ {
			vals = append(vals, int64(i)*d/64)
		}
		h := stats.BuildHistogram(vals, 8)
		h.Total = rows
		for i := range h.Counts {
			h.Counts[i] = rows / float64(len(h.Counts))
			h.DistinctPerBucket[i] = float64(d) / float64(len(h.Counts))
		}
		st.cols[c].Store(&ColStats{Distinct: float64(d), Min: 0, Max: d - 1, Hist: h})
	}
	t.setStats(st)
}

// Catalog is a named collection of tables.
type Catalog struct {
	tables map[string]*Table
	order  []string
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: map[string]*Table{}}
}

// Add registers a table, replacing any previous table of the same name.
func (c *Catalog) Add(t *Table) {
	if _, ok := c.tables[t.Name]; !ok {
		c.order = append(c.order, t.Name)
	}
	c.tables[t.Name] = t
}

// Table looks a table up by name.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// MustTable is Table for statically known names.
func (c *Catalog) MustTable(name string) *Table {
	t, err := c.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Names returns the table names in registration order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// AnalyzeAll refreshes statistics on every table holding row data.
func (c *Catalog) AnalyzeAll(buckets int) {
	for _, name := range c.order {
		t := c.tables[name]
		if _, n := t.ColumnSnapshot(); n > 0 || t.Rows() == 0 {
			t.Analyze(buckets)
		}
	}
}
