// Package catalog models the database's physical design and statistics:
// tables, columns, indexes, sort orders, and the per-column statistics (row
// counts, distincts, min/max, equi-depth histograms) that the cost model
// consumes. A table's data lives in exactly one place, the column snapshot
// of its storage.Backend; rows are how data arrives (AppendRows, ResetRows),
// never how it is held. The paper's built-in functions Fn_scansummary and
// the histogram machinery it mentions live on top of this package.
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

// Table is a base table: schema, physical design, statistics, and the
// storage.Backend that holds its data as one immutable, atomically
// republished column snapshot (see ColumnSnapshot) — what the executor scans
// as zero-copy column windows and what Analyze reads. Values are int64;
// strings and decimals are dictionary/fixed-point encoded by the workload
// generators. The default backend is a volatile MemStore, created on first
// use; persistent deployments bind a DiskStore via Catalog.BindDir.
type Table struct {
	Name     string
	ColNames []string

	NumRows  float64
	Width    float64 // estimated bytes per row, for page-count costing
	Cols     []ColStats
	Indexes  []int // column offsets carrying an index, ascending
	SortedBy int   // column offset of the physical sort order, or -1

	// mu guards the store binding and orders mutations with their version
	// bump; executions never hold it while scanning — they read an
	// immutable storage.Snapshot instead.
	mu    sync.Mutex
	store storage.Backend

	// dataVersion counts data mutations: every AppendRows and ResetRows
	// bumps it. Derived state materialized from the table's rows — cached
	// query results above all — pins the version it read and treats any
	// later value as an invalidation signal.
	dataVersion atomic.Uint64
}

// NewTable creates an empty table with the given schema. SortedBy defaults
// to -1 (heap organization).
func NewTable(name string, cols ...string) *Table {
	return &Table{
		Name:     name,
		ColNames: cols,
		Cols:     make([]ColStats, len(cols)),
		SortedBy: -1,
		Width:    float64(8 * len(cols)),
	}
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

// HasIndex reports whether the column offset carries an index.
func (t *Table) HasIndex(off int) bool {
	for _, o := range t.Indexes {
		if o == off {
			return true
		}
	}
	return false
}

// Append adds a row. The caller must Analyze afterwards to refresh stats.
// It panics on arity mismatch or a storage failure; mutation paths that
// must surface storage errors (persistent backends) use AppendRows, and
// bulk loads batch their rows into it (every call republishes the snapshot).
func (t *Table) Append(row []int64) {
	if err := t.AppendRows([][]int64{row}); err != nil {
		panic(fmt.Sprintf("catalog: append to %s: %v", t.Name, err))
	}
}

// AppendRows adds a batch of rows through the storage backend and bumps the
// data version. In-flight executions are unaffected: they keep reading the
// storage snapshot they captured, which appends never mutate.
func (t *Table) AppendRows(rows [][]int64) error {
	if err := t.checkArity(rows); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.storeLocked().Append(rows); err != nil {
		return err
	}
	t.dataVersion.Add(1)
	return nil
}

// ResetRows replaces the table's content wholesale — a stream window
// republished each slice — and bumps the data version. It panics on arity
// mismatch. The caller must Analyze afterwards to refresh stats.
func (t *Table) ResetRows(rows [][]int64) {
	if err := t.checkArity(rows); err != nil {
		panic(fmt.Sprintf("catalog: reset %s: %v", t.Name, err))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.storeLocked().ResetRows(rows)
	t.dataVersion.Add(1)
}

func (t *Table) checkArity(rows [][]int64) error {
	for _, row := range rows {
		if len(row) != len(t.ColNames) {
			return fmt.Errorf("row arity %d != schema arity %d", len(row), len(t.ColNames))
		}
	}
	return nil
}

// DataVersion returns the table's data version: a counter bumped by every
// mutation of the stored rows (AppendRows, ResetRows). Consumers of
// materialized derived state compare the version they captured at
// materialization time against the current one to detect staleness.
func (t *Table) DataVersion() uint64 { return t.dataVersion.Load() }

// Store returns the storage backend, creating the default in-memory one on
// first use.
func (t *Table) Store() storage.Backend {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.storeLocked()
}

// storeLocked is Store for callers holding t.mu.
func (t *Table) storeLocked() storage.Backend {
	if t.store == nil {
		t.store = storage.NewMemStore(len(t.ColNames))
	}
	return t.store
}

// ColumnSnapshot returns the table's data: an immutable column-major view,
// cols[c][i] being row i's value in column c for i < n. The pair is
// consistent — later appends publish new snapshots without disturbing this
// one — so it is safe to scan concurrently with mutations.
func (t *Table) ColumnSnapshot() (cols [][]int64, n int) {
	snap := t.Store().Snapshot()
	return snap.Cols, snap.N
}

// Analyze recomputes NumRows and per-column statistics (distincts, min/max,
// equi-depth histograms) from one captured snapshot, so it needs no
// quiescence from writers: whatever is appended meanwhile, the statistics
// describe a state of the table that was actually published. The statistics
// themselves are plain fields the planner reads unsynchronized: re-analyzing
// a table while statements over it are being planned is the caller's to
// coordinate.
func (t *Table) Analyze(buckets int) {
	if buckets <= 0 {
		buckets = DefaultHistogramBuckets
	}
	snap := t.Store().Snapshot()
	cols := make([]ColStats, len(t.ColNames))
	for c := range cols {
		if snap.N == 0 {
			cols[c] = ColStats{Distinct: 1}
			continue
		}
		h := stats.BuildHistogram(snap.Cols[c], buckets)
		cols[c] = ColStats{Distinct: h.Distinct(), Min: h.Min(), Max: h.Max(), Hist: h}
	}
	t.NumRows, t.Cols = float64(snap.N), cols
}

// ZoneCols returns the column offsets whose segment zone maps make
// predicate pruning effective on the bound backend (none for the in-memory
// store). The optimizer enumerates segment-pruned scans over these.
func (t *Table) ZoneCols() []int { return t.Store().ZoneCols() }

// SetSyntheticStats configures statistics without row data, for
// optimizer-only experiments: rows, and per-column distinct counts with
// value domain [0, distinct). Histograms are built over the uniform domain.
func (t *Table) SetSyntheticStats(rows float64, distincts []int64) {
	if len(distincts) != len(t.ColNames) {
		panic("catalog: SetSyntheticStats arity mismatch")
	}
	t.NumRows = rows
	t.Cols = make([]ColStats, len(t.ColNames))
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
		t.Cols[c] = ColStats{Distinct: float64(d), Min: 0, Max: d - 1, Hist: h}
	}
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
		if _, n := t.ColumnSnapshot(); n > 0 || t.NumRows == 0 {
			t.Analyze(buckets)
		}
	}
}
