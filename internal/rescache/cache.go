// Package rescache is the server-wide semantic result cache: materialized
// columnar outputs of hot cacheable subplans, keyed by canonical
// subexpression fingerprint (relalg.Fingerprinter). Where the statistics
// plane (internal/fbstore) shares what the workload has LEARNED about a
// subexpression, this cache shares what an execution has already COMPUTED
// for it: two structurally different queries whose plans contain
// fingerprint-equal subtrees — the same filtered dimension scan, the same
// join core — execute the shared region once and serve it from memory
// thereafter, across statements and across sessions.
//
// The cache is deliberately dumb about plans: it stores opaque column
// vectors plus the bookkeeping needed to serve them soundly, and leaves all
// plan surgery (candidate selection, probe/spool decisions, column
// permutations, cardinality replay) to internal/exec. Entries are
// column-sparse: a producer stores only the columns its query read above the
// subexpression, and a consumer is served only by an entry that holds every
// column it reads (the coverage rule, checked by the consumer's accept
// callback); a narrower entry is a miss and is replaced by the consumer's
// own materialization — last writer wins. Two mechanisms keep a stored
// result trustworthy and the store bounded:
//
//   - Invalidation: every entry pins the data version (catalog.Table's
//     mutation counter) of each base table it was materialized from. A
//     probe revalidates the pinned versions against the live catalog; any
//     mismatch deletes the entry and reports a miss — appended rows can
//     never be served stale.
//   - Byte budget: entries are sized in bytes and admitted against the
//     budget given to New with least-recently-probed eviction; an entry
//     larger than the whole budget is rejected outright. The budget is the
//     cache's only bound: an entry is held until it is evicted or
//     invalidated, however long ago it was last probed.
//
// Concurrency: one mutex guards the map, the LRU list and the counters.
// Critical sections are O(1) outside eviction; the expensive parts —
// executing, materializing, permuting — all happen outside the cache.
// Entries are immutable after Store, so a reader holding a returned *Entry
// across an eviction or invalidation keeps a consistent (merely orphaned)
// result alive until it drops the pointer.
package rescache

import (
	"container/list"
	"sync"
)

// TableVersion pins one base table's data version at materialization time.
type TableVersion struct {
	Table   string
	Version uint64
}

// Entry is one materialized subexpression result. All fields are set by the
// producer before Store and immutable afterwards.
type Entry struct {
	// Cols is the column-major result in CANONICAL column order: the member
	// relations of the subexpression in relalg.Fingerprinter.CanonicalMembers
	// order, each contributing its full base-table arity. Canonical order is
	// what makes the entry query-independent — every consumer picks these
	// headers (zero-copy) back into its own plan's schema order. The width
	// is always canonical, but only the columns the producer carried are
	// held: an absent column is nil, a held one is non-nil even when N == 0.
	Cols [][]int64
	// N is the row count (every held column has length N).
	N int
	// Cards maps the canonical fingerprint of the subtree root and of every
	// counted interior node of the PRODUCING plan to its exact observed
	// cardinality. A consumer replays these into its RunStats so the
	// adaptive feedback loop sees byte-identical cardinalities whether the
	// subtree executed or was served from cache; a consumer whose subtree
	// shape needs a fingerprint the entry lacks must treat the probe as a
	// miss.
	Cards map[string]int64
	// Versions pins the data version of every base table the result was
	// materialized from; probes revalidate them against the live catalog.
	Versions []TableVersion

	bytes int64
	elem  *list.Element // position in the cache's LRU list
	fp    string
}

// Bytes returns the entry's accounted size.
func (e *Entry) Bytes() int64 { return e.bytes }

// size computes the accounted byte cost: the payload of the held columns,
// the canonical-width header array (one slice header per column, held or
// not — for a small sparse entry this outweighs the payload), and a fixed
// per-entry overhead standing in for the struct, map and bookkeeping.
func (e *Entry) size() int64 {
	const overhead, sliceHeader = 256, 24
	held := 0
	for _, col := range e.Cols {
		if col != nil {
			held++
		}
	}
	return int64(held)*int64(e.N)*8 + int64(len(e.Cols))*sliceHeader + int64(len(e.Cards))*64 + overhead
}

// Cache is a bounded, invalidating store of materialized subexpression
// results. Safe for concurrent use.
type Cache struct {
	maxBytes int64

	mu    sync.Mutex
	m     map[string]*Entry
	lru   list.List // of *Entry, most recently probed first
	bytes int64

	hits, misses, stores     int64
	evictions, invalidations int64
}

// New builds an empty cache with a byte budget across all entries; storing
// beyond it evicts least-recently-probed entries first. maxBytes <= 0
// disables the cache entirely (Store rejects, Probe always misses).
func New(maxBytes int64) *Cache {
	return &Cache{maxBytes: maxBytes, m: map[string]*Entry{}}
}

// Enabled reports whether the cache can hold anything at all.
func (c *Cache) Enabled() bool { return c != nil && c.maxBytes > 0 }

// Probe looks the fingerprint up and revalidates the entry's pinned table
// versions through cur (current data version by table name; ok=false means
// the table is gone). It returns the entry only when every version matches
// and accept (if non-nil) approves it; a version mismatch deletes the entry
// (counted as an invalidation), while an accept rejection counts a plain
// miss and leaves the entry in place — the rejecting caller's plan shape is
// incompatible, but other consumers' may not be, and a follow-up Store
// simply replaces it.
func (c *Cache) Probe(fp string, cur func(table string) (uint64, bool), accept func(*Entry) bool) (*Entry, bool) {
	if !c.Enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.m[fp]
	if e == nil {
		c.misses++
		return nil, false
	}
	for _, v := range e.Versions {
		now, ok := cur(v.Table)
		if !ok || now != v.Version {
			c.unlinkLocked(e)
			c.invalidations++
			c.misses++
			return nil, false
		}
	}
	if accept != nil && !accept(e) {
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	return e, true
}

// MaxBytes returns the configured byte budget (0 when disabled). Producers
// use it to abandon a materialization that could never be admitted.
func (c *Cache) MaxBytes() int64 {
	if c == nil {
		return 0
	}
	return c.maxBytes
}

// Store admits a materialized entry under the fingerprint, evicting
// least-recently-probed entries until the byte budget holds. It rejects
// (returns false) when the cache is disabled or the entry alone exceeds the
// budget. Storing over an existing fingerprint replaces it — last writer
// wins; concurrent producers materialized the same logical result.
func (c *Cache) Store(fp string, e *Entry) bool {
	if !c.Enabled() || e == nil {
		return false
	}
	e.bytes = e.size()
	if e.bytes > c.maxBytes {
		return false
	}
	e.fp = fp
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.m[fp]; old != nil {
		c.unlinkLocked(old)
	}
	for c.bytes+e.bytes > c.maxBytes && c.lru.Len() > 0 {
		c.unlinkLocked(c.lru.Back().Value.(*Entry))
		c.evictions++
	}
	c.m[fp] = e
	e.elem = c.lru.PushFront(e)
	c.bytes += e.bytes
	c.stores++
	return true
}

// unlinkLocked removes e from the map, the LRU list and the byte account.
func (c *Cache) unlinkLocked(e *Entry) {
	delete(c.m, e.fp)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
}

// Metrics is a consistent snapshot of the cache counters.
type Metrics struct {
	Entries int
	Bytes   int64

	Hits          int64 // probes served from cache
	Misses        int64 // probes that found nothing servable
	Stores        int64 // entries admitted
	Evictions     int64 // entries evicted by the byte budget
	Invalidations int64 // entries dropped on a data-version mismatch
}

// Metrics snapshots the counters.
func (c *Cache) Metrics() Metrics {
	if c == nil {
		return Metrics{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metrics{
		Entries: len(c.m), Bytes: c.bytes,
		Hits: c.hits, Misses: c.misses, Stores: c.stores,
		Evictions: c.evictions, Invalidations: c.invalidations,
	}
}
