package rescache

import "testing"

// fixedVersions builds a cur func over a static table→version map.
func fixedVersions(m map[string]uint64) func(string) (uint64, bool) {
	return func(table string) (uint64, bool) {
		v, ok := m[table]
		return v, ok
	}
}

func entry(n int, cols int, tables ...TableVersion) *Entry {
	e := &Entry{N: n, Cards: map[string]int64{"root": int64(n)}, Versions: tables}
	for i := 0; i < cols; i++ {
		col := make([]int64, n)
		for j := range col {
			col[j] = int64(j)
		}
		e.Cols = append(e.Cols, col)
	}
	return e
}

func TestStoreProbeRoundTrip(t *testing.T) {
	c := New(1 << 20)
	live := fixedVersions(map[string]uint64{"a": 1})
	if _, ok := c.Probe("fp", live, nil); ok {
		t.Fatal("probe hit on an empty cache")
	}
	e := entry(100, 2, TableVersion{Table: "a", Version: 1})
	if !c.Store("fp", e) {
		t.Fatal("store rejected a fitting entry")
	}
	got, ok := c.Probe("fp", live, nil)
	if !ok || got != e {
		t.Fatal("probe did not return the stored entry")
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Stores != 1 || m.Entries != 1 {
		t.Fatalf("metrics %+v, want 1 hit / 1 miss / 1 store / 1 entry", m)
	}
	if m.Bytes != e.Bytes() || e.Bytes() <= int64(100*2*8) {
		t.Fatalf("accounted %d bytes, entry %d (payload floor %d)", m.Bytes, e.Bytes(), 100*2*8)
	}
}

func TestDisabledCache(t *testing.T) {
	for _, c := range []*Cache{nil, New(0)} {
		if c.Enabled() {
			t.Fatal("disabled cache claims enabled")
		}
		if c.Store("fp", entry(1, 1)) {
			t.Fatal("disabled cache admitted an entry")
		}
		if _, ok := c.Probe("fp", fixedVersions(nil), nil); ok {
			t.Fatal("disabled cache served an entry")
		}
		if c.MaxBytes() != 0 {
			t.Fatal("disabled cache reports a budget")
		}
		_ = c.Metrics() // must not panic on nil
	}
}

func TestVersionMismatchInvalidates(t *testing.T) {
	c := New(1 << 20)
	c.Store("fp", entry(10, 1, TableVersion{Table: "a", Version: 1}))
	if _, ok := c.Probe("fp", fixedVersions(map[string]uint64{"a": 2}), nil); ok {
		t.Fatal("probe served a stale data version")
	}
	m := c.Metrics()
	if m.Invalidations != 1 || m.Entries != 0 || m.Bytes != 0 {
		t.Fatalf("metrics %+v, want the entry invalidated and unaccounted", m)
	}
	// A vanished table invalidates too.
	c.Store("fp", entry(10, 1, TableVersion{Table: "gone", Version: 1}))
	if _, ok := c.Probe("fp", fixedVersions(nil), nil); ok {
		t.Fatal("probe served an entry over a dropped table")
	}
	if m := c.Metrics(); m.Invalidations != 2 {
		t.Fatalf("invalidations=%d, want 2", m.Invalidations)
	}
}

func TestAcceptRejectionKeepsEntry(t *testing.T) {
	c := New(1 << 20)
	live := fixedVersions(map[string]uint64{"a": 1})
	c.Store("fp", entry(10, 1, TableVersion{Table: "a", Version: 1}))
	if _, ok := c.Probe("fp", live, func(*Entry) bool { return false }); ok {
		t.Fatal("probe served a rejected entry")
	}
	m := c.Metrics()
	if m.Misses != 1 || m.Entries != 1 {
		t.Fatalf("metrics %+v: rejection must miss but keep the entry", m)
	}
	if _, ok := c.Probe("fp", live, func(*Entry) bool { return true }); !ok {
		t.Fatal("entry gone after an accept rejection")
	}
}

// TestSparseEntryChargesHeldColumns: an entry keeps its canonical width but
// pays only for the payload of the columns it holds, plus one slice header
// per canonical column.
func TestSparseEntryChargesHeldColumns(t *testing.T) {
	dense, sparse := entry(100, 2), entry(100, 2)
	sparse.Cols = [][]int64{nil, sparse.Cols[0], nil, nil, sparse.Cols[1], nil}
	if got, want := sparse.size()-dense.size(), int64(4*24); got != want {
		t.Fatalf("four absent columns cost %d bytes over the dense entry, want %d (headers only)", got, want)
	}
	if got, want := entry(100, 3).size()-dense.size(), int64(100*8+24); got != want {
		t.Fatalf("a third held column costs %d bytes, want %d", got, want)
	}
}

func TestBudgetEvictsLRU(t *testing.T) {
	a := entry(100, 1)
	per := a.size()
	c := New(3 * per)
	c.Store("a", a)
	c.Store("b", entry(100, 1))
	c.Store("c", entry(100, 1))
	// Probe "a" so "b" is the least recently used.
	if _, ok := c.Probe("a", fixedVersions(nil), nil); !ok {
		t.Fatal("warm entry a missed")
	}
	c.Store("d", entry(100, 1))
	if m := c.Metrics(); m.Evictions != 1 || m.Entries != 3 || m.Bytes != 3*per {
		t.Fatalf("metrics %+v, want one eviction at 3 entries / %d bytes", m, 3*per)
	}
	if _, ok := c.Probe("b", fixedVersions(nil), nil); ok {
		t.Fatal("LRU entry b survived the budget")
	}
	for _, fp := range []string{"a", "c", "d"} {
		if _, ok := c.Probe(fp, fixedVersions(nil), nil); !ok {
			t.Fatalf("recently used entry %s was evicted", fp)
		}
	}
}

func TestOversizeRejected(t *testing.T) {
	c := New(64)
	if c.Store("big", entry(1000, 4)) {
		t.Fatal("entry larger than the whole budget was admitted")
	}
	if m := c.Metrics(); m.Stores != 0 || m.Entries != 0 {
		t.Fatalf("metrics %+v after a rejected store", m)
	}
}

func TestStoreReplacesSameFingerprint(t *testing.T) {
	c := New(1 << 20)
	c.Store("fp", entry(10, 1))
	e2 := entry(20, 1)
	c.Store("fp", e2)
	got, ok := c.Probe("fp", fixedVersions(nil), nil)
	if !ok || got != e2 {
		t.Fatal("replacement store did not win")
	}
	if m := c.Metrics(); m.Entries != 1 || m.Bytes != e2.Bytes() {
		t.Fatalf("metrics %+v, want exactly the replacement accounted", m)
	}
}
