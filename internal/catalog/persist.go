package catalog

import (
	"fmt"
	"path/filepath"

	"repro/internal/storage"
)

// BindSummary reports what BindDir found on disk.
type BindSummary struct {
	Loaded int // tables whose rows came from disk
	Seeded int // tables that had rows in memory and an empty directory
	Rows   int // total rows loaded from disk
}

// BindDir binds every table in the catalog to a storage.Store on a
// directory under dir (one subdirectory per table). Tables with data on disk
// are served from it — the loaded snapshot REPLACES whatever the process
// generated, and the persisted data version carries over, so a restart
// serves the same data without regeneration. Tables with an empty directory
// hand the snapshot they already hold to the store; the first Flush persists
// it. Either way the table's snapshot takes a new epoch, so every Pin over
// it fails. Statistics are refreshed for loaded tables. Every store is
// opened before any table is touched: when one fails to open, the ones
// already opened are closed and the catalog is as it was.
func (c *Catalog) BindDir(dir string, buckets int) (BindSummary, error) {
	var sum BindSummary
	names := c.Names()
	stores := make([]*storage.Store, 0, len(names))
	for _, name := range names {
		t := c.tables[name]
		st, err := storage.Open(filepath.Join(dir, name), name, len(t.ColNames), t.SortedBy)
		if err != nil {
			for _, opened := range stores {
				opened.Close() // nothing was written through it
			}
			return sum, fmt.Errorf("catalog: bind %s: %w", name, err)
		}
		stores = append(stores, st)
	}
	for i, name := range names {
		t, st := c.tables[name], stores[i]
		loaded := st.Snapshot().N
		t.mu.Lock()
		if loaded == 0 {
			// Fresh directory: the next Flush writes the table out as segments.
			st.ResetSnapshot(t.Store().Snapshot())
		} else {
			// Disk wins: adopt the persisted data version with the data.
			t.dataVersion.Store(st.LoadedVersion())
		}
		t.store.Store(st)
		t.mu.Unlock()
		if loaded == 0 {
			sum.Seeded++
			continue
		}
		t.Analyze(buckets)
		sum.Loaded++
		sum.Rows += loaded
	}
	return sum, nil
}

// FlushDir persists every table's store — unflushed appends and wholesale
// resets become immutable segments stamped with the table's current data
// version — then closes the stores. A store in memory has nothing to
// persist. Call on graceful shutdown.
func (c *Catalog) FlushDir() error {
	var firstErr error
	for _, name := range c.Names() {
		t := c.tables[name]
		st := t.Store()
		if err := st.Flush(t.DataVersion()); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("catalog: flush %s: %w", name, err)
		}
		if err := st.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("catalog: close %s: %w", name, err)
		}
	}
	return firstErr
}
