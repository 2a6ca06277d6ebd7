package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Store holds one table's rows as an atomically published Snapshot. A store
// made by New lives in memory only; one made by Open also keeps the rows in
// a directory holding:
//
//   - MANIFEST.json — format version, schema shape, data version, the
//     ordered segment list, and the NAME of the active append log; replaced
//     atomically (tmp + rename, both fsynced) so a crash mid-flush leaves
//     the previous manifest intact.
//   - wal.log / wal-XXXXXX.log — the append log: framed row batches written
//     before they are acknowledged, replayed (tolerating a torn tail) on
//     open. Flush ROTATES to a fresh log and publishes its name in the same
//     manifest that adds the compacted segment, so replay reads either the
//     old manifest + old log or the new manifest + empty log — never the
//     compacted rows twice. Logs the manifest no longer names are deleted
//     at open.
//   - seg-XXXXXX.seg — immutable column segments: rows sorted by the
//     table's clustered column, per-column zone maps (min/max) in the
//     header, then column-contiguous little-endian int64 data.
//
// The snapshot holds the only in-memory copy of the rows; the files exist to
// survive restarts. Zone-map pruning stays multiset-sound even though
// segments are sorted at flush while the snapshot keeps arrival order: a
// segment's zone is the min/max of the SAME row multiset its span of the
// snapshot holds, so a zone that excludes a predicate excludes every row of
// the span.
//
// Appends grow the columns and publish a new snapshot; readers that loaded
// the previous one keep a consistent view because they only ever index rows
// < the N they loaded, and the atomic Store/Load pair orders the value
// writes before the new length becomes visible. When a column's backing
// array must grow, append copies it, so an old snapshot's arrays are never
// reallocated out from under a reader.
type Store struct {
	width    int
	sortedBy int // the segments' clustered column, -1 for none
	snap     atomic.Pointer[Snapshot]

	// mu serializes the writers: Append, ResetSnapshot, Flush and Close.
	// Readers never take it.
	mu sync.Mutex
	// The directory's state; dir is "" for a store made by New.
	dir       string
	name      string
	wal       *os.File // nil once closed
	walFile   string   // active log's file name, as recorded in the manifest
	seq       int      // next segment or log file number
	loadedVer uint64
}

// New returns an empty store of the given column count, held in memory
// only.
func New(width int) *Store {
	s := &Store{width: width, sortedBy: -1}
	s.snap.Store(&Snapshot{Cols: make([][]int64, width), Epoch: newEpoch()})
	return s
}

// segMeta is one segment's manifest entry plus its loaded zone maps.
type segMeta struct {
	File  string `json:"file"`
	Rows  int    `json:"rows"`
	zones []Zone
}

type manifest struct {
	Format      int       `json:"format"`
	Name        string    `json:"name"`
	Width       int       `json:"width"`
	SortedBy    int       `json:"sorted_by"`
	DataVersion uint64    `json:"data_version"`
	Seq         int       `json:"seq"`
	Wal         string    `json:"wal,omitempty"`
	Segments    []segMeta `json:"segments"`
}

const (
	manifestFormat = 1
	manifestName   = "MANIFEST.json"
	walName        = "wal.log" // bootstrap log name, before the first flush rotates
	segMagic       = "REPROSG1"
)

// Open opens (or initializes) the store of one table in dir. Existing
// segments are decoded into one column snapshot sized from the manifest,
// the append log's rows after them; the store then serves reads at
// in-memory speed. sortedBy < 0 means no clustered order.
func Open(dir, name string, width, sortedBy int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create table dir: %w", err)
	}
	s := &Store{dir: dir, name: name, width: width, sortedBy: sortedBy}
	walGood, err := s.load()
	if err != nil {
		return nil, err
	}
	if s.wal, err = s.openWAL(walGood); err != nil {
		return nil, err
	}
	return s, nil
}

// load reads the manifest, decodes its segments and then the active log's
// complete records into one exactly-sized column snapshot, and returns the
// byte length of the log's good prefix.
func (s *Store) load() (walGood int64, err error) {
	var m manifest
	raw, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh directory, or a crash before the first flush: nothing but
		// (possibly) a log to replay.
	case err != nil:
		return 0, fmt.Errorf("storage: read manifest: %w", err)
	default:
		if err := json.Unmarshal(raw, &m); err != nil {
			return 0, fmt.Errorf("storage: parse manifest: %w", err)
		}
		if m.Format != manifestFormat {
			return 0, fmt.Errorf("storage: manifest format %d not supported", m.Format)
		}
		if m.Width != s.width {
			return 0, fmt.Errorf("storage: table %s has %d columns on disk, %d in schema", s.name, m.Width, s.width)
		}
	}
	s.loadedVer = m.DataVersion
	s.seq = m.Seq
	s.walFile = m.Wal
	if s.walFile == "" {
		// Fresh directory, or a crash before the first flush: the bootstrap
		// log is the active one.
		s.walFile = walName
	}
	// Drop logs the manifest no longer names — a crash between publishing a
	// rotated manifest and removing the superseded log leaves the old file
	// behind; replaying it would duplicate the rows Flush just compacted.
	stale, _ := filepath.Glob(filepath.Join(s.dir, "wal*.log"))
	for _, p := range stale {
		if filepath.Base(p) != s.walFile {
			os.Remove(p)
		}
	}
	// Index segments an earlier version of this store wrote beside its
	// segments; nothing reads them.
	stale, _ = filepath.Glob(filepath.Join(s.dir, "seg-*.ix*"))
	for _, p := range stale {
		os.Remove(p)
	}
	walPath := filepath.Join(s.dir, s.walFile)
	walGood, n, err := walGoodPrefix(walPath, s.width)
	if err != nil {
		return 0, err
	}
	for _, sm := range m.Segments {
		if sm.Rows < 0 {
			return 0, fmt.Errorf("storage: segment %s: manifest says %d rows", sm.File, sm.Rows)
		}
		n += sm.Rows
	}
	// Every row's final position is known before any is read: segments in
	// manifest order, then the log's rows (the unflushed tail).
	cols := make([][]int64, s.width)
	for c := range cols {
		cols[c] = make([]int64, n)
	}
	lo := 0
	for i := range m.Segments {
		sm := &m.Segments[i]
		if sm.zones, err = readSegment(filepath.Join(s.dir, sm.File), cols, lo, sm.Rows); err != nil {
			return 0, fmt.Errorf("storage: segment %s: %w", sm.File, err)
		}
		lo += sm.Rows
	}
	if err := replayWAL(walPath, walGood, cols, lo); err != nil {
		return 0, err
	}
	s.snap.Store(&Snapshot{Cols: cols, N: n, Epoch: newEpoch(), segs: slices.Clip(m.Segments)})
	return walGood, nil
}

// openWAL opens the active log for appending, truncating any torn tail
// after its good prefix first so new records never follow garbage.
func (s *Store) openWAL(good int64) (*os.File, error) {
	path := filepath.Join(s.dir, s.walFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: truncate wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: sync wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: seek wal: %w", err)
	}
	// The file (and any stale-log removal) must be durable in the directory
	// before the first append is acknowledged.
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Snapshot returns the current snapshot. It takes no lock.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Append adds rows (each row's length must equal the store's width) and
// publishes them in a new snapshot of the same epoch; a store on a
// directory first writes them to its log and syncs it.
func (s *Store) Append(rows [][]int64) error {
	if len(rows) == 0 {
		return nil
	}
	for _, r := range rows {
		if len(r) != s.width {
			return fmt.Errorf("storage: append row has %d values, table has %d columns", len(r), s.width)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir != "" {
		if s.wal == nil {
			return fmt.Errorf("storage: table %s store is closed", s.name)
		}
		if err := writeWALRecord(s.wal, rows); err != nil {
			return err
		}
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("storage: sync wal: %w", err)
		}
	}
	old := s.snap.Load()
	n := old.N + len(rows)
	cols := make([][]int64, s.width)
	for c := range cols {
		col := old.Cols[c]
		if cap(col) < n {
			// Grow with headroom by copying, never by reallocating the
			// array an older snapshot may still be reading.
			grown := make([]int64, old.N, growCap(old.N, n))
			copy(grown, col[:old.N])
			col = grown
		}
		col = col[:old.N]
		for _, r := range rows {
			col = append(col, r[c])
		}
		cols[c] = col
	}
	s.snap.Store(&Snapshot{Cols: cols, N: n, Epoch: old.Epoch, segs: old.segs})
	return nil
}

// growCap picks the capacity for growth to need: a quarter of headroom, not
// a doubling. The snapshot is the only copy of the table, so the slack a
// growth leaves behind is resident for as long as the table is; 25 % keeps
// appends amortized (a column is copied once per ~have/4 appended rows)
// without holding a loaded table at twice its size after its first append.
func growCap(have, need int) int {
	return max(need, have+have/4, 64)
}

// ResetSnapshot replaces the store's content wholesale with snap's first N
// rows — a stream window republished each slice, or the table a catalog
// seeds a fresh directory with. The columns are shared, not copied: the
// caller must never write to rows < snap.N of them again (their capacity is
// clipped, so the store's own appends copy rather than write into arrays it
// does not own). The new content starts a new epoch and has no zone maps;
// on a directory the next Flush rewrites every segment as one.
func (s *Store) ResetSnapshot(snap *Snapshot) {
	cols := make([][]int64, s.width)
	for c := range cols {
		cols[c] = snap.Cols[c][:snap.N:snap.N]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap.Store(&Snapshot{Cols: cols, N: snap.N, Epoch: newEpoch()})
}

// Scan returns a pooled batch iterator over the current snapshot's rows,
// pruned by the predicates where its zone maps allow (Snapshot.Ranges),
// yielding zero-copy column windows of at most batch rows (batch <= 0 uses
// a default). Callers must Release the iterator when done.
func (s *Store) Scan(preds []Pred, batch int) *SegIter {
	it := segIterPool.Get().(*SegIter)
	snap := s.Snapshot()
	spans, pruned := snap.Ranges(preds, it.spans)
	return it.reset(snap, spans, pruned, batch)
}

// ZoneCols returns the column offsets whose segment zone maps make
// predicate pruning effective — the clustered column of a store on a
// directory — or nil. The cost model prices a table scan by the fraction
// of rows pruning on these leaves it.
func (s *Store) ZoneCols() []int {
	if s.sortedBy < 0 {
		return nil
	}
	return []int{s.sortedBy}
}

// LoadedVersion reports the data version persisted at the last Flush (0 for
// a fresh directory or a store in memory).
func (s *Store) LoadedVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadedVer
}

// Flush persists the rows no segment holds yet — the unflushed tail, or
// after a wholesale reset the whole content — as a new sorted segment,
// records version in the manifest, rotates to a fresh append log, and
// republishes the same columns, N and epoch with the new segment's zone
// maps. Replay is idempotent across the flush boundary because the manifest
// names the active log: a crash anywhere in Flush recovers either the old
// manifest + old log (flush never happened) or the new manifest + empty log
// (flush fully happened) — the compacted rows are never replayed twice. A
// no-op for a store in memory.
func (s *Store) Flush(version uint64) error {
	if s.dir == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("storage: table %s store is closed", s.name)
	}
	snap := s.snap.Load()
	segs, lo := slices.Clip(snap.segs), 0
	for _, sm := range segs {
		lo += sm.Rows
	}
	if lo < snap.N {
		sm, err := s.compact(snap, lo, snap.N)
		if err != nil {
			return err
		}
		segs = append(segs, sm)
	}
	// Rotate: create the empty successor log before the manifest that names
	// it. Until that manifest is published, replay still pairs the old
	// manifest with the old log.
	newWalFile := fmt.Sprintf("wal-%06d.log", s.seq)
	s.seq++
	newWAL, err := os.OpenFile(filepath.Join(s.dir, newWalFile), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create wal: %w", err)
	}
	abortWAL := func(err error) error {
		newWAL.Close()
		os.Remove(filepath.Join(s.dir, newWalFile))
		return err
	}
	if err := newWAL.Sync(); err != nil {
		return abortWAL(fmt.Errorf("storage: sync wal: %w", err))
	}
	// New segment and log files must be durable directory entries before
	// the manifest that references them is published.
	if err := syncDir(s.dir); err != nil {
		return abortWAL(err)
	}
	if err := s.writeManifestLocked(version, newWalFile, segs); err != nil {
		return abortWAL(err)
	}
	// Segments the manifest no longer names — a reset's superseded
	// generation, a failed flush's leftover — are garbage now.
	files, _ := filepath.Glob(filepath.Join(s.dir, "seg-*.seg"))
	for _, p := range files {
		if !slices.ContainsFunc(segs, func(sm segMeta) bool { return sm.File == filepath.Base(p) }) {
			os.Remove(p)
		}
	}
	// The old log's rows are now covered by segments; drop it. If the
	// process dies before the Remove lands, open-time cleanup deletes any
	// log the manifest no longer names.
	s.wal.Close()
	os.Remove(filepath.Join(s.dir, s.walFile))
	s.wal = newWAL
	s.walFile = newWalFile
	s.loadedVer = version
	s.snap.Store(&Snapshot{Cols: snap.Cols, N: snap.N, Epoch: snap.Epoch, segs: segs})
	return nil
}

// compact writes rows [lo, hi) of the snapshot as one segment and returns
// its manifest entry. Caller holds s.mu.
func (s *Store) compact(snap *Snapshot, lo, hi int) (segMeta, error) {
	n := hi - lo
	// Materialize the segment's rows sorted by the clustered column (stable,
	// so equal keys keep arrival order).
	perm := make([]int, n)
	for i := range perm {
		perm[i] = lo + i
	}
	if s.sortedBy >= 0 && s.sortedBy < s.width {
		key := snap.Cols[s.sortedBy]
		sort.SliceStable(perm, func(a, b int) bool { return key[perm[a]] < key[perm[b]] })
	}
	base := fmt.Sprintf("seg-%06d.seg", s.seq)
	s.seq++
	zones, err := writeSegment(filepath.Join(s.dir, base), snap, perm)
	if err != nil {
		return segMeta{}, err
	}
	return segMeta{File: base, Rows: n, zones: zones}, nil
}

// writeManifestLocked replaces the manifest atomically and durably: the
// tmp file is fsynced before the rename and the directory after it, so the
// publication survives power loss, not just process death. Caller holds
// s.mu.
func (s *Store) writeManifestLocked(version uint64, walFile string, segs []segMeta) error {
	m := manifest{
		Format:      manifestFormat,
		Name:        s.name,
		Width:       s.width,
		SortedBy:    s.sortedBy,
		DataVersion: version,
		Seq:         s.seq,
		Wal:         walFile,
		Segments:    segs,
	}
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("storage: encode manifest: %w", err)
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: create manifest: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: close manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: publish manifest: %w", err)
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so renames and file creations within it are
// durable, not merely ordered.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	return nil
}

// Close releases the store's log file without flushing; later appends and
// flushes fail. A no-op for a store in memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
