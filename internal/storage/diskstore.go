package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// DiskStore is the log-structured persistent backend. On disk a table is a
// directory holding:
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
// All reads are served from an embedded MemStore, which holds the only
// in-memory copy of the rows; the files exist to survive restarts. Flush
// compacts the unflushed tail (WAL rows plus any wholesale reset) into a new
// segment and truncates the log. Zone-map pruning stays multiset-sound even
// though segments are sorted at flush while the in-memory snapshot keeps
// arrival order: a segment's zone is the min/max of the SAME row multiset
// its in-memory span holds, so a zone that excludes a predicate excludes
// every row of the span.
type DiskStore struct {
	dir      string
	name     string
	width    int
	sortedBy int

	mem *MemStore

	mu        sync.Mutex
	wal       *os.File
	walFile   string // active log's file name, as recorded in the manifest
	walRows   int    // rows in the log (the unflushed tail), when not dirtyAll
	segs      []segMeta
	segRows   int // rows covered by segments == start of the tail span
	seq       int // next segment file number
	dirtyAll  bool
	loadedVer uint64
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

// OpenDiskStore opens (or initializes) the persistent store for one table
// under dir. Existing segments are decoded into one column snapshot sized
// from the manifest, the append log's rows after them; the store then
// serves reads at in-memory speed. sortedBy < 0 means no clustered order.
func OpenDiskStore(dir, name string, width, sortedBy int) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create table dir: %w", err)
	}
	s := &DiskStore{
		dir:      dir,
		name:     name,
		width:    width,
		sortedBy: sortedBy,
		mem:      NewMemStore(width),
	}
	walGood, err := s.load()
	if err != nil {
		return nil, err
	}
	wal, err := s.openWAL(walGood)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	return s, nil
}

// load reads the manifest, decodes its segments and then the active log's
// complete records into one exactly-sized column snapshot, and returns the
// byte length of the log's good prefix.
func (s *DiskStore) load() (walGood int64, err error) {
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
	walGood, s.walRows, err = walGoodPrefix(walPath, s.width)
	if err != nil {
		return 0, err
	}
	for _, sm := range m.Segments {
		if sm.Rows < 0 {
			return 0, fmt.Errorf("storage: segment %s: manifest says %d rows", sm.File, sm.Rows)
		}
		s.segRows += sm.Rows
	}
	// Every row's final position is known before any is read: segments in
	// manifest order, then the log's rows (the unflushed tail).
	n := s.segRows + s.walRows
	cols := make([][]int64, s.width)
	for c := range cols {
		cols[c] = make([]int64, n)
	}
	lo := 0
	for _, sm := range m.Segments {
		zones, err := readSegment(filepath.Join(s.dir, sm.File), cols, lo, sm.Rows)
		if err != nil {
			return 0, fmt.Errorf("storage: segment %s: %w", sm.File, err)
		}
		s.segs = append(s.segs, segMeta{File: sm.File, Rows: sm.Rows, zones: zones})
		lo += sm.Rows
	}
	if err := replayWAL(walPath, walGood, cols, lo); err != nil {
		return 0, err
	}
	s.mem.ResetSnapshot(&Snapshot{Cols: cols, N: n})
	return walGood, nil
}

// openWAL opens the active log for appending, truncating any torn tail
// after its good prefix first so new records never follow garbage.
func (s *DiskStore) openWAL(good int64) (*os.File, error) {
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

func (s *DiskStore) Kind() string { return "disk" }

func (s *DiskStore) Snapshot() *Snapshot { return s.mem.Snapshot() }

func (s *DiskStore) Append(rows [][]int64) error {
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
	if s.wal == nil {
		return fmt.Errorf("storage: table %s store is closed", s.name)
	}
	if err := writeWALRecord(s.wal, rows); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("storage: sync wal: %w", err)
	}
	if err := s.mem.Append(rows); err != nil {
		return err
	}
	s.walRows += len(rows)
	return nil
}

// ResetSnapshot replaces the store's content wholesale with snap — also how
// a catalog seeds a fresh directory from the table it already holds, without
// a detour through rows. Disk history no longer matches, even at the same
// row count: the next Flush rewrites everything as one segment.
func (s *DiskStore) ResetSnapshot(snap *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem.ResetSnapshot(snap)
	s.dirtyAll = true
}

func (s *DiskStore) Scan(preds []Pred, batch int) *SegIter {
	// Snapshot and segment metadata must be read atomically together: a
	// concurrent ResetSnapshot/Flush swaps both under mu, and applying one
	// generation's zone maps to the other's data could prune live rows.
	s.mu.Lock()
	snap := s.mem.Snapshot()
	segs := s.segs
	segRows := s.segRows
	dirtyAll := s.dirtyAll
	s.mu.Unlock()
	if dirtyAll || len(preds) == 0 || len(segs) == 0 {
		return newSegIter(snap, []span{{0, snap.N}}, 0, batch)
	}
	spans := make([]span, 0, len(segs)+1)
	pruned := 0
	lo := 0
	for i := range segs {
		hi := lo + segs[i].Rows
		if hi > snap.N {
			hi = snap.N
		}
		if lo >= hi {
			break
		}
		if prunes(segs[i].zones, preds) {
			pruned += hi - lo
		} else {
			spans = appendSpan(spans, span{lo, hi})
		}
		lo = hi
	}
	if segRows < snap.N {
		// The unflushed tail has no zone maps; always scan it.
		spans = appendSpan(spans, span{segRows, snap.N})
	}
	return newSegIter(snap, spans, pruned, batch)
}

// appendSpan coalesces adjacent spans so the iterator windows stay large.
func appendSpan(spans []span, sp span) []span {
	if n := len(spans); n > 0 && spans[n-1].hi == sp.lo {
		spans[n-1].hi = sp.hi
		return spans
	}
	return append(spans, sp)
}

func (s *DiskStore) ZoneCols() []int {
	if s.sortedBy < 0 {
		return nil
	}
	return []int{s.sortedBy}
}

func (s *DiskStore) LoadedVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadedVer
}

// Flush persists the unflushed tail (or, after a wholesale reset, the full
// content) as a new sorted segment, then rotates to a fresh append log and
// rewrites the manifest atomically. Replay is idempotent across the flush
// boundary because the manifest names the active log: a crash anywhere in
// Flush recovers either the old manifest + old log (flush never happened) or
// the new manifest + empty log (flush fully happened) — the compacted rows
// are never replayed twice.
func (s *DiskStore) Flush(version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("storage: table %s store is closed", s.name)
	}
	snap := s.mem.Snapshot()
	var obsolete []segMeta
	prevSegs, prevRows := s.segs, s.segRows
	if s.dirtyAll {
		// Wholesale rewrite: every existing segment is replaced below. The
		// old files are deleted only after the new manifest is published,
		// so a failed flush leaves the previous generation intact.
		obsolete = s.segs
		s.segs = nil
		s.segRows = 0
	}
	fail := func(err error) error {
		s.segs, s.segRows = prevSegs, prevRows
		return err
	}
	if s.segRows < snap.N {
		if err := s.writeSegmentLocked(snap, s.segRows, snap.N); err != nil {
			return fail(err)
		}
	}
	// Rotate: create the empty successor log before the manifest that names
	// it. Until that manifest is published, replay still pairs the old
	// manifest with the old log.
	newWalFile := fmt.Sprintf("wal-%06d.log", s.seq)
	s.seq++
	newWAL, err := os.OpenFile(filepath.Join(s.dir, newWalFile), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fail(fmt.Errorf("storage: create wal: %w", err))
	}
	abortWAL := func(err error) error {
		newWAL.Close()
		os.Remove(filepath.Join(s.dir, newWalFile))
		return fail(err)
	}
	if err := newWAL.Sync(); err != nil {
		return abortWAL(fmt.Errorf("storage: sync wal: %w", err))
	}
	// New segment and log files must be durable directory entries before
	// the manifest that references them is published.
	if err := syncDir(s.dir); err != nil {
		return abortWAL(err)
	}
	if err := s.writeManifestLocked(version, newWalFile); err != nil {
		return abortWAL(err)
	}
	s.dirtyAll = false
	for _, sm := range obsolete {
		os.Remove(filepath.Join(s.dir, sm.File))
	}
	// The old log's rows are now covered by segments; drop it. If the
	// process dies before the Remove lands, open-time cleanup deletes any
	// log the manifest no longer names.
	s.wal.Close()
	os.Remove(filepath.Join(s.dir, s.walFile))
	s.wal = newWAL
	s.walFile = newWalFile
	s.walRows = 0
	s.loadedVer = version
	return nil
}

// writeSegmentLocked flushes rows [lo, hi) of the snapshot as one segment.
// Caller holds s.mu.
func (s *DiskStore) writeSegmentLocked(snap *Snapshot, lo, hi int) error {
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
	path := filepath.Join(s.dir, base)
	zones, err := writeSegment(path, snap, perm)
	if err != nil {
		return err
	}
	s.segs = append(s.segs, segMeta{File: base, Rows: n, zones: zones})
	s.segRows = hi
	return nil
}

// writeManifestLocked replaces the manifest atomically and durably: the
// tmp file is fsynced before the rename and the directory after it, so the
// publication survives power loss, not just process death. Caller holds
// s.mu.
func (s *DiskStore) writeManifestLocked(version uint64, walFile string) error {
	m := manifest{
		Format:      manifestFormat,
		Name:        s.name,
		Width:       s.width,
		SortedBy:    s.sortedBy,
		DataVersion: version,
		Seq:         s.seq,
		Wal:         walFile,
		Segments:    s.segs,
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

func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
