package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func row(vs ...int64) []int64 { return vs }

// transpose builds the column snapshot of non-empty row-major data.
func transpose(rows [][]int64) *Snapshot {
	snap := &Snapshot{Cols: make([][]int64, len(rows[0])), N: len(rows)}
	for c := range snap.Cols {
		for _, r := range rows {
			snap.Cols[c] = append(snap.Cols[c], r[c])
		}
	}
	return snap
}

// collect drains a scan into row-major form (arrival order of the windows).
func collect(it *SegIter, width int) [][]int64 {
	defer it.Release()
	var out [][]int64
	for {
		cols, n, ok := it.Next()
		if !ok {
			return out
		}
		for i := 0; i < n; i++ {
			r := make([]int64, width)
			for c := range cols {
				r[c] = cols[c][i]
			}
			out = append(out, r)
		}
	}
}

// sortRows orders rows lexicographically so multisets compare with
// reflect.DeepEqual.
func sortRows(rows [][]int64) {
	sort.Slice(rows, func(a, b int) bool {
		for c := range rows[a] {
			if rows[a][c] != rows[b][c] {
				return rows[a][c] < rows[b][c]
			}
		}
		return false
	})
}

// TestSnapshotEpochs: an append's snapshot carries its predecessor's epoch;
// a new store's first snapshot, a ResetSnapshot's — even to the same
// columns — and a disk store's loaded one each take an epoch no snapshot
// had, and none is 0.
func TestSnapshotEpochs(t *testing.T) {
	seen := map[uint64]bool{}
	fresh := func(label string, snap *Snapshot) {
		t.Helper()
		if snap.Epoch == 0 || seen[snap.Epoch] {
			t.Fatalf("%s: epoch %d is not new", label, snap.Epoch)
		}
		seen[snap.Epoch] = true
	}
	a, b := New(1), New(1)
	fresh("a new store", a.Snapshot())
	fresh("another new store", b.Snapshot())
	first := a.Snapshot()
	if err := a.Append([][]int64{row(1), row(2)}); err != nil {
		t.Fatal(err)
	}
	if got := a.Snapshot(); got.Epoch != first.Epoch || got.N != 2 {
		t.Fatalf("an append's snapshot: epoch %d, %d rows; want epoch %d, 2 rows", got.Epoch, got.N, first.Epoch)
	}
	a.ResetSnapshot(a.Snapshot())
	fresh("a reset to the same columns", a.Snapshot())
	dir := t.TempDir()
	d, err := Open(dir, "t", 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	fresh("a new disk store", d.Snapshot())
	if err := d.Append([][]int64{row(1)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = Open(dir, "t", 1, -1); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	fresh("a reopened disk store", d.Snapshot())
}

func TestMemStoreSnapshotIsolation(t *testing.T) {
	s := New(2)
	if err := s.Append([][]int64{row(1, 10), row(2, 20)}); err != nil {
		t.Fatal(err)
	}
	old := s.Snapshot()
	if err := s.Append([][]int64{row(3, 30)}); err != nil {
		t.Fatal(err)
	}
	if old.N != 2 {
		t.Fatalf("old snapshot N changed: %d", old.N)
	}
	if old.Cols[0][0] != 1 || old.Cols[1][1] != 20 {
		t.Fatalf("old snapshot data changed: %v", old.Cols)
	}
	now := s.Snapshot()
	if now.N != 3 || now.Cols[0][2] != 3 || now.Cols[1][2] != 30 {
		t.Fatalf("new snapshot wrong: N=%d cols=%v", now.N, now.Cols)
	}
}

func TestMemStoreConcurrentAppendScan(t *testing.T) {
	s := New(2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 500; i++ {
			if err := s.Append([][]int64{row(i, i*2)}); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		rows := collect(s.Scan(nil, 64), 2)
		for _, r := range rows {
			if r[1] != r[0]*2 {
				t.Fatalf("torn row observed: %v", r)
			}
		}
	}
	wg.Wait()
	if got := s.Snapshot().N; got != 500 {
		t.Fatalf("final N = %d, want 500", got)
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{row(3, 30), row(1, 10), row(2, 20)}
	if err := s.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(7); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, "t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LoadedVersion(); got != 7 {
		t.Fatalf("LoadedVersion = %d, want 7", got)
	}
	got := collect(s2.Scan(nil, 0), 2)
	// The flushed segment is sorted by column 0.
	if !reflect.DeepEqual(got, [][]int64{row(1, 10), row(2, 20), row(3, 30)}) {
		t.Fatalf("reloaded rows = %v", got)
	}
	if got := dirFiles(t, dir); !reflect.DeepEqual(got, []string{"MANIFEST.json", "seg-000000.seg", "wal-000001.log"}) {
		t.Fatalf("table directory after a flush holds %v", got)
	}
}

// dirFiles lists a table directory's file names, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDiskStoreOpensIndexedLayout opens a directory as the store wrote it when
// it kept ordered index segments — a manifest carrying index_cols and a
// seg-*.ixN file beside the segment: the rows load unchanged and the index
// file, which nothing reads, is gone afterwards.
func TestDiskStoreOpensIndexedLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]int64{row(3, 30), row(1, 10), row(2, 20)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(7); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(raw, []byte(`"seq":`), []byte(`"index_cols": [1], "seq":`), 1)
	if bytes.Equal(old, raw) {
		t.Fatalf("manifest has no seq field to put index_cols beside:\n%s", raw)
	}
	if err := os.WriteFile(mpath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	ix := append([]byte("REPROIX1"), make([]byte, 8+3*16)...)
	if err := os.WriteFile(filepath.Join(dir, "seg-000000.ix1"), ix, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, "t", 2, 0)
	if err != nil {
		t.Fatalf("open of the indexed layout: %v", err)
	}
	defer s2.Close()
	if got := s2.LoadedVersion(); got != 7 {
		t.Fatalf("LoadedVersion = %d, want 7", got)
	}
	if got := collect(s2.Scan(nil, 0), 2); !reflect.DeepEqual(got, [][]int64{row(1, 10), row(2, 20), row(3, 30)}) {
		t.Fatalf("rows of the indexed layout = %v", got)
	}
	if got := dirFiles(t, dir); !reflect.DeepEqual(got, []string{"MANIFEST.json", "seg-000000.seg", "wal-000001.log"}) {
		t.Fatalf("table directory after open holds %v", got)
	}
}

func TestDiskStoreWALReplayAndTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "t", 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]int64{row(1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]int64{row(2, 20), row(3, 30)}); err != nil {
		t.Fatal(err)
	}
	// No Flush: rows live only in the log.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append a truncated record.
	wal := filepath.Join(dir, walName)
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{5, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, "t", 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(s2.Scan(nil, 0), 2)
	if !reflect.DeepEqual(got, [][]int64{row(1, 10), row(2, 20), row(3, 30)}) {
		t.Fatalf("replayed rows = %v", got)
	}
	// The torn tail was truncated; appending and reloading again is clean.
	if err := s2.Append([][]int64{row(4, 40)}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, "t", 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Snapshot().N; got != 4 {
		t.Fatalf("rows after torn-tail recovery = %d, want 4", got)
	}
}

func TestDiskStoreZonePruningDifferential(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var all [][]int64
	// Several flushes build several segments with distinct key ranges, so
	// zone maps genuinely prune.
	for seg := 0; seg < 4; seg++ {
		var batch [][]int64
		for i := 0; i < 300; i++ {
			k := int64(seg*1000) + rng.Int63n(900)
			batch = append(batch, row(k, rng.Int63n(50)))
		}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(uint64(seg + 1)); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	// Plus an unflushed tail that can never be pruned.
	tail := [][]int64{row(5, 1), w2(2500, 2)}
	if err := s.Append(tail); err != nil {
		t.Fatal(err)
	}
	all = append(all, tail...)

	preds := [][]Pred{
		nil,
		{{Col: 0, Op: CmpLT, Val: 1000}},
		{{Col: 0, Op: CmpGE, Val: 3000}},
		{{Col: 0, Op: CmpEQ, Val: 2500}},
		{{Col: 0, Op: CmpGT, Val: 1500}, {Col: 0, Op: CmpLE, Val: 2200}},
		{{Col: 0, Op: CmpLT, Val: -1}},
		{{Col: 1, Op: CmpGE, Val: 25}}, // non-zone column: no pruning, still correct
	}
	for pi, ps := range preds {
		it := s.Scan(ps, 97)
		prunedRows := it.PrunedRows()
		got := collect(it, 2)
		// Apply the predicates exactly to both sides; pruning must never
		// drop a matching row.
		want := filterRows(all, ps)
		gotF := filterRows(got, ps)
		sortRows(want)
		sortRows(gotF)
		if !reflect.DeepEqual(gotF, want) {
			t.Fatalf("pred set %d: pruned scan lost/added rows (got %d want %d)", pi, len(gotF), len(want))
		}
		if len(got)+prunedRows != len(all) {
			t.Fatalf("pred set %d: scanned %d + pruned %d != total %d", pi, len(got), prunedRows, len(all))
		}
		if pi == 1 && prunedRows == 0 {
			t.Fatal("range predicate pruned nothing across disjoint segments")
		}
	}
	s.Close()
}

func w2(a, b int64) []int64 { return []int64{a, b} }

func filterRows(rows [][]int64, preds []Pred) [][]int64 {
	var out [][]int64
	for _, r := range rows {
		ok := true
		for _, p := range preds {
			v := r[p.Col]
			switch p.Op {
			case CmpEQ:
				ok = v == p.Val
			case CmpNE:
				ok = v != p.Val
			case CmpLT:
				ok = v < p.Val
			case CmpLE:
				ok = v <= p.Val
			case CmpGT:
				ok = v > p.Val
			case CmpGE:
				ok = v >= p.Val
			}
			if !ok {
				break
			}
		}
		if ok {
			out = append(out, append([]int64(nil), r...))
		}
	}
	return out
}

func TestDiskStoreResetRows(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "t", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]int64{row(1), row(2), row(3)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(1); err != nil {
		t.Fatal(err)
	}
	// Wholesale replacement; next flush rewrites.
	s.ResetSnapshot(transpose([][]int64{row(7), row(8)}))
	if err := s.Flush(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, "t", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := collect(s2.Scan(nil, 0), 1)
	if !reflect.DeepEqual(got, [][]int64{row(7), row(8)}) {
		t.Fatalf("rows after wholesale reset = %v", got)
	}
	if len(s2.Snapshot().segs) != 1 {
		t.Fatalf("expected 1 rewritten segment, have %d", len(s2.Snapshot().segs))
	}
}

// TestDiskStoreFlushCrashWindowNoDuplication simulates a crash between
// Flush publishing the new manifest and removing the superseded log: the
// old log survives on disk holding the very rows the new segment already
// covers. Replay must not duplicate them.
func TestDiskStoreFlushCrashWindowNoDuplication(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]int64{row(3, 30), row(1, 10), row(2, 20)}); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil || len(walBytes) == 0 {
		t.Fatalf("expected a populated bootstrap log: %v (%d bytes)", err, len(walBytes))
	}
	if err := s.Flush(1); err != nil {
		t.Fatal(err)
	}
	// Resurrect the superseded log with its pre-flush content, as if the
	// post-publish Remove never landed.
	if err := os.WriteFile(filepath.Join(dir, walName), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, "t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(s2.Scan(nil, 0), 2)
	if !reflect.DeepEqual(got, [][]int64{row(1, 10), row(2, 20), row(3, 30)}) {
		t.Fatalf("rows after crash-window recovery = %v (stale log replayed?)", got)
	}
	if _, err := os.Stat(filepath.Join(dir, walName)); !os.IsNotExist(err) {
		t.Fatalf("stale log not cleaned at open: %v", err)
	}
	// Appends after the flush land in the rotated, manifest-named log and
	// replay across another reboot.
	if err := s2.Append([][]int64{row(4, 40)}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, "t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Snapshot().N; got != 4 {
		t.Fatalf("rows after rotated-log replay = %d, want 4", got)
	}
}

// TestDiskStoreResetRowsSameCountNewContent covers the wholesale
// replacement that keeps the row count (a full sliding window): segments
// must be rewritten at the next flush and the old zone maps must not prune.
func TestDiskStoreResetRowsSameCountNewContent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "t", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]int64{row(1), row(2), row(3)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, "t", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2.ResetSnapshot(transpose([][]int64{row(7), row(8), row(9)}))
	// The old zones (1..3) would prune this predicate; the new rows all
	// match it.
	got := collect(s2.Scan([]Pred{{Col: 0, Op: CmpGE, Val: 7}}, 0), 1)
	if len(filterRows(got, []Pred{{Col: 0, Op: CmpGE, Val: 7}})) != 3 {
		t.Fatalf("stale zones pruned replaced rows: scan returned %v", got)
	}
	if err := s2.Flush(2); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, "t", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	rows := collect(s3.Scan(nil, 0), 1)
	if !reflect.DeepEqual(rows, [][]int64{row(7), row(8), row(9)}) {
		t.Fatalf("restart resurrected pre-reset rows: %v", rows)
	}
}

// TestDiskStoreScanConcurrentResetRows races pruned scans against
// wholesale resets (and periodic flushes). Every scan must observe one
// generation, whole: the snapshot and the segment metadata used to prune
// it are captured atomically.
func TestDiskStoreScanConcurrentResetRows(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 256
	gen := func(g int64) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = row(int64(i)+g*10000, g)
		}
		return rows
	}
	if err := s.Append(gen(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 400; k++ {
			s.ResetSnapshot(transpose(gen(int64(k % 2))))
			if k%64 == 63 {
				if err := s.Flush(uint64(k)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	preds := []Pred{{Col: 0, Op: CmpLT, Val: 5000}} // all of gen 0, none of gen 1
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		it := s.Scan(preds, 64)
		pruned := it.PrunedRows()
		got := collect(it, 2)
		if len(got)+pruned != n {
			t.Fatalf("scanned %d + pruned %d != %d", len(got), pruned, n)
		}
		match := filterRows(got, preds)
		for _, r := range match {
			if r[1] != 0 {
				t.Fatalf("generations mixed in one scan: %v", r)
			}
		}
		if len(match) != 0 && len(match) != n {
			t.Fatalf("scan lost rows of its own generation: %d of %d", len(match), n)
		}
	}
}

// whileLocked runs read with mu held, as an Append holds it across its log
// write and fsync and a Flush across its segment writes, and fails unless
// read returns within a second.
func whileLocked(t *testing.T, mu *sync.Mutex, what string, read func()) {
	t.Helper()
	mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		read()
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Errorf("%s waited for the writer's lock", what)
	}
	mu.Unlock()
	<-done
}

// TestStoreReadersNeverWait: a reader of a store — Snapshot, the
// snapshot's Ranges, Scan — never takes the writers' lock, so an append's
// fsync or a flush's segment writes never hold up a scan. The store is on a
// directory with two flushed segments and an unflushed tail, and the reads
// made under the lock must prune as they do without it.
func TestStoreReadersNeverWait(t *testing.T) {
	s, err := Open(t.TempDir(), "t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for seg := int64(0); seg < 2; seg++ {
		if err := s.Append([][]int64{row(seg*100, 1), row(seg*100+1, 2)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(uint64(seg + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append([][]int64{row(5, 3)}); err != nil {
		t.Fatal(err)
	}
	preds := []Pred{{Col: 0, Op: CmpGE, Val: 100}}
	want := []Range{{2, 5}}
	var snap *Snapshot
	whileLocked(t, &s.mu, "Snapshot", func() { snap = s.Snapshot() })
	if snap == nil || snap.N != 5 {
		t.Fatalf("Snapshot under the lock: %+v", snap)
	}
	whileLocked(t, &s.mu, "Snapshot().Ranges", func() {
		if got, pruned := s.Snapshot().Ranges(preds, nil); !reflect.DeepEqual(got, want) || pruned != 2 {
			t.Errorf("Ranges under the lock: %v, %d pruned; want %v, 2 pruned", got, pruned, want)
		}
	})
	whileLocked(t, &s.mu, "Scan", func() {
		it := s.Scan(preds, 0)
		if got := collect(it, 2); len(got) != 3 {
			t.Errorf("Scan under the lock read %d rows, want 3", len(got))
		}
	})
}
