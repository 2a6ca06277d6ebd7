package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// This file holds the grace-hash spill substrate shared by the hash join and
// hash aggregation: columnar run files on disk, chunk-framed so they stream
// back as regular batches, plus the hash partitioner that routes batches to
// runs by the HIGH bits of the existing vectorized key hash. Bucket and slot
// selection in joinTable and aggTable use the LOW bits (h & mask), so rows
// within one partition still hash uniformly across a partition-local table.
//
// Run format: a sequence of chunks, each [n uint32][col0 n×int64]...[colW-1
// n×int64], little-endian. Chunks carry at most BatchSize rows, so readers
// hand out standard recycled batches. Files are created with os.CreateTemp
// and unlinked immediately; the OS reclaims them when the fd closes, even on
// a crash.
//
// Partitioning uses spillBits bits per level starting from the top of the
// 64-bit hash: level 0 routes on bits 61..63, level 1 on 58..60, and so on.
// Equal keys have equal hashes, so matching join rows and mergeable
// aggregation partials land in the same partition at every level. A
// partition that still exceeds its reservation at maxSpillLevel stops
// recursing (the skewed-key end state: few distinct hash values left): the
// hash join loads its build run chunk by chunk, re-reading the probe run per
// chunk, and the aggregation's merge is Force-charged. Both do so at once, at
// any level, for a run whose rows all share one hash (spillRun.single).

const (
	spillBits     = 3
	spillFanout   = 1 << spillBits
	maxSpillLevel = 6
)

// spillPart returns the partition of hash h at a recursion level, reading a
// disjoint bit window per level.
func spillPart(h uint64, level int) int {
	return int(h>>(64-spillBits*(level+1))) & (spillFanout - 1)
}

// spillWriter appends chunks to one partition run file.
type spillWriter struct {
	f       *os.File
	w       *bufio.Writer
	width   int
	rows    int
	bytes   int64
	scratch []byte
}

func newSpillWriter(dir string, width int) (*spillWriter, error) {
	f, err := os.CreateTemp(dir, "repro-spill-*")
	if err != nil {
		return nil, fmt.Errorf("exec: spill: %w", err)
	}
	// Unlink immediately: the run lives exactly as long as its fd.
	os.Remove(f.Name())
	return &spillWriter{f: f, w: bufio.NewWriterSize(f, 1<<14), width: width}, nil
}

// writeChunk appends the live rows of a column-major chunk as one framed
// chunk. The rows are gathered through sel into a reused scratch encode
// buffer, so callers may hand zero-copy column windows.
func (w *spillWriter) writeChunk(cols [][]int64, n int, sel []int) error {
	m := n
	if sel != nil {
		m = len(sel)
	}
	if m == 0 {
		return nil
	}
	need := 4 + m*w.width*8
	if cap(w.scratch) < need {
		w.scratch = make([]byte, need)
	}
	buf := w.scratch[:need]
	binary.LittleEndian.PutUint32(buf, uint32(m))
	off := 4
	for c := 0; c < w.width; c++ {
		col := cols[c]
		if sel == nil {
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(buf[off:], uint64(col[i]))
				off += 8
			}
		} else {
			for _, i := range sel {
				binary.LittleEndian.PutUint64(buf[off:], uint64(col[i]))
				off += 8
			}
		}
	}
	w.rows += m
	w.bytes += int64(need)
	if _, err := w.w.Write(buf); err != nil {
		return fmt.Errorf("exec: spill write: %w", err)
	}
	return nil
}

// run flushes the writer and returns the finished, readable run.
func (w *spillWriter) run() (*spillRun, error) {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return nil, fmt.Errorf("exec: spill flush: %w", err)
	}
	return &spillRun{f: w.f, width: w.width, rows: w.rows, bytes: w.bytes}, nil
}

// spillRun is a finished partition run file; it can be read back any number
// of times (the join re-reads a probe run per build chunk).
type spillRun struct {
	f      *os.File
	width  int
	rows   int
	bytes  int64
	single bool // every row has the same key hash, which no bit window splits
}

func (r *spillRun) close() {
	if r != nil && r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// reader rewinds the run and returns a chunk reader over it.
func (r *spillRun) reader() (*spillRunReader, error) {
	if _, err := r.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("exec: spill seek: %w", err)
	}
	return &spillRunReader{r: bufio.NewReaderSize(r.f, 1<<14), width: r.width}, nil
}

// spillRunReader streams a run back as recycled column-major batches —
// the standard producer contract: the batch and its columns are reused on
// the next call.
type spillRunReader struct {
	r     *bufio.Reader
	width int
	buf   []byte
	flat  []int64
	batch Batch
}

// next returns the next chunk as a batch, or nil at end of run.
func (r *spillRunReader) next() (*Batch, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, fmt.Errorf("exec: spill read: %w", err)
	}
	m := int(binary.LittleEndian.Uint32(hdr[:]))
	need := m * r.width * 8
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	if _, err := io.ReadFull(r.r, r.buf[:need]); err != nil {
		return nil, fmt.Errorf("exec: spill read: %w", err)
	}
	if cap(r.flat) < m*r.width {
		r.flat = make([]int64, m*r.width)
	}
	if r.batch.Cols == nil {
		r.batch.Cols = make([][]int64, r.width)
	}
	off := 0
	for c := 0; c < r.width; c++ {
		col := r.flat[c*m : (c+1)*m : (c+1)*m]
		for i := range col {
			col[i] = int64(binary.LittleEndian.Uint64(r.buf[off:]))
			off += 8
		}
		r.batch.Cols[c] = col
	}
	r.batch.N = m
	r.batch.Sel = nil
	return &r.batch, nil
}

// spillPartitioner fans incoming batches out to spillFanout partition runs
// by the level's hash-bit window over the key columns. It notes per run
// whether any row's hash differs from the run's first.
type spillPartitioner struct {
	level int
	keys  []int
	parts [spillFanout]*spillWriter
	sels  [spillFanout][]int
	hs    []uint64
	first [spillFanout]uint64
	mixed [spillFanout]bool
}

// newSpillPartitioner creates the fanout writers in the tracker's spill
// directory (nil tracker or unset directory = system temp).
func newSpillPartitioner(tr *MemTracker, width int, keys []int, level int) (*spillPartitioner, error) {
	s := &spillPartitioner{level: level, keys: keys}
	dir := tr.SpillDir()
	for p := range s.parts {
		w, err := newSpillWriter(dir, width)
		if err != nil {
			s.abort()
			return nil, err
		}
		s.parts[p] = w
	}
	return s, nil
}

// add routes the live rows of a column-major chunk to their partitions.
func (s *spillPartitioner) add(cols [][]int64, n int, sel []int) error {
	s.hs = hashLive(s.hs, cols, s.keys, n, sel)
	for p := range s.sels {
		s.sels[p] = s.sels[p][:0]
	}
	for k, h := range s.hs {
		i := k
		if sel != nil {
			i = sel[k]
		}
		p := spillPart(h, s.level)
		if s.parts[p].rows+len(s.sels[p]) == 0 {
			s.first[p] = h
		}
		s.mixed[p] = s.mixed[p] || h != s.first[p]
		s.sels[p] = append(s.sels[p], i)
	}
	for p, w := range s.parts {
		if len(s.sels[p]) == 0 {
			continue
		}
		if err := w.writeChunk(cols, n, s.sels[p]); err != nil {
			return err
		}
	}
	return nil
}

// finish flushes every partition and returns the runs (empty partitions
// included — callers skip zero-row runs), recording each non-empty run in
// the tracker's spill counters.
func (s *spillPartitioner) finish(tr *MemTracker) ([]*spillRun, error) {
	runs := make([]*spillRun, spillFanout)
	for p, w := range s.parts {
		r, err := w.run()
		if err != nil {
			for _, done := range runs {
				done.close()
			}
			for _, rest := range s.parts[p+1:] {
				rest.f.Close()
			}
			return nil, err
		}
		runs[p], r.single = r, !s.mixed[p]
		if r.rows > 0 {
			tr.noteSpillPartition(r.bytes)
		}
	}
	return runs, nil
}

// abort closes every partition writer without producing runs. A nil
// partitioner has none.
//
// Reached by: a spill write or read, or an input being routed, that fails —
// an injected fault path (a full or unwritable spill directory) no workload
// produces.
func (s *spillPartitioner) abort() {
	if s == nil {
		return
	}
	for _, w := range s.parts {
		if w != nil {
			w.f.Close()
		}
	}
}
