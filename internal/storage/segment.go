package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// File I/O for segments and the append log (the manifest is store.go's).
// A segment is written to a temporary name and renamed into place so readers
// never observe a partial file; the WAL is the only file appended in place,
// and its framing lets replay stop cleanly at a torn tail.

// writeSegment persists snapshot rows, in perm order, as one immutable
// column segment and returns the per-column zone maps written to its
// header.
func writeSegment(path string, snap *Snapshot, perm []int) ([]Zone, error) {
	width := len(snap.Cols)
	n := len(perm)
	zones := make([]Zone, width)
	for c, col := range snap.Cols {
		if n == 0 {
			continue
		}
		z := Zone{Min: col[perm[0]], Max: col[perm[0]]}
		for _, i := range perm[1:] {
			if v := col[i]; v < z.Min {
				z.Min = v
			} else if v > z.Max {
				z.Max = v
			}
		}
		zones[c] = z
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("storage: create segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var scratch [16]byte
	w.WriteString(segMagic)
	binary.LittleEndian.PutUint32(scratch[0:4], uint32(width))
	binary.LittleEndian.PutUint32(scratch[4:8], uint32(n))
	w.Write(scratch[:8])
	for _, z := range zones {
		binary.LittleEndian.PutUint64(scratch[0:8], uint64(z.Min))
		binary.LittleEndian.PutUint64(scratch[8:16], uint64(z.Max))
		w.Write(scratch[:16])
	}
	for _, col := range snap.Cols {
		for _, i := range perm {
			binary.LittleEndian.PutUint64(scratch[:8], uint64(col[i]))
			if _, err := w.Write(scratch[:8]); err != nil {
				break
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("storage: write segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("storage: sync segment: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("storage: close segment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("storage: publish segment: %w", err)
	}
	return zones, nil
}

// readSegment decodes a segment of n rows straight into rows [lo, lo+n) of
// the column arrays dst — the file is column-contiguous, so each column is
// one sequential read into its final place — and returns its zone maps.
func readSegment(path string, dst [][]int64, lo, n int) ([]Zone, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return nil, fmt.Errorf("read magic: %w", err)
	}
	if string(hdr[:8]) != segMagic {
		return nil, fmt.Errorf("bad magic %q", hdr[:8])
	}
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	if w := int(binary.LittleEndian.Uint32(hdr[0:4])); w != len(dst) {
		return nil, fmt.Errorf("segment width %d, want %d", w, len(dst))
	}
	if rows := int(binary.LittleEndian.Uint32(hdr[4:8])); rows != n {
		return nil, fmt.Errorf("segment holds %d rows, manifest says %d", rows, n)
	}
	zones := make([]Zone, len(dst))
	for c := range zones {
		if _, err := io.ReadFull(r, hdr[:16]); err != nil {
			return nil, fmt.Errorf("read zones: %w", err)
		}
		zones[c].Min = int64(binary.LittleEndian.Uint64(hdr[0:8]))
		zones[c].Max = int64(binary.LittleEndian.Uint64(hdr[8:16]))
	}
	buf := make([]byte, 8*1024)
	for _, col := range dst {
		if err := readInt64s(r, buf, col[lo:lo+n]); err != nil {
			return nil, fmt.Errorf("read data: %w", err)
		}
	}
	return zones, nil
}

// readInt64s fills out with little-endian values read through buf.
func readInt64s(r io.Reader, buf []byte, out []int64) error {
	for len(out) > 0 {
		want := min(len(out)*8, len(buf))
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return err
		}
		for b := 0; b < want; b += 8 {
			out[b/8] = int64(binary.LittleEndian.Uint64(buf[b : b+8]))
		}
		out = out[want/8:]
	}
	return nil
}

// writeWALRecord appends one framed batch: [u32 row count][rows × width ×
// int64], all little-endian.
func writeWALRecord(f *os.File, rows [][]int64) error {
	width := len(rows[0])
	buf := make([]byte, 4+len(rows)*width*8)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(rows)))
	off := 4
	for _, row := range rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[off:off+8], uint64(v))
			off += 8
		}
	}
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("storage: append wal: %w", err)
	}
	return nil
}

// replayWAL decodes the records in the log's first good bytes (a
// walGoodPrefix, so every record is complete) into the column arrays dst
// from row lo on. The log is row-major — rows are the ingest format — and
// this is the one place an open turns rows into columns.
func replayWAL(path string, good int64, dst [][]int64, lo int) error {
	if good == 0 {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: open wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(io.LimitReader(f, good), 1<<16)
	width := len(dst)
	var hdr [4]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("storage: read wal: %w", err)
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if cap(body) < n*width*8 {
			body = make([]byte, n*width*8)
		}
		body = body[:n*width*8]
		if _, err := io.ReadFull(r, body); err != nil {
			return fmt.Errorf("storage: read wal: %w", err)
		}
		for i := 0; i < n; i++ {
			for c := 0; c < width; c++ {
				dst[c][lo+i] = int64(binary.LittleEndian.Uint64(body[(i*width+c)*8:]))
			}
		}
		lo += n
	}
}

// walGoodPrefix returns the byte length of the longest prefix of the log
// made of complete records, and the rows it holds, so the snapshot can be
// sized before replay and a torn tail truncated before new appends.
func walGoodPrefix(path string, width int) (good int64, rows int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("storage: open wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("storage: stat wal: %w", err)
	}
	size := info.Size()
	var hdr [4]byte
	for {
		if _, err := f.ReadAt(hdr[:], good); err != nil {
			return good, rows, nil
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		rec := 4 + int64(n)*int64(width)*8
		if good+rec > size {
			return good, rows, nil
		}
		good += rec
		rows += n
	}
}
