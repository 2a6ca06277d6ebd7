package exec

// Grace-hash spill for the vectorized hash join. When the build-side drain
// exceeds its memory reservation, both inputs are partitioned to disk by the
// high bits of the join-key hash and the partitions are processed one at a
// time: each partition's build rows are loaded and hashed with the exact
// same joinTable + probe kernels as the in-memory path, and its probe run is
// streamed through the same head pass and chain walk in vecHashJoinOp.Next.
// Matching rows share a key, hence a hash, hence a partition at every level,
// so every matching pair is emitted exactly once and the join's output
// multiset and cardinality counters are identical to the unbounded run.
//
// A counting join (vecHashJoinOp.counting) spills the same way, with the
// probe rows' multiplicities as one more column of the probe runs — after the
// live columns, so key offsets stand — peeled back off into Batch.Mult as a
// run is read. Each loaded partition or chunk is a counting table over its
// own build rows; a key split across chunks yields one weighted row per
// chunk, and the multiplicities still sum to the match count.
//
// A partition whose build side still exceeds the reservation is recursively
// repartitioned one hash-bit window deeper; at maxSpillLevel (few distinct
// hash bits left — the skewed-key end state) the driver falls back to
// block-chunked processing: the build run is consumed in reservation-sized
// chunks and the probe run is re-read once per chunk. Each build row lives
// in exactly one chunk, so pairs are still emitted exactly once.

// spillPair is one pending (build, probe) partition at a recursion level.
type spillPair struct {
	build, probe *spillRun
	level        int
}

// spillJoin drives partition-at-a-time probing for a spilled vecHashJoinOp.
type spillJoin struct {
	mem      *MemTracker
	lKeys    []int
	rKeys    []int
	counting bool
	shell    Batch   // counting: a probe-run batch with its last column as Mult
	ones     []int64 // counting: the multiplicities of an unweighted probe batch

	work []spillPair // LIFO: recursive sub-partitions are processed first

	cur     spillPair // partition currently being probed
	probeRd *spillRunReader
	charged int64 // bytes reserved for the loaded build table

	// chunk fallback state (cur.level == maxSpillLevel and still too big)
	chunkMode bool
	buildRd   *spillRunReader // sequential chunk source over cur.build
}

// buildBytes is the reservation needed to load and hash n build rows.
func (s *spillJoin) buildBytes(width, n int) int64 {
	return colBytes(width, n) + joinTableBytes(n, s.counting)
}

// releaseTable drops the charge of the partition table being left behind.
func (s *spillJoin) releaseTable() {
	s.mem.Release(s.charged)
	s.charged = 0
}

// nextBatch returns the next probe batch for the current partition table,
// transparently advancing across partitions, recursive repartitions and
// build chunks. It installs the partition's table into j.table before
// returning batches; nil means the spilled join is fully drained.
func (j *vecHashJoinOp) spillNextBatch() (*Batch, error) {
	s := j.spill
	for {
		if s.probeRd != nil {
			b, err := s.probeRd.next()
			if err != nil {
				return nil, err
			}
			if b != nil {
				if s.counting {
					w := b.Width() - 1
					s.shell = Batch{Cols: b.Cols[:w], N: b.N, Mult: b.Cols[w]}
					b = &s.shell
				}
				return b, nil
			}
			// Probe run exhausted for the current table.
			s.probeRd = nil
			if s.chunkMode {
				ok, err := s.loadChunk(j)
				if err != nil {
					return nil, err
				}
				if ok {
					continue
				}
				// Build run exhausted: partition done.
				s.chunkMode = false
				s.buildRd = nil
			} else {
				s.releaseTable()
			}
			j.table = nil
			s.cur.build.close()
			s.cur.probe.close()
		}
		ok, err := s.advance(j)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
	}
}

// advance pops work until a partition's table is installed (possibly after
// recursive repartitioning or entering chunk mode); false means no work
// remains.
func (s *spillJoin) advance(j *vecHashJoinOp) (bool, error) {
	for len(s.work) > 0 {
		it := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		if it.build.rows == 0 || it.probe.rows == 0 {
			it.build.close()
			it.probe.close()
			continue
		}
		need := s.buildBytes(it.build.width, it.build.rows)
		if s.mem.Reserve(need) {
			data, err := readRunAll(it.build)
			if err != nil {
				s.mem.Release(need)
				it.build.close()
				it.probe.close()
				return false, err
			}
			j.table = buildJoinTable(nil, data, s.lKeys, s.counting)
			s.charged = need
			rd, err := it.probe.reader()
			if err != nil {
				s.releaseTable()
				j.table = nil
				it.build.close()
				it.probe.close()
				return false, err
			}
			s.cur, s.probeRd = it, rd
			return true, nil
		}
		if it.level < maxSpillLevel {
			// Recursive repartition: split both runs one bit window deeper.
			s.mem.noteSpillRecursion()
			bsub, err := repartitionRun(it.build, s.lKeys, it.level+1, s.mem)
			if err == nil {
				var psub []*spillRun
				psub, err = repartitionRun(it.probe, s.rKeys, it.level+1, s.mem)
				if err != nil {
					for _, r := range bsub {
						r.close()
					}
				} else {
					for p := range bsub {
						s.work = append(s.work, spillPair{build: bsub[p], probe: psub[p], level: it.level + 1})
					}
				}
			}
			it.build.close()
			it.probe.close()
			if err != nil {
				return false, err
			}
			continue
		}
		// Chunk fallback: consume the build run in reservation-sized chunks,
		// re-reading the probe run once per chunk.
		rd, err := it.build.reader()
		if err != nil {
			it.build.close()
			it.probe.close()
			return false, err
		}
		s.cur = it
		s.chunkMode = true
		s.buildRd = rd
		// The run has rows and writeChunk frames no empty chunk, so the first
		// chunk is never empty.
		if _, err := s.loadChunk(j); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// loadChunk reads the next build chunk off s.buildRd, builds its table and
// rewinds the probe run; false means the build run is exhausted. The chunk
// is sized to the remaining budget (at least one batch — Force-charged if
// even that does not fit, recording overage rather than deadlocking).
func (s *spillJoin) loadChunk(j *vecHashJoinOp) (bool, error) {
	s.releaseTable()
	width := s.cur.build.width
	// Per-row cost upper bound: 8 bytes per column plus at most 32 bytes of
	// join-table overhead (head slots round up to 4n ints worst case, next
	// links, hashes and multiplicities are 16). One reader-batch of slack is
	// left below the budget because chunk accumulation only checks the target
	// between batches.
	rowCost := int64(width*8) + 32
	target := BatchSize
	if lim := s.mem.Limit(); lim > 0 {
		if fit := (lim-s.mem.rootUsed())/rowCost - BatchSize; fit > int64(target) {
			target = int(fit)
		}
	}
	data := newColData(width, 0)
	for data.n < target {
		b, err := s.buildRd.next()
		if err != nil {
			return false, err
		}
		if b == nil {
			break
		}
		data.appendBatch(b)
	}
	if data.n == 0 {
		return false, nil
	}
	need := s.buildBytes(width, data.n)
	if !s.mem.Reserve(need) {
		s.mem.Force(need)
	}
	s.charged = need
	j.table = buildJoinTable(nil, data, s.lKeys, s.counting)
	rd, err := s.cur.probe.reader()
	if err != nil {
		return false, err
	}
	s.probeRd = rd
	return true, nil
}

// multOf returns the multiplicity column of a probe batch: its own, or ones.
func (s *spillJoin) multOf(b *Batch) []int64 {
	if b.Mult != nil {
		return b.Mult
	}
	for len(s.ones) < b.N {
		s.ones = append(s.ones, 1)
	}
	return s.ones[:b.N]
}

// closeAll releases whatever the spilled join still holds.
func (s *spillJoin) closeAll() {
	if s == nil {
		return
	}
	s.releaseTable()
	if s.probeRd != nil || s.chunkMode {
		s.cur.build.close()
		s.cur.probe.close()
		s.probeRd = nil
		s.chunkMode = false
		s.buildRd = nil
	}
	for _, it := range s.work {
		it.build.close()
		it.probe.close()
	}
	s.work = nil
}

// openSpill finishes a budget-overflowing build: the rows drained so far
// plus the rest of the build input are partitioned to disk, then the entire
// probe input is partitioned by the same hash windows. Called from
// vecHashJoinOp.Open with the build input already open.
func (j *vecHashJoinOp) openSpill(sofar colData, pending *Batch, charged int64) error {
	s := &spillJoin{mem: j.mem, lKeys: j.lKeys, rKeys: j.rKeys, counting: j.counting}
	// The very first batch can already overflow a tiny budget, leaving the
	// drained prefix empty; the build width then comes from the batch.
	bWidth := sofar.width()
	if bWidth == 0 && pending != nil {
		bWidth = pending.Width()
	}
	bp, err := newSpillPartitioner(j.mem, bWidth, j.lKeys, 0)
	if err != nil {
		return err
	}
	// Route the already-drained prefix chunk-wise, then release its memory.
	for lo := 0; lo < sofar.n; lo += BatchSize {
		hi := lo + BatchSize
		if hi > sofar.n {
			hi = sofar.n
		}
		var w [][]int64
		w = sofar.window(w, lo, hi)
		if err := bp.add(w, hi-lo, nil); err != nil {
			bp.abort()
			return err
		}
	}
	j.mem.Release(charged)
	j.build = colData{}
	if pending != nil {
		if err := bp.add(pending.Cols, pending.N, pending.Sel); err != nil {
			bp.abort()
			return err
		}
	}
	for {
		b, err := j.left.Next()
		if err != nil {
			bp.abort()
			return err
		}
		if b == nil {
			break
		}
		if err := unweighted(b, "a hash-join build side"); err != nil {
			bp.abort()
			return err
		}
		if err := bp.add(b.Cols, b.N, b.Sel); err != nil {
			bp.abort()
			return err
		}
	}
	if err := j.left.Close(); err != nil {
		bp.abort()
		return err
	}
	bruns, err := bp.finish(j.mem)
	if err != nil {
		return err
	}
	closeRuns := func(runs []*spillRun) {
		for _, r := range runs {
			r.close()
		}
	}
	// Partition the probe side by the same level-0 hash windows.
	var pp *spillPartitioner
	fail := func(err error) error {
		if pp != nil {
			pp.abort()
		}
		closeRuns(bruns)
		return err
	}
	for {
		b, err := j.right.Next()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		cols := b.Cols
		if j.counting {
			cols = append(cols[:len(cols):len(cols)], s.multOf(b))
		} else if err := unweighted(b, "an enumerating hash join"); err != nil {
			return fail(err)
		}
		if pp == nil {
			if pp, err = newSpillPartitioner(j.mem, len(cols), j.rKeys, 0); err != nil {
				return fail(err)
			}
		}
		if err := pp.add(cols, b.N, b.Sel); err != nil {
			return fail(err)
		}
	}
	if pp == nil {
		// Empty probe input: no partitions, the join is empty.
		closeRuns(bruns)
		j.spill = s
		return nil
	}
	pruns, err := pp.finish(j.mem)
	if err != nil {
		closeRuns(bruns)
		return err
	}
	for p := range bruns {
		s.work = append(s.work, spillPair{build: bruns[p], probe: pruns[p], level: 0})
	}
	j.spill = s
	return nil
}
