package exec

import "errors"

// Grace-hash spill for the vectorized hash join. Under a budget, one loop,
// load, drains a build input into the operator's build columns — the build
// child at level 0, a partition's build run below it — reserving each batch's
// growth of the columns and their table (buildBytes). It ends one of three
// ways:
//
//   - Everything fits: the table is built and the probe input streams
//     through it — the probe child at level 0, the partition's probe run
//     below it.
//   - A reservation fails at a level up to maxSpillLevel: the rows drained so
//     far, the batch that did not fit and the rest of the build input are
//     routed into partition runs by the level's window of high hash bits, then
//     the probe input is routed the same way. The pairs of runs are joined one
//     at a time, recursive sub-partitions first, each build run loaded one
//     level deeper.
//   - A reservation fails past maxSpillLevel, or in a run whose rows all share
//     one hash, which no deeper bit window splits: the rows drained so far
//     become a table — a chunk — the whole probe run streams through it, and
//     loading resumes at the batch that did not fit.
//
// One loop, partition, routes both inputs at every level. Every table is
// built and probed by the same joinTable and probe kernels as the in-memory
// path. Matching rows share a key, hence a hash, hence a partition at every
// level, and each build row is in exactly one chunk, so every matching pair
// is emitted exactly once and the join's output multiset and cardinality
// counters are identical to the unbounded run's.
//
// A counting join (vecHashJoinOp.counting) spills the same way, with the
// probe rows' multiplicities as one more column of the probe runs — after the
// live columns, so key offsets stand — peeled back off into Batch.Mult as a
// run is read. Each table counts its own build rows; a key split across
// chunks yields one weighted row per chunk, and the multiplicities still sum
// to the match count.

// spillPair is one pending (build, probe) pair of partition runs and the level
// they were written at.
type spillPair struct {
	build, probe *spillRun
	level        int
}

// spillJoin is the state of a hash join whose build side overflowed its
// reservation.
type spillJoin struct {
	work    []spillPair // LIFO: recursive sub-partitions are joined first
	cur     spillPair   // the pair whose build rows are in the table
	probeRd *spillRunReader
	more    func() error // when the table is a chunk of cur's build run: loads the next
	shell   Batch        // counting: a probe batch and its multiplicities as one
	ones    []int64      // counting: the multiplicities of an unweighted probe batch
}

// load drains the build input next returns, starting with pending when it is
// not nil, into j.build and reserves each batch's growth of buildBytes. It
// ends one of the three ways the file comment lists: the table over the whole
// input, the inputs routed into partitions at level, or a chunk's table.
func (j *vecHashJoinOp) load(level int, next func() (*Batch, error), pending *Batch) error {
	j.build.reset()
	for b := pending; ; b = nil {
		var err error
		if b == nil {
			b, err = next()
		}
		if err == nil && b != nil {
			err = unweighted(b, "a hash-join build side")
		}
		if err != nil {
			return j.closeBuild(level, err)
		}
		if b == nil {
			break
		}
		grow := buildBytes(b.Width(), j.build.n+b.Len(), j.counting) - j.charged
		switch {
		case j.mem.Reserve(grow):
		case level <= maxSpillLevel:
			return j.spillAt(level, next, b)
		case j.build.n == 0:
			j.mem.Force(grow) // one batch alone overflows: the bound gives way
		default:
			j.spill.more = func() error { return j.load(level, next, b) }
			return j.install(level)
		}
		j.charged += grow
		j.build.appendBatch(b)
	}
	if err := j.closeBuild(level, nil); err != nil {
		return err
	}
	return j.install(level)
}

// closeBuild ends load's read of the build child at level 0, joining its
// Close error to err; a run is closed with its pair.
func (j *vecHashJoinOp) closeBuild(level int, err error) error {
	if level == 0 {
		err = errors.Join(err, j.left.Close())
	}
	return err
}

// install builds the table over j.build and, below level 0, rewinds the
// current pair's probe run to stream through it.
func (j *vecHashJoinOp) install(level int) error {
	j.table = buildJoinTable(j.table, j.build, j.lKeys, j.counting)
	if level == 0 {
		return nil
	}
	var err error
	j.spill.probeRd, err = j.spill.cur.probe.reader()
	return err
}

// release returns the charge of the loaded build rows and their table.
func (j *vecHashJoinOp) release() {
	j.mem.Release(j.charged)
	j.charged = 0
}

// spillAt routes the build input — the rows drained so far, then b, which did
// not fit, then the rest of next — and then the probe input into partitions
// at level, and queues the pairs with rows on both sides. The drained rows'
// charge is returned before the rest of the build input is read.
func (j *vecHashJoinOp) spillAt(level int, next func() (*Batch, error), b *Batch) error {
	var (
		w   Batch
		pos int
	)
	bruns, err := j.partition(func() (*Batch, error) {
		if d := j.build.emit(&w, &pos); d != nil {
			return d, nil
		}
		j.release()
		if d := b; d != nil {
			b = nil
			return d, nil
		}
		return next()
	}, j.lKeys, level)
	if err = j.closeBuild(level, err); err != nil {
		closeRuns(bruns)
		return err
	}
	probe := j.right.Next
	if level == 0 {
		j.spill = &spillJoin{}
		if j.counting {
			probe = j.weighed
		}
	} else {
		j.mem.noteSpillRecursion()
		rd, err := j.spill.cur.probe.reader()
		if err != nil {
			closeRuns(bruns)
			return err
		}
		probe = rd.next
	}
	pruns, err := j.partition(probe, j.rKeys, level)
	if err != nil || pruns == nil { // no probe rows: the join is empty
		closeRuns(bruns)
		return err
	}
	for p, r := range bruns {
		if r.rows > 0 && pruns[p].rows > 0 {
			j.spill.work = append(j.spill.work, spillPair{build: r, probe: pruns[p], level: level})
			continue
		}
		r.close()
		pruns[p].close()
	}
	return nil
}

// partition routes every batch next returns into spillFanout runs by the key
// hash's bit window at level: the spilled join's one routing loop, for both
// inputs at every level. It returns no runs when next returns no batch.
func (j *vecHashJoinOp) partition(next func() (*Batch, error), keys []int, level int) ([]*spillRun, error) {
	var part *spillPartitioner
	for {
		b, err := next()
		if b == nil && err == nil {
			break
		}
		if err == nil {
			err = unweighted(b, "a spilling hash join")
		}
		if err == nil && part == nil {
			part, err = newSpillPartitioner(j.mem, b.Width(), keys, level)
		}
		if err == nil {
			err = part.add(b.Cols, b.N, b.Sel)
		}
		if err != nil {
			part.abort()
			return nil, err
		}
	}
	if part == nil {
		return nil, nil
	}
	return part.finish(j.mem)
}

// weighed is a counting join's probe child as its level-0 partition reads it:
// each batch with its multiplicities appended as the last column.
func (j *vecHashJoinOp) weighed() (*Batch, error) {
	b, err := j.right.Next()
	if b == nil || err != nil {
		return nil, err
	}
	s, m := j.spill, b.Mult
	if m == nil {
		for len(s.ones) < b.N {
			s.ones = append(s.ones, 1)
		}
		m = s.ones[:b.N]
	}
	s.shell = Batch{Cols: append(b.Cols[:len(b.Cols):len(b.Cols)], m), N: b.N, Sel: b.Sel}
	return &s.shell, nil
}

// spillNextBatch returns the next probe batch of a spilled join, with the
// table it probes installed in j.table. When the current probe run ends it
// loads the next chunk of the build run or the next pair's build run; nil
// means every pair is joined.
func (j *vecHashJoinOp) spillNextBatch() (*Batch, error) {
	s := j.spill
	for {
		if s.probeRd != nil {
			b, err := s.probeRd.next()
			if b != nil && j.counting {
				w := b.Width() - 1
				s.shell = Batch{Cols: b.Cols[:w], N: b.N, Mult: b.Cols[w]}
				b = &s.shell
			}
			if b != nil || err != nil {
				return b, err
			}
			s.probeRd = nil
			j.release()
			if more := s.more; more != nil {
				s.more = nil
				if err := more(); err != nil {
					return nil, err
				}
				continue
			}
		}
		s.cur.build.close()
		s.cur.probe.close()
		if len(s.work) == 0 {
			return nil, nil
		}
		s.cur = s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		rd, err := s.cur.build.reader()
		if err != nil {
			return nil, err
		}
		level := s.cur.level + 1
		if s.cur.build.single {
			level = maxSpillLevel + 1 // no deeper bit window splits one hash
		}
		if err := j.load(level, rd.next, nil); err != nil {
			return nil, err
		}
	}
}

// close closes every run the spilled join still holds.
func (s *spillJoin) close() {
	if s == nil {
		return
	}
	s.cur.build.close()
	s.cur.probe.close()
	for _, it := range s.work {
		it.build.close()
		it.probe.close()
	}
}

// closeRuns closes runs, which may be nil.
func closeRuns(runs []*spillRun) {
	for _, r := range runs {
		r.close()
	}
}
