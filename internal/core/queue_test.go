package core

import (
	"testing"

	"repro/internal/stats"
)

// refRankQueue is rankQueue as it stood before the bitmap: pop scans heads
// linearly upward from lo, the lowest key pushed since the queue was last
// empty. Only the rank, which push read from the task's group, is now an
// argument.
type refRankQueue struct {
	cells []task
	heads []int32
	n, lo int
}

func (q *refRankQueue) push(t task, rank uint8) {
	k := 2 * int(rank)
	switch t.kind {
	case taskReconcile:
		k++
	case taskBound:
		k = len(q.heads) - 2 - k
	case taskContrib:
		k = len(q.heads) - 1 - k
	}
	if q.n == 0 || k < q.lo {
		q.lo = k
	}
	q.n++
	t.next = q.heads[k]
	q.cells = append(q.cells, t)
	q.heads[k] = int32(len(q.cells))
}

func (q *refRankQueue) pop() (task, bool) {
	if q.n == 0 {
		q.cells = q.cells[:0]
		return task{}, false
	}
	q.n--
	for q.heads[q.lo] == 0 {
		q.lo++
	}
	t := q.cells[q.heads[q.lo]-1]
	q.heads[q.lo] = t.next
	return t, true
}

// TestRankQueueMatchesReference drives the bitmap queue and the linear-scan
// queue through the same random interleavings of pushes and pops, over every
// task kind and every rank of queries of 1 to 16 relations — from 8
// relations on, the keys span more than one bitmap word — and requires the
// same pop sequence, empties included.
func TestRankQueueMatchesReference(t *testing.T) {
	r := stats.NewRand(39)
	kinds := []taskKind{taskExpand, taskRecost, taskReconcile, taskContrib, taskBound}
	pops := 0
	for n := 1; n <= 16; n++ {
		keys := 4 * (2*n + 2)
		q := newRankQueue(keys)
		ref := refRankQueue{heads: make([]int32, keys)}
		for round := 0; round < 40; round++ {
			// Bursts of pushes and pops of random lengths, so the queue
			// both drains to empty and grows deep.
			for step, id := 0, groupID(0); step < 400; step++ {
				if r.Intn(3) != 0 {
					tk := task{g: id, kind: kinds[r.Intn(len(kinds))]}
					rank := uint8(r.Intn(2*n + 2))
					id++
					q.push(tk, rank)
					ref.push(tk, rank)
					continue
				}
				got, gok := q.pop()
				want, wok := ref.pop()
				pops++
				if gok != wok || got.g != want.g || got.kind != want.kind {
					t.Fatalf("n=%d round %d step %d: pop = %+v %v, the linear scan pops %+v %v", n, round, step, got, gok, want, wok)
				}
			}
			for {
				got, gok := q.pop()
				want, wok := ref.pop()
				pops++
				if gok != wok || got.g != want.g || got.kind != want.kind {
					t.Fatalf("n=%d round %d drain: pop = %+v %v, the linear scan pops %+v %v", n, round, got, gok, want, wok)
				}
				if !gok {
					break
				}
			}
		}
	}
	t.Logf("%d pops compared", pops)
}
