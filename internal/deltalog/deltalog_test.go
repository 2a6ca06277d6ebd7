package deltalog

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// Len returns the number of distinct tuples with positive count.
func (r *Relation) Len() int {
	n := 0
	for _, rw := range r.counts {
		if rw.count > 0 {
			n++
		}
	}
	return n
}

// Count returns the multiplicity of a tuple.
func (r *Relation) Count(t Tuple) int {
	if rw, ok := r.counts[t.Key(allCols(len(t)))]; ok {
		return rw.count
	}
	return 0
}

// Update enqueues a replacement (delete old, insert new).
func (e *Engine) Update(r *Relation, old, new Tuple) {
	e.Delete(r, old)
	e.Insert(r, new)
}

// TestCountedSemantics verifies the counted-multiset behaviour of §4:
// deletions processed out of order with their insertions leave temporarily
// negative counts that converge to non-negative values.
func TestCountedSemantics(t *testing.T) {
	e := NewEngine()
	r := e.Relation("r", 1)
	e.Delete(r, Tuple{1}) // deletion first: count dips to -1
	e.Run()
	if got := r.Count(Tuple{1}); got != -1 {
		t.Fatalf("count after early deletion = %d, want -1", got)
	}
	e.Insert(r, Tuple{1})
	e.Run()
	if got := r.Count(Tuple{1}); got != 0 {
		t.Fatalf("count after converging = %d, want 0", got)
	}
	e.Insert(r, Tuple{1})
	e.Insert(r, Tuple{1})
	e.Run()
	if got := r.Count(Tuple{1}); got != 2 {
		t.Fatalf("bag count = %d, want 2", got)
	}
	if r.Len() != 1 {
		t.Fatalf("distinct positive tuples = %d, want 1", r.Len())
	}
}

// TestMapMaintainsView checks that a Map rule retracts exactly what it
// derived when the input is deleted.
func TestMapMaintainsView(t *testing.T) {
	e := NewEngine()
	in := e.Relation("in", 2)
	out := e.Relation("out", 1)
	e.Map(in, out, func(t Tuple) []Tuple {
		if t[0] > 10 {
			return []Tuple{{t[0] + t[1]}}
		}
		return nil
	})
	e.Insert(in, Tuple{20, 1})
	e.Insert(in, Tuple{5, 1})
	e.Run()
	if out.Len() != 1 || out.Count(Tuple{21}) != 1 {
		t.Fatalf("map output wrong: %v", out.Snapshot())
	}
	e.Delete(in, Tuple{20, 1})
	e.Run()
	if out.Len() != 0 {
		t.Fatalf("map output not retracted: %v", out.Snapshot())
	}
}

// joinOracle recomputes the join from relation snapshots.
func joinOracle(l, r *Relation, lc, rc int) map[string]int {
	out := map[string]int{}
	for _, lt := range l.Snapshot() {
		for _, rt := range r.Snapshot() {
			if lt[lc] == rt[rc] {
				k := lt.String() + rt.String()
				out[k]++
			}
		}
	}
	return out
}

// TestJoinIncrementalEqualsRecompute drives random insert/delete streams
// through an incremental join and compares against recomputation from
// scratch — the Gupta-Mumick-Subrahmanian delta-rule property.
func TestJoinIncrementalEqualsRecompute(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rnd := stats.NewRand(seed)
		e := NewEngine()
		l := e.Relation("l", 2)
		r := e.Relation("r", 2)
		out := e.Relation("out", 4)
		e.Join(l, r, []int{1}, []int{0}, out, func(a, b Tuple) []Tuple {
			return []Tuple{{a[0], a[1], b[0], b[1]}}
		})
		var live []Tuple
		target := map[*Relation][]Tuple{}
		for step := 0; step < 120; step++ {
			rel := l
			if rnd.Intn(2) == 0 {
				rel = r
			}
			if len(target[rel]) > 0 && rnd.Intn(3) == 0 {
				i := rnd.Intn(len(target[rel]))
				e.Delete(rel, target[rel][i])
				target[rel] = append(target[rel][:i], target[rel][i+1:]...)
			} else {
				tu := Tuple{rnd.Int64n(5), rnd.Int64n(5)}
				e.Insert(rel, tu)
				target[rel] = append(target[rel], tu)
			}
			e.Run()
			want := joinOracle(l, r, 1, 0)
			for _, ot := range out.Snapshot() {
				k := Tuple(ot[:2]).String() + Tuple(ot[2:]).String()
				if want[k] <= 0 {
					t.Fatalf("seed %d step %d: spurious output %v", seed, step, ot)
				}
				delete(want, k)
			}
			_ = live
			if len(want) != 0 {
				t.Fatalf("seed %d step %d: missing outputs %v", seed, step, want)
			}
		}
	}
}

// TestGroupMinNextBest exercises the extended min-aggregate of §4.1: when
// the minimum is deleted, the operator recovers the next-best value and
// emits an update.
func TestGroupMinNextBest(t *testing.T) {
	e := NewEngine()
	in := e.Relation("plancost", 2) // (group, cost)
	best := e.Relation("bestcost", 2)
	e.GroupExtreme(in, best, []int{0}, 1, AggMin)

	e.Insert(in, Tuple{7, 30})
	e.Insert(in, Tuple{7, 10})
	e.Insert(in, Tuple{7, 20})
	e.Run()
	if best.Count(Tuple{7, 10}) != 1 || best.Len() != 1 {
		t.Fatalf("min wrong: %v", best.Snapshot())
	}
	// Case 2 of §4.1: deleting the minimum must surface the next best.
	e.Delete(in, Tuple{7, 10})
	e.Run()
	if best.Count(Tuple{7, 20}) != 1 || best.Len() != 1 {
		t.Fatalf("next-best recovery failed: %v", best.Snapshot())
	}
	// Case 3: an update that raises the minimum.
	e.Update(in, Tuple{7, 20}, Tuple{7, 40})
	e.Run()
	if best.Count(Tuple{7, 30}) != 1 || best.Len() != 1 {
		t.Fatalf("raise-min update failed: %v", best.Snapshot())
	}
	// Case 4: an update that lowers below the current minimum.
	e.Update(in, Tuple{7, 40}, Tuple{7, 5})
	e.Run()
	if best.Count(Tuple{7, 5}) != 1 || best.Len() != 1 {
		t.Fatalf("lower-min update failed: %v", best.Snapshot())
	}
}

// TestGroupMinProperty is a testing/quick property: for random
// insert/delete streams the maintained minimum equals the recomputed one.
func TestGroupMinProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rnd := stats.NewRand(seed)
		e := NewEngine()
		in := e.Relation("in", 2)
		best := e.Relation("best", 2)
		e.GroupExtreme(in, best, []int{0}, 1, AggMin)
		var live []Tuple
		for step := 0; step < 60; step++ {
			if len(live) > 0 && rnd.Intn(3) == 0 {
				i := rnd.Intn(len(live))
				e.Delete(in, live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				tu := Tuple{rnd.Int64n(3), rnd.Int64n(50)}
				e.Insert(in, tu)
				live = append(live, tu)
			}
			e.Run()
			// oracle: min per group over live
			mins := map[int64]int64{}
			for _, tu := range live {
				if m, ok := mins[tu[0]]; !ok || tu[1] < m {
					mins[tu[0]] = tu[1]
				}
			}
			snap := best.Snapshot()
			if len(snap) != len(mins) {
				return false
			}
			for _, bt := range snap {
				if mins[bt[0]] != bt[1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTransitiveClosureIncremental maintains a recursive reachability view
// (the classic recursive-datalog example) under edge insertions and
// deletions... the engine supports recursion through a self-joining rule
// graph, evaluated to fixpoint by the queue.
func TestTransitiveClosureIncremental(t *testing.T) {
	e := NewEngine()
	edge := e.Relation("edge", 2)
	path := e.Relation("path", 2)
	// path(x,y) :- edge(x,y).
	e.Map(edge, path, func(t Tuple) []Tuple { return []Tuple{{t[0], t[1]}} })
	// path(x,z) :- path(x,y), edge(y,z).
	e.Join(path, edge, []int{1}, []int{0}, path, func(p, ed Tuple) []Tuple {
		return []Tuple{{p[0], ed[1]}}
	})

	edges := [][2]int64{{1, 2}, {2, 3}, {3, 4}}
	for _, ed := range edges {
		e.Insert(edge, Tuple{ed[0], ed[1]})
	}
	e.Run()
	if path.Count(Tuple{1, 4}) < 1 {
		t.Fatalf("closure missing 1->4: %v", path.Snapshot())
	}
	// Deleting the middle edge must retract the derived paths.
	e.Delete(edge, Tuple{2, 3})
	e.Run()
	for _, want := range [][2]int64{{1, 3}, {1, 4}, {2, 3}, {2, 4}} {
		if path.Count(Tuple{want[0], want[1]}) > 0 {
			t.Fatalf("stale path %v after deletion: %v", want, path.Snapshot())
		}
	}
	if path.Count(Tuple{1, 2}) < 1 || path.Count(Tuple{3, 4}) < 1 {
		t.Fatalf("base paths lost: %v", path.Snapshot())
	}
}
