package fbstore

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// LastObs returns the most recent raw observation for key (0 when never
// observed).
func (s *StatsStore) LastObs(key string) float64 {
	e := s.get(key, false)
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return 0
	}
	return e.lastObs
}

func TestFoldCumulativeAverage(t *testing.T) {
	s := New()
	if est := s.Fold("k", 10, true); est != 10 {
		t.Fatalf("first fold = %v, want 10", est)
	}
	if est := s.Fold("k", 30, true); est != 20 {
		t.Fatalf("second fold = %v, want cumulative average 20", est)
	}
	if est := s.Fold("k", 100, false); est != 100 {
		t.Fatalf("non-cumulative fold = %v, want the observation 100", est)
	}
	if got := s.LastObs("k"); got != 100 {
		t.Fatalf("LastObs = %v, want 100", got)
	}
	if got := s.LastObs("missing"); got != 0 {
		t.Fatalf("LastObs of unknown key = %v, want 0", got)
	}
}

func TestFactorRoundTrip(t *testing.T) {
	s := New()
	if f, ok := s.Factor("k"); ok || f != 1 {
		t.Fatalf("unknown key factor = %v,%v, want 1,false", f, ok)
	}
	s.SetFactor("k", 2.5)
	if f, ok := s.Factor("k"); !ok || f != 2.5 {
		t.Fatalf("factor = %v,%v, want 2.5,true", f, ok)
	}
}

func TestSnapshotExport(t *testing.T) {
	s := New()
	s.Fold("b", 4, true)
	s.Fold("b", 8, true)
	s.SetFactor("b", 1.5)
	s.Fold("a", 7, true)

	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Key != "a" || snap[1].Key != "b" {
		t.Fatalf("snapshot keys wrong: %+v", snap)
	}
	if snap[1].ObsN != 2 || snap[1].ObsAvg != 6 || snap[1].LastObs != 8 {
		t.Fatalf("snapshot state wrong: %+v", snap[1])
	}
	if !snap[1].Applied || snap[1].Factor != 1.5 {
		t.Fatalf("snapshot factor wrong: %+v", snap[1])
	}
	if snap[0].Applied || snap[0].Factor != 1 {
		t.Fatalf("unapplied entry reports a factor: %+v", snap[0])
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

// TestConcurrentFolds hammers one store from many goroutines over a mix of
// shared and private keys; cumulative sums must come out exact because folds
// are commutative. Run under -race in CI.
func TestConcurrentFolds(t *testing.T) {
	s := New()
	const goroutines = 8
	const folds = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < folds; i++ {
				s.Fold("shared", 2, true)
				s.Fold(fmt.Sprintf("private-%d", g), float64(i), true)
				s.SetFactor("shared", 2)
				if f, ok := s.Factor("shared"); !ok || f != 2 {
					t.Errorf("g%d: factor = %v,%v", g, f, ok)
					return
				}
				_ = s.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, e := range s.Snapshot() {
		if e.Key == "shared" {
			if e.ObsN != goroutines*folds || math.Abs(e.ObsAvg-2) > 1e-12 {
				t.Fatalf("shared key state: n=%v avg=%v, want n=%d avg=2",
					e.ObsN, e.ObsAvg, goroutines*folds)
			}
		}
	}
	if s.Len() != goroutines+1 {
		t.Fatalf("Len = %d, want %d", s.Len(), goroutines+1)
	}
}
