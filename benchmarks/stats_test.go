package main

import (
	"math"
	"testing"
	"time"
)

func TestPositionBestDropsInterference(t *testing.T) {
	// Two clients, three positions, five rounds. Every position has a true
	// cost; position 2 of client 1 is genuinely slow every round. Four of
	// the five rounds are disturbed throughout (everything 1.5x slower, the
	// regime a per-position median cannot vote out), and each round one
	// position is hit by a 100x stall on top.
	m := newLatMatrix(5, 2, 3)
	truth := []int64{1e6, 2e6, 3e6, 4e6, 5e6, 60e6}
	for r := range m.ns {
		for i, v := range truth {
			if r != 3 {
				v = v * 3 / 2
			}
			m.ns[r][i] = v
		}
		m.ns[r][r] *= 100
	}
	best := m.positionBest(5)
	for i, want := range truth {
		if i == 3 {
			want = want * 3 / 2 // its one undisturbed round carried the stall
		}
		if got := best[i]; got != float64(want)/1e6 {
			t.Errorf("position %d: best %v ms, want %v", i, got, float64(want)/1e6)
		}
	}
	// The stalls stay visible in the pooled, un-medianed percentile.
	if raw := m.rawPercentile(5, 0.99); raw < 100 {
		t.Errorf("raw p99 %v ms lost the stalls", raw)
	}
	// Fewer rounds: only the first rounds count.
	if got := m.positionBest(1)[0]; got != 150 {
		t.Errorf("one round: position 0 best %v ms, want the stalled 150", got)
	}
}

func TestSummarize(t *testing.T) {
	// Client 0: 4 ops of 1 ms -> 1000 ops/s. Client 1: 4 ops of 4 ms -> 250.
	med := []float64{1, 1, 1, 1, 4, 4, 4, 4}
	s := summarize(med, 2)
	if math.Abs(s.opsPerS-1250) > 1e-9 {
		t.Errorf("ops/s %v, want 1250", s.opsPerS)
	}
	if s.p50ms != 2.5 {
		t.Errorf("p50 %v, want 2.5", s.p50ms)
	}
	if s.tailP != 0.5 {
		t.Errorf("8 positions cannot carry a tail percentile, got p%v", 100*s.tailP)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{4000, 0.99}, {1200, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90},
		{100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {1, 0.5},
	} {
		got := tailPercentile(c.n)
		if got != c.p {
			t.Errorf("n=%d: p%v, want p%v", c.n, 100*got, 100*c.p)
		}
		if beyond := c.n - int(math.Ceil(got*float64(c.n))); got != 0.5 && beyond < 10 {
			t.Errorf("n=%d: p%v leaves only %d positions beyond", c.n, 100*got, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", 100*c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare %v, want %v", got, want)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0].
	if got, want := iqrShare([]float64{40, 10, 20}), 30.0/20; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare %v, want %v", got, want)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median %v", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	rec := newRecorder(1)
	sb := rec.client(0)
	sb.at(0, 7)
	sb.spans = []span{
		{Name: "client.op", Start: 0, End: 100, Parent: -1, Op: 7},
		{Name: "server.exec", Start: 10, End: 90, Parent: 0, Op: 7},
		{Name: "exec.run", Start: 20, End: 80, Parent: 1, Op: 7},
		{Name: "storage.append", Start: 100, End: 150, Parent: -1, Op: -1},
	}
	want := map[string]time.Duration{"client.op": 20, "server.exec": 20, "exec.run": 60, "storage.append": 50}
	rec.eachSelf(func(s *span, self time.Duration) {
		if self != want[s.Name] {
			t.Errorf("%s: self time %d, want %d", s.Name, self, want[s.Name])
		}
		delete(want, s.Name)
	})
	if len(want) != 0 {
		t.Errorf("spans never visited: %v", want)
	}
	// Shares cover the ops' inside only: client and between-round spans out.
	shares := rec.layerShares()
	if shares["server"] != 25 || shares["exec"] != 75 || len(shares) != 2 {
		t.Errorf("shares %v, want server 25 exec 75", shares)
	}
	var nilBuf *spanBuf // tracing off: every call is a no-op
	nilBuf.at(0, 0)
	nilBuf.begin("x")
	nilBuf.child("y", 1)
	nilBuf.end()
}
