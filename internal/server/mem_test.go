package server

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMemBudgetDifferential asserts the memory plane observes without
// participating: a server under a budget tight enough to force spilling
// produces result multisets and plan evolution identical to an unbounded
// one, while its metrics record the spill activity and a bounded peak.
func TestMemBudgetDifferential(t *testing.T) {
	const budget = 96 << 10
	free := testServer(t, Options{Parallelism: 2})
	tight := testServer(t, Options{Parallelism: 2, MemBudgetBytes: budget})

	for name := range free.opts.Named {
		st0, err := free.Session().PrepareNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		st1, err := tight.Session().PrepareNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			r0, err := st0.Exec()
			if err != nil {
				t.Fatal(err)
			}
			r1, err := st1.Exec()
			if err != nil {
				t.Fatal(err)
			}
			if !sameMultiset(multiset(r0.Rows), multiset(r1.Rows)) {
				t.Fatalf("%s: the memory budget changed the result multiset", name)
			}
			if r0.PlanVersion != r1.PlanVersion || r0.Repaired != r1.Repaired {
				t.Fatalf("%s exec %d: the memory budget changed plan evolution: v%d/%t vs v%d/%t",
					name, i, r0.PlanVersion, r0.Repaired, r1.PlanVersion, r1.Repaired)
			}
		}
	}

	m0, m1 := free.Metrics(), tight.Metrics()
	if m0.Repairs != m1.Repairs || m0.Converged != m1.Converged {
		t.Fatalf("the memory budget changed feedback totals: repairs %d vs %d, converged %d vs %d",
			m0.Repairs, m1.Repairs, m0.Converged, m1.Converged)
	}
	// Peak memory is observable on both servers — tracking is always on.
	if m0.PeakMem.Count != uint64(m0.Execs) || m0.PeakMem.Max <= 0 {
		t.Fatalf("unbounded server peak memory unobserved: %s", m0.PeakMem)
	}
	if m1.PeakMem.Count != uint64(m1.Execs) {
		t.Fatalf("budgeted server peak memory unobserved: %s", m1.PeakMem)
	}
	// At this scale with the workload's joins, the tight budget must spill.
	if m1.SpilledQueries == 0 || m1.SpillPartitions == 0 || m1.SpillBytes == 0 {
		t.Fatalf("tight budget never spilled: %+v", m1)
	}
	if m0.SpilledQueries != 0 {
		t.Fatalf("unbounded server spilled: %+v", m0)
	}
	// The strict peak <= budget bound is asserted in internal/exec, where
	// per-query Overage is visible (non-spillable operators Force past the
	// budget); here it suffices that the budget shrank the observed peak.
	if m1.PeakMem.Max >= m0.PeakMem.Max {
		t.Fatalf("budget did not reduce peak memory: %d vs unbounded %d",
			m1.PeakMem.Max, m0.PeakMem.Max)
	}
	text := m1.String()
	for _, want := range []string{"memory: peak-bytes", "spill: queries="} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics report missing %q:\n%s", want, text)
		}
	}
}

// TestMemCeilingGate fills the memory ceiling from the test (same package,
// so the gate state is reachable), proves an execution blocks on the gate,
// then drains the ceiling and asserts the waiter completes and is counted
// and traced with the "mem" queue-wait reason. Pre-filling makes the
// contention deterministic on any GOMAXPROCS.
func TestMemCeilingGate(t *testing.T) {
	const budget = 64 << 10
	srv := testServer(t, Options{
		MaxConcurrent:   8, // slots are plentiful; memory is the bottleneck
		MemBudgetBytes:  budget,
		MemCeilingBytes: budget, // one admitted query's budget fills it
		TraceEvents:     256,
	})
	sess := srv.Session()
	st, err := sess.PrepareNamed("Q3S")
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the whole ceiling, as an admitted query would.
	srv.memMu.Lock()
	srv.memInUse = budget
	srv.memMu.Unlock()

	done := make(chan error, 1)
	go func() {
		_, execErr := st.Exec()
		done <- execErr
	}()

	// The waiter registers in MemWaits as its wait begins; once it has,
	// it is provably parked inside the gate.
	deadline := time.Now().Add(10 * time.Second)
	for srv.memWaits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("execution never reached the memory gate")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("execution completed past a full ceiling: %v", err)
	default:
	}

	// Release the ceiling; the waiter must now be admitted and finish.
	srv.memMu.Lock()
	srv.memInUse = 0
	srv.memMu.Unlock()
	srv.memCond.Broadcast()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if m.MemWaits != 1 {
		t.Fatalf("MemWaits=%d, want 1", m.MemWaits)
	}
	memReasons := 0
	for _, ev := range srv.trace.Events() {
		if ev.Kind == obs.KindQueueWait && ev.Note == "mem" {
			memReasons++
			if !strings.Contains(ev.String(), "reason=mem") {
				t.Fatalf("queue-wait event does not render its reason: %s", ev.String())
			}
		}
	}
	if memReasons != 1 {
		t.Fatalf("traced %d mem-tagged queue waits, want 1", memReasons)
	}
}

func TestMemOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"negative budget", Options{MemBudgetBytes: -1}},
		{"negative ceiling", Options{MemCeilingBytes: -1}},
		{"ceiling without budget", Options{MemCeilingBytes: 1 << 20}},
		{"budget exceeds ceiling", Options{MemBudgetBytes: 2 << 20, MemCeilingBytes: 1 << 20}},
	} {
		if _, err := New(testCatalog(), tc.opts); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.opts)
		}
	}
}
