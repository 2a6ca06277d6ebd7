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
	free := testServer(t, Options{})
	tight := testServer(t, Options{MemBudgetBytes: budget})

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
			r0, rows0, err := execRows(st0)
			if err != nil {
				t.Fatal(err)
			}
			r1, rows1, err := execRows(st1)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMultiset(multiset(rows0), multiset(rows1)) {
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

// TestAdmissionGate fills the one admission semaphore from the test (same
// package, so the slots are reachable), proves an execution blocks on it and
// is counted as a queue wait, then frees a slot and asserts the waiter
// completes. Filling the slots makes the contention deterministic on any
// GOMAXPROCS. Serial executions afterwards always find a free slot, so they
// add no queue wait, though the wait histogram observes each of them.
func TestAdmissionGate(t *testing.T) {
	const slots = 2
	srv := testServer(t, Options{MaxConcurrent: slots, MemBudgetBytes: 64 << 10, TraceEvents: 256})
	st, err := srv.Session().PrepareNamed("Q3S")
	if err != nil {
		t.Fatal(err)
	}

	// Occupy every slot, as admitted queries would.
	for i := 0; i < slots; i++ {
		srv.sem <- struct{}{}
	}
	done := make(chan error, 1)
	go func() {
		_, execErr := st.Exec()
		done <- execErr
	}()

	// The waiter counts its queue wait just before it blocks; once it has,
	// it is provably parked on the semaphore.
	deadline := time.Now().Add(10 * time.Second)
	for srv.queueWaits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("execution never reached the admission gate")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("execution completed with every admission slot taken: %v", err)
	default:
	}
	if m := srv.Metrics(); m.QueueWaits != 1 || m.Execs != 0 {
		t.Fatalf("QueueWaits=%d Execs=%d while blocked, want 1 and 0", m.QueueWaits, m.Execs)
	}

	// Free one slot; the waiter must now be admitted and finish.
	<-srv.sem
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-srv.sem

	const serial = 10
	for i := 0; i < serial; i++ {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Metrics()
	if m.QueueWaits != 1 {
		t.Fatalf("QueueWaits=%d after %d serial executions with free slots, want 1", m.QueueWaits, serial)
	}
	if m.Execs != serial+1 || m.QueueWait.Count != serial+1 {
		t.Fatalf("Execs=%d, queue-wait histogram count=%d, want %d each", m.Execs, m.QueueWait.Count, serial+1)
	}
	waits := 0
	for _, ev := range srv.trace.Events() {
		if ev.Kind == obs.KindQueueWait {
			waits++
		}
	}
	if waits != serial+1 {
		t.Fatalf("traced %d queue-wait events, want one per execution (%d)", waits, serial+1)
	}
}

func TestMemOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"negative budget", Options{MemBudgetBytes: -1}},
	} {
		if _, err := New(testCatalog(), tc.opts); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.opts)
		}
	}
}
