package driftkit

import (
	"testing"

	"repro/internal/fbstore"
	"repro/internal/linearroad"
	"repro/internal/obs"
	"repro/internal/server"
)

// stationary pins each car to a fixed expressway and segment, overriding
// the generator's burst teleports: within a phase the workload is genuinely
// stationary (cardinality noise comes only from which cars report into the
// sliding windows), so the phase boundary is the only regime change.
func stationary(r []int64) {
	car := r[linearroad.ColCarID]
	r[linearroad.ColExpway] = car % 10
	r[linearroad.ColSeg] = car % 100
}

// drift scenario: a long stationary regime in which every car reports in
// direction 0 (the SegTollS scan predicates match almost everything), then a
// step change where only one car in three stays in direction 0 — the scan
// and join cardinalities the entry's statistics were confident about drop
// several-fold at the boundary, while the surviving population stays large
// enough that window-membership noise sits well inside the feedback
// threshold.
func scenario() Scenario {
	return Scenario{
		Seed:        7,
		Cars:        240,
		QuietWindow: 4,
		Phases: []Phase{
			{Name: "warm", Execs: 10, Seconds: 30,
				Mutate: func(r []int64) {
					stationary(r)
					r[linearroad.ColDir] = 0
				}},
			{Name: "shift", Execs: 20, Seconds: 30,
				Mutate: func(r []int64) {
					stationary(r)
					if r[linearroad.ColCarID]%3 == 0 {
						r[linearroad.ColDir] = 0
					} else {
						r[linearroad.ColDir] = 1
					}
				}},
		},
	}
}

// replay runs the scenario on a fresh server with the given ageing policy.
// Both replays are built from the same Scenario, so they see byte-identical
// streams; the ageing policy is the only difference.
func replay(t *testing.T, halfLife float64) *Report {
	t.Helper()
	h := New(scenario())
	// Threshold 0.3: wide enough to suppress the window-membership noise
	// inside a stationary phase, far below the ~8x step at the shift.
	srv, err := server.New(h.Catalog(), server.Options{
		Stats:             fbstore.NewWithOptions(fbstore.Options{DecayHalfLife: halfLife}),
		FeedbackThreshold: 0.3, TraceEvents: 512})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Run(srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("half-life=%v:\n%s", halfLife, rep)
	return rep
}

// TestDriftReconvergence is the acceptance test for the statistics plane
// under data drift: after a mid-run phase shift, the server with observation
// decay shows fresh repairs followed by re-convergence (zero repairs over
// the phase's final window), while a decay-disabled control run over the
// identical stream ends the post-shift phase strictly worse — later repairs
// (slower adaptation) or calibrated estimates further from the observed
// data (worse plan quality).
func TestDriftReconvergence(t *testing.T) {
	// Half-life of 30 logical observations ≈ 3 executions of the nine
	// SegTollS subexpressions: long enough to smooth slice noise, short
	// enough to flush the dead regime within a few post-shift executions.
	dec := replay(t, 30)
	ctl := replay(t, 0)

	warm := dec.Phase("warm")
	if warm == nil || warm.Repairs == 0 {
		t.Fatalf("warm phase never repaired — the workload teaches nothing: %+v", warm)
	}
	if !warm.Reconverged {
		t.Fatalf("warm phase did not converge before the shift: %+v", warm)
	}

	shift := dec.Phase("shift")
	if shift.Repairs == 0 {
		t.Fatalf("phase shift triggered no repairs — the drift is invisible to feedback: %+v", shift)
	}
	if !shift.Reconverged {
		t.Fatalf("decayed server did not re-converge after the shift: %+v", shift)
	}

	// The control must be strictly worse on at least one axis: it either
	// fails to quiet down inside the phase, is still repairing later than
	// the decayed run (repair latency), or ends the phase with calibrated
	// estimates further from the observed cardinalities (plan quality).
	ctlShift := ctl.Phase("shift")
	worse := (shift.Reconverged && !ctlShift.Reconverged) ||
		ctlShift.LastRepair > shift.LastRepair ||
		ctlShift.EstimationError > shift.EstimationError
	if !worse {
		t.Fatalf("decay-disabled control matched the decayed run after the shift:\ndecayed: %+v\ncontrol: %+v",
			shift, ctlShift)
	}
}

// TestHarnessDeterminism: two harnesses built from one scenario replay
// byte-identical trajectories on identically configured servers — the
// property that makes control-versus-treatment comparisons sound.
func TestHarnessDeterminism(t *testing.T) {
	short := scenario()
	short.Phases = short.Phases[:1]
	short.Phases[0].Execs = 4
	run := func() string {
		h := New(short)
		srv, err := server.New(h.Catalog(), server.Options{
			Stats: fbstore.NewWithOptions(fbstore.Options{DecayHalfLife: 30}), TraceEvents: 256})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Run(srv)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical scenarios diverged:\n%s\n%s", a, b)
	}
}

// TestHarnessSingleUse: a harness refuses to replay twice — its stream
// clock and window state are spent.
func TestHarnessSingleUse(t *testing.T) {
	short := scenario()
	short.Phases = []Phase{{Name: "p", Execs: 1, Seconds: 5}}
	h := New(short)
	srv, err := server.New(h.Catalog(), server.Options{TraceEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(srv); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(srv); err == nil {
		t.Fatal("second Run on a spent harness succeeded")
	}
}

// TestHarnessRequiresEventPlane: the harness reads its trajectory from the
// server's lifecycle events, so a trace-disabled server is a configuration
// error, and a traced replay brackets each phase with phase markers any
// scrape-side consumer can follow.
func TestHarnessRequiresEventPlane(t *testing.T) {
	short := scenario()
	short.Phases = []Phase{{Name: "p", Execs: 2, Seconds: 5}}

	h := New(short)
	quiet, err := server.New(h.Catalog(), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(quiet); err == nil {
		t.Fatal("Run against a trace-disabled server succeeded")
	}

	h = New(short)
	srv, err := server.New(h.Catalog(), server.Options{TraceEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Run(srv)
	if err != nil {
		t.Fatal(err)
	}
	starts, ends, execs := 0, 0, 0
	for _, ev := range srv.Tracer().Events() {
		switch {
		case ev.Kind == obs.KindPhase && ev.A == 1:
			starts++
		case ev.Kind == obs.KindPhase && ev.A == 2:
			ends++
			if ev.V != rep.Phases[0].EstimationError {
				t.Fatalf("phase-end event est-err=%v, report says %v", ev.V, rep.Phases[0].EstimationError)
			}
		case ev.Kind == obs.KindExec:
			execs++
		}
	}
	if starts != 1 || ends != 1 || execs != 2 {
		t.Fatalf("phase markers wrong: starts=%d ends=%d execs=%d", starts, ends, execs)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points reconstructed from events: %d, want 2", len(rep.Points))
	}
}
