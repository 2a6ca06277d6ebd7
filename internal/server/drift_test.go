package server

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/fbstore"
	"repro/internal/linearroad"
	"repro/internal/obs"
)

// This file is the statistics plane's end-to-end drift scenario: a harness
// replays a phase-shifted Linear Road stream against a live server and
// reports the repair/convergence trajectory phase by phase, so a test can
// assert the shape of the adaptation — fresh repairs right after a
// distribution shift, then re-convergence once the learned statistics catch
// up with the new regime.
//
// A phase sharpens the generator's gradual drift into a step change by
// transforming every generated report with its mutate hook. Between
// executions the harness ingests one stream slice into the query's window
// tables and re-materializes them: the split-point discipline of the §5.4
// adaptive loop, driven through the serving layer, so the cached entry's
// live optimizer repairs from feedback folded into the server-wide
// fbstore.StatsStore, whose ageing policy is what drift exercises.
//
// The replay is deterministic: the generator is seeded, the replay is one
// serial session, and the statistics plane ages on its logical observation
// clock. Two replays of one scenario against servers that differ only in
// ageing policy see identical streams.

// driftPhase is one stationary regime of the replayed stream.
type driftPhase struct {
	name string
	// execs is how many split points (ingest, materialize, execute) the
	// phase runs; seconds is how many stream-seconds each one ingests.
	execs   int
	seconds int64
	// mutate transforms each generated report in place (nil: identity).
	mutate func(row []int64)
}

// driftScenario is a reproducible phase-shifted workload.
type driftScenario struct {
	seed uint64 // Linear Road generator seed
	cars int
	// quietWindow is how many trailing executions of a phase must be
	// repair-free for the phase to count as re-converged.
	quietWindow int
	// threshold, when nonzero, replaces the entry calibrator's feedback
	// threshold before the first execution.
	threshold float64
	phases    []driftPhase // in order, over one continuous stream clock
}

// driftPoint is one execution of the replay.
type driftPoint struct {
	phase       string
	exec        int // 1-based index within the phase
	repaired    bool
	planVersion uint64
	rows        int
}

// driftPhaseReport summarizes one phase's adaptation trajectory.
type driftPhaseReport struct {
	name    string
	execs   int
	repairs int
	// firstRepair and lastRepair are 1-based execution indices within the
	// phase (0: the phase never repaired).
	firstRepair, lastRepair int
	// reconverged: the trailing quietWindow executions were repair-free.
	reconverged bool
	// estimationError is the mean |ln(estimate/lastObservation)| over the
	// fingerprints observed during the phase, measured at its end: how far
	// the plane's calibrated estimates sit from what the data now shows.
	estimationError float64
}

type driftReport struct {
	points []driftPoint
	phases []driftPhaseReport
}

func (r *driftReport) phase(name string) *driftPhaseReport {
	for i := range r.phases {
		if r.phases[i].name == name {
			return &r.phases[i]
		}
	}
	return nil
}

// driftHarness owns the stream state of one replay: the seeded generator,
// the window tables and the stream clock. Build the server over catalog()
// and hand it to run; a harness replays once.
type driftHarness struct {
	sc  driftScenario
	gen *linearroad.Gen
	win *linearroad.Windows
	t   int64 // stream clock, continuous across phases
	ran bool
}

func newDriftHarness(sc driftScenario) *driftHarness {
	return &driftHarness{sc: sc, gen: linearroad.NewGen(sc.seed, sc.cars), win: linearroad.NewWindows()}
}

func (h *driftHarness) catalog() *catalog.Catalog { return h.win.Catalog() }

// run replays the scenario against srv: for every execution of every phase
// it ingests one mutated slice, re-materializes the windows and executes
// SegTollS through one session. The statement is prepared after the first
// slice is materialized, so the entry's initial model sees pre-drift
// statistics.
//
// The trajectory is read back from the server's lifecycle event plane: each
// phase is bracketed by obs.KindPhase markers (start, then end carrying the
// phase's estimation error), and the points are the KindExec events emitted
// in between. The server needs Options.TraceEvents large enough for one
// phase's events.
func (h *driftHarness) run(srv *Server) (*driftReport, error) {
	if h.ran {
		return nil, fmt.Errorf("drift harness already ran; build a new one per replay")
	}
	h.ran = true
	tr := srv.trace
	if !tr.Enabled() {
		return nil, fmt.Errorf("the drift harness reads the trajectory from the event plane: set Options.TraceEvents")
	}
	sess := srv.Session()
	var st *Stmt
	rep := &driftReport{}
	for _, ph := range h.sc.phases {
		startClock := srv.Stats().Clock()
		startSeq := tr.Seq()
		tr.Emit(obs.Event{Kind: obs.KindPhase, Note: ph.name, A: 1})
		for i := 1; i <= ph.execs; i++ {
			rows := h.gen.Slice(h.t, h.t+ph.seconds)
			h.t += ph.seconds
			if ph.mutate != nil {
				for _, r := range rows {
					ph.mutate(r)
				}
			}
			h.win.Ingest(rows)
			h.win.Materialize()
			if st == nil {
				var err error
				if st, err = sess.PrepareQuery(linearroad.SegTollS()); err != nil {
					return nil, err
				}
				if h.sc.threshold != 0 {
					st.entry.mu.Lock()
					st.entry.cal.Threshold = h.sc.threshold
					st.entry.mu.Unlock()
				}
			}
			if _, err := st.Exec(); err != nil {
				return nil, fmt.Errorf("phase %s exec %d: %w", ph.name, i, err)
			}
		}
		points, err := driftPoints(tr.Since(startSeq), ph)
		if err != nil {
			return nil, err
		}
		rep.points = append(rep.points, points...)
		pr := h.phaseReport(srv, ph, points, startClock)
		tr.Emit(obs.Event{Kind: obs.KindPhase, Note: ph.name, A: 2, V: pr.estimationError})
		rep.phases = append(rep.phases, pr)
	}
	return rep, nil
}

// driftPoints reconstructs one phase's executions from the lifecycle events
// emitted since the phase started.
func driftPoints(events []obs.Event, ph driftPhase) ([]driftPoint, error) {
	var points []driftPoint
	for _, ev := range events {
		if ev.Kind != obs.KindExec {
			continue
		}
		points = append(points, driftPoint{
			phase: ph.name, exec: len(points) + 1, repaired: ev.Note == "repaired",
			planVersion: uint64(ev.B), rows: int(ev.A),
		})
	}
	if len(points) != ph.execs {
		return nil, fmt.Errorf("phase %s: the event plane retained %d of %d executions; raise Options.TraceEvents",
			ph.name, len(points), ph.execs)
	}
	return points, nil
}

// phaseReport folds one phase's points and the statistics plane's end state
// into a driftPhaseReport.
func (h *driftHarness) phaseReport(srv *Server, ph driftPhase, points []driftPoint, startClock uint64) driftPhaseReport {
	pr := driftPhaseReport{name: ph.name, execs: len(points)}
	for _, p := range points {
		if !p.repaired {
			continue
		}
		pr.repairs++
		if pr.firstRepair == 0 {
			pr.firstRepair = p.exec
		}
		pr.lastRepair = p.exec
	}
	quiet := min(h.sc.quietWindow, len(points))
	pr.reconverged = pr.lastRepair <= len(points)-quiet

	// Estimation error over the fingerprints this phase observed: their
	// last fold is stamped after the phase's starting clock.
	var sum float64
	var n int
	for _, sn := range srv.Stats().Snapshot() {
		if sn.Tick <= startClock || sn.ObsAvg <= 0 || sn.LastObs <= 0 {
			continue
		}
		sum += math.Abs(math.Log(sn.ObsAvg / sn.LastObs))
		n++
	}
	if n > 0 {
		pr.estimationError = sum / float64(n)
	}
	return pr
}

// stationary pins each car to a fixed expressway and segment, overriding
// the generator's burst teleports: within a phase the workload is genuinely
// stationary (cardinality noise comes only from which cars report into the
// sliding windows), so the phase boundary is the only regime change.
func stationary(r []int64) {
	car := r[linearroad.ColCarID]
	r[linearroad.ColExpway] = car % 10
	r[linearroad.ColSeg] = car % 100
}

// driftScenarioFixture: a long stationary regime in which every car reports
// in direction 0 (the SegTollS scan predicates match almost everything),
// then a step change where only one car in three stays in direction 0 — the
// scan and join cardinalities the entry's statistics were confident about
// drop several-fold at the boundary, while the surviving population stays
// large enough that window-membership noise sits inside the feedback
// threshold.
func driftScenarioFixture() driftScenario {
	return driftScenario{
		seed:        7,
		cars:        240,
		quietWindow: 4,
		phases: []driftPhase{
			{name: "warm", execs: 10, seconds: 30,
				mutate: func(r []int64) {
					stationary(r)
					r[linearroad.ColDir] = 0
				}},
			{name: "shift", execs: 20, seconds: 30,
				mutate: func(r []int64) {
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

// replayDrift runs the scenario on a fresh server with the given ageing
// policy. Both replays of a comparison are built from the same scenario, so
// they see identical streams; the ageing policy is the only difference.
func replayDrift(t *testing.T, halfLife float64) *driftReport {
	t.Helper()
	sc := driftScenarioFixture()
	// Threshold 0.3: wide enough to suppress the window-membership noise
	// inside a stationary phase, far below the ~8x step at the shift.
	sc.threshold = 0.3
	h := newDriftHarness(sc)
	srv, err := New(h.catalog(), Options{
		Stats:       fbstore.NewWithOptions(fbstore.Options{DecayHalfLife: halfLife}),
		TraceEvents: 512})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.run(srv)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range rep.phases {
		t.Logf("half-life=%v %-6s repairs=%d first=%d last=%d reconverged=%v estErr=%.3f",
			halfLife, ph.name, ph.repairs, ph.firstRepair, ph.lastRepair, ph.reconverged, ph.estimationError)
	}
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
	dec := replayDrift(t, 30)
	ctl := replayDrift(t, 0)

	warm := dec.phase("warm")
	if warm == nil || warm.repairs == 0 {
		t.Fatalf("warm phase never repaired — the workload teaches nothing: %+v", warm)
	}
	if !warm.reconverged {
		t.Fatalf("warm phase did not converge before the shift: %+v", warm)
	}

	shift := dec.phase("shift")
	if shift.repairs == 0 {
		t.Fatalf("phase shift triggered no repairs — the drift is invisible to feedback: %+v", shift)
	}
	if !shift.reconverged {
		t.Fatalf("decayed server did not re-converge after the shift: %+v", shift)
	}

	// The control must be strictly worse on at least one axis: it either
	// fails to quiet down inside the phase, is still repairing later than
	// the decayed run (repair latency), or ends the phase with calibrated
	// estimates further from the observed cardinalities (plan quality).
	ctlShift := ctl.phase("shift")
	worse := (shift.reconverged && !ctlShift.reconverged) ||
		ctlShift.lastRepair > shift.lastRepair ||
		ctlShift.estimationError > shift.estimationError
	if !worse {
		t.Fatalf("decay-disabled control matched the decayed run after the shift:\ndecayed: %+v\ncontrol: %+v",
			shift, ctlShift)
	}
}

// TestDriftHarnessDeterminism: two harnesses built from one scenario replay
// identical trajectories on identically configured servers — the property
// that makes the control-versus-treatment comparison above sound.
func TestDriftHarnessDeterminism(t *testing.T) {
	short := driftScenarioFixture()
	short.phases = short.phases[:1]
	short.phases[0].execs = 4
	run := func() *driftReport {
		h := newDriftHarness(short)
		srv, err := New(h.catalog(), Options{
			Stats: fbstore.NewWithOptions(fbstore.Options{DecayHalfLife: 30}), TraceEvents: 256})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.run(srv)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("identical scenarios diverged:\n%+v\n%+v", a, b)
	}
}

// TestDriftHarnessSingleUse: a harness refuses to replay twice — its stream
// clock and window state are spent.
func TestDriftHarnessSingleUse(t *testing.T) {
	short := driftScenarioFixture()
	short.phases = []driftPhase{{name: "p", execs: 1, seconds: 5}}
	h := newDriftHarness(short)
	srv, err := New(h.catalog(), Options{TraceEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.run(srv); err != nil {
		t.Fatal(err)
	}
	if _, err := h.run(srv); err == nil {
		t.Fatal("second run on a spent harness succeeded")
	}
}

// TestDriftHarnessRequiresEventPlane: the harness reads its trajectory from
// the server's lifecycle events, so a trace-disabled server is a
// configuration error, and a traced replay brackets each phase with phase
// markers any scrape-side consumer can follow.
func TestDriftHarnessRequiresEventPlane(t *testing.T) {
	short := driftScenarioFixture()
	short.phases = []driftPhase{{name: "p", execs: 2, seconds: 5}}

	h := newDriftHarness(short)
	quiet, err := New(h.catalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.run(quiet); err == nil {
		t.Fatal("run against a trace-disabled server succeeded")
	}

	h = newDriftHarness(short)
	srv, err := New(h.catalog(), Options{TraceEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.run(srv)
	if err != nil {
		t.Fatal(err)
	}
	starts, ends, execs := 0, 0, 0
	for _, ev := range srv.trace.Events() {
		switch {
		case ev.Kind == obs.KindPhase && ev.A == 1:
			starts++
		case ev.Kind == obs.KindPhase && ev.A == 2:
			ends++
			if ev.V != rep.phases[0].estimationError {
				t.Fatalf("phase-end event est-err=%v, report says %v", ev.V, rep.phases[0].estimationError)
			}
		case ev.Kind == obs.KindExec:
			execs++
		}
	}
	if starts != 1 || ends != 1 || execs != 2 {
		t.Fatalf("phase markers wrong: starts=%d ends=%d execs=%d", starts, ends, execs)
	}
	if len(rep.points) != 2 {
		t.Fatalf("points reconstructed from events: %d, want 2", len(rep.points))
	}
}
