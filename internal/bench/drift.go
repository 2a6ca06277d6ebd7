package bench

import (
	"fmt"

	"repro/internal/driftkit"
	"repro/internal/fbstore"
	"repro/internal/linearroad"
	"repro/internal/server"
)

// Drift replays the phase-shifted Linear Road scenario through the serving
// layer and renders the adaptation trajectory per phase — repairs, repair
// latency within the phase, re-convergence, and the statistics plane's
// end-of-phase estimation error. The trajectory is read back from the
// server's lifecycle event plane (obs.KindPhase / obs.KindExec), i.e. this
// figure exercises the same scrape surface an operator would watch.
func (e *Env) Drift(execsPerPhase int) *Table {
	if execsPerPhase < 4 {
		execsPerPhase = 4
	}
	sc := driftkit.Scenario{
		Seed:        7,
		Cars:        240,
		QuietWindow: 3,
		Phases: []driftkit.Phase{
			{Name: "warm", Execs: execsPerPhase, Seconds: 30,
				Mutate: func(r []int64) {
					r[linearroad.ColExpway] = r[linearroad.ColCarID] % 10
					r[linearroad.ColSeg] = r[linearroad.ColCarID] % 100
					r[linearroad.ColDir] = 0
				}},
			{Name: "shift", Execs: 2 * execsPerPhase, Seconds: 30,
				Mutate: func(r []int64) {
					r[linearroad.ColExpway] = r[linearroad.ColCarID] % 10
					r[linearroad.ColSeg] = r[linearroad.ColCarID] % 100
					if r[linearroad.ColCarID]%3 == 0 {
						r[linearroad.ColDir] = 0
					} else {
						r[linearroad.ColDir] = 1
					}
				}},
		},
	}
	h := driftkit.New(sc)
	srv, err := server.New(h.Catalog(), server.Options{
		Stats:             fbstore.NewWithOptions(fbstore.Options{DecayHalfLife: 30}),
		FeedbackThreshold: 0.3, Parallelism: e.Parallelism,
		TraceEvents: 16 * (3 * execsPerPhase),
	})
	if err != nil {
		panic(fmt.Sprintf("bench: drift: %v", err))
	}
	rep, err := h.Run(srv)
	if err != nil {
		panic(fmt.Sprintf("bench: drift: %v", err))
	}

	t := &Table{
		Title:  "Drift adaptation via the event plane (Linear Road, step change after warm)",
		Header: []string{"phase", "execs", "repairs", "first-repair", "last-repair", "reconverged", "est-err"},
	}
	for _, ph := range rep.Phases {
		t.Rows = append(t.Rows, []string{
			ph.Name, fmt.Sprintf("%d", ph.Execs), fmt.Sprintf("%d", ph.Repairs),
			fmt.Sprintf("%d", ph.FirstRepair), fmt.Sprintf("%d", ph.LastRepair),
			fmt.Sprintf("%v", ph.Reconverged), fmt.Sprintf("%.3f", ph.EstimationError),
		})
	}
	m := srv.Metrics()
	t.Notes = append(t.Notes,
		"trajectory reconstructed from the server's lifecycle event ring (Options.TraceEvents)",
		fmt.Sprintf("repair trace: %s", trajectory(rep)),
		fmt.Sprintf("server latency: %s", m.ExecLatency),
	)
	return t
}

// trajectory renders the replay's repair map ('R' repaired, '.' converged),
// phases separated by '|'.
func trajectory(rep *driftkit.Report) string {
	out := ""
	for i, ph := range rep.Phases {
		if i > 0 {
			out += "|"
		}
		for _, p := range rep.Points {
			if p.Phase != ph.Name {
				continue
			}
			if p.Repaired {
				out += "R"
			} else {
				out += "."
			}
		}
	}
	return out
}
