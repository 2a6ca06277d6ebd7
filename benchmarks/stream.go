package main

import (
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/linearroad"
	"repro/internal/relalg"
	"repro/internal/stats"
)

// stream-adapt: the paper's adaptive loop (Figures 9 and 10). Every round
// starts from empty windows and a fresh incremental controller and replays
// the same Linear Road stream slice by slice — initial optimization,
// convergence, a regime shift halfway, re-convergence. One op is one split
// point: ingest a slice, re-materialize the windows, re-optimize under the
// previous slice's feedback and execute. Almost all of the time is executor
// and window materialization; repair is a sliver once converged, so an
// optimizer change should not show here and an executor change should.

const (
	streamCars     = 150
	streamBaseSeed = 7  // the generator seed the paper-figure runners use
	streamWarm     = 20 // slices of the set-up's partial warm-up round
)

type streamAdapt struct {
	cfg    config
	length int
	slices [][][]int64 // the stream, one batch of reports per second

	win *linearroad.Windows
	ctl *aqp.Controller

	rows   []int64 // last round's result rows per slice
	sums   streamSums
	marked streamSums
}

// streamSums accumulates what aqp.SliceResult reports about each op.
type streamSums struct {
	exec, reopt, materialize time.Duration
	repairs, touched         int
}

func newStreamAdapt(cfg config) *streamAdapt {
	w := &streamAdapt{cfg: cfg, length: 100}
	if cfg.small {
		w.length = 40
	}
	return w
}

func (w *streamAdapt) shape() (int, int) { return 1, w.length }

func (w *streamAdapt) roundsPerSecond() float64 { return 0.75 }

func (w *streamAdapt) describe() map[string]any {
	return map[string]any{"cars": streamCars, "slice_seconds": 1, "shift_at_slice": w.length / 2,
		"strategy": "incremental, cumulative"}
}

// streamSlices generates the seeded stream. Its shape — when cars burst,
// where the hot region sits — is the Linear Road generator's at the reference
// seed the paper-figure runners replay, and from the middle slice on two
// thirds of the cars flip direction and all segments move: a step change in
// the selectivity of SegTollS's direction predicates and segment joins, in
// the manner of driftkit's phases. The seed relabels cars and expressways — a
// bijection, so every join keeps its size while every value, hash table and
// window differs. Seeding the generator itself, or the shift, gives streams
// whose cost differs by ±15 % (and whose median op by ±25 %): input variance
// that would drown the 10 % changes this benchmark exists to resolve.
func streamSlices(seed uint64, n int) [][][]int64 {
	gen := linearroad.NewGen(streamBaseSeed, streamCars)
	r := stats.NewRand(seed ^ 0x5eed0005)
	carOf, wayOf := permutation(r, streamCars), permutation(r, 10)
	slices := make([][][]int64, n)
	for s := range slices {
		slices[s] = gen.Slice(int64(s), int64(s)+1)
		for _, row := range slices[s] {
			if s >= n/2 {
				row[linearroad.ColDir] = 1
				if row[linearroad.ColCarID]%3 == 0 {
					row[linearroad.ColDir] = 0
				}
				row[linearroad.ColSeg] = (row[linearroad.ColSeg] + 37) % 100
			}
			row[linearroad.ColCarID] = carOf[row[linearroad.ColCarID]]
			row[linearroad.ColExpway] = wayOf[row[linearroad.ColExpway]]
		}
	}
	return slices
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(r *stats.Rand, n int) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(i)
	}
	shuffle(r, n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// shuffle is a seeded Fisher–Yates shuffle of n elements through swap.
func shuffle(r *stats.Rand, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// reset starts a round: empty windows, a controller that knows nothing.
func (w *streamAdapt) reset(strategy aqp.Strategy) error {
	w.win = linearroad.NewWindows()
	ctl, err := aqp.NewController(aqp.Config{
		Query: linearroad.SegTollS(), Cat: w.win.Catalog(),
		Params: cost.DefaultParams(), Space: relalg.DefaultSpace(), Pruning: core.PruneAll,
		Strategy: strategy, Cumulative: true, Parallelism: 1,
	})
	w.ctl = ctl
	return err
}

func (w *streamAdapt) setup(sb *spanBuf) error {
	w.slices = streamSlices(w.cfg.seed, w.length)
	w.rows = make([]int64, w.length)
	// A partial round warms the runtime (heap, pools); rounds carry no
	// state over, so there is nothing else to bring to steady state.
	for pos := 0; pos < streamWarm && pos < w.length; pos++ {
		if err := w.op(0, pos, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *streamAdapt) op(_, pos int, sb *spanBuf) error {
	if pos == 0 {
		if err := w.reset(aqp.Incremental); err != nil {
			return err
		}
	}
	sb.begin("linearroad.ingest")
	w.win.Ingest(w.slices[pos])
	sb.end()
	sb.begin("catalog.window_materialize")
	t := time.Now()
	w.win.Materialize()
	w.sums.materialize += time.Since(t)
	sb.end()
	sb.begin("aqp.run_slice")
	res, err := w.ctl.RunSlice(w.win.Data)
	sb.child("core.reopt", res.Reopt)
	sb.child("exec.run", res.Exec)
	sb.end()
	if err != nil {
		return err
	}
	w.rows[pos] = res.Rows
	w.sums.exec += res.Exec
	w.sums.reopt += res.Reopt
	w.sums.touched += res.Touched
	if res.Touched > 0 && pos > 0 {
		w.sums.repairs++
	}
	return nil
}

func (w *streamAdapt) enact(int, int, *spanBuf) error { return nil }
func (w *streamAdapt) endRound(*spanBuf) error        { return nil }
func (w *streamAdapt) close() error                   { return nil }

func (w *streamAdapt) mark() { w.marked = w.sums }

func (w *streamAdapt) since(rounds int) map[string]float64 {
	n := float64(rounds)
	d, m := w.sums, w.marked
	return map[string]float64{
		"aqp.exec_ms_per_round":                   float64(d.exec-m.exec) / 1e6 / n,
		"aqp.reopt_ms_per_round":                  float64(d.reopt-m.reopt) / 1e6 / n,
		"aqp.repairs_per_round":                   float64(d.repairs-m.repairs) / n,
		"aqp.touched_per_round":                   float64(d.touched-m.touched) / n,
		"catalog.window_materialize_ms_per_round": float64(d.materialize-m.materialize) / 1e6 / n,
	}
}

// reference replays the stream under the non-incremental comparator: a
// from-scratch optimization at every split point (Figure 9's other line).
// Result rows do not depend on the plan, so they are the expected rows.
func (w *streamAdapt) reference() (rows []int64, reopt time.Duration, err error) {
	if err := w.reset(aqp.FullReopt); err != nil {
		return nil, 0, err
	}
	rows = make([]int64, w.length)
	for pos := range w.slices {
		w.win.Ingest(w.slices[pos])
		w.win.Materialize()
		res, err := w.ctl.RunSlice(w.win.Data)
		if err != nil {
			return nil, 0, err
		}
		rows[pos] = res.Rows
		reopt += res.Reopt
	}
	return rows, reopt, nil
}

func (w *streamAdapt) verify() (int, error) {
	want, _, err := w.reference()
	if err != nil {
		return 0, err
	}
	if w.cfg.corrupt {
		want[len(want)-1]++
	}
	failed := 0
	for pos := range want {
		if w.rows[pos] != want[pos] {
			if failed == 0 {
				mismatch("slice %d: %d rows, full re-optimization gives %d\n", pos, w.rows[pos], want[pos])
			}
			failed++
		}
	}
	return failed, nil
}

func (w *streamAdapt) probes(rec *recorder) (map[string]float64, error) {
	_, reopt, err := w.reference()
	if err != nil {
		return nil, err
	}
	return map[string]float64{"aqp.fullreopt_ms_per_round": float64(reopt) / 1e6}, nil
}
