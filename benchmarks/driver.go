package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one seeded, fixed schedule of ops that the driver replays
// round after round. Every round does the same work: set-up ends with a
// warm-up that brings the system's caches to steady state, and whatever an
// op changes is either overwritten by the next round's same op or is part of
// every round alike.
type workload interface {
	// shape is the schedule: clients closed-loop connections, length ops
	// each per round.
	shape() (clients, length int)
	// roundsPerSecond is the nominal pace -seconds is converted to rounds
	// with: about how many rounds this machine class replays per second.
	roundsPerSecond() float64
	// setup does everything that happens before the first timed op: input
	// generation, storage seed/flush/reopen, connect, prepare, warm-up.
	// sb (nil when untraced) receives spans around the set-up steps.
	setup(sb *spanBuf) error
	// op runs position pos of client c's schedule. A wrong result is an
	// error just like a failed call.
	op(c, pos int, sb *spanBuf) error
	// enact re-runs the op through the layers' public functions, one span
	// per layer, outside the op's timed window. Traced runs only.
	enact(c, pos int, sb *spanBuf) error
	// endRound is untimed work between rounds (serve-hot's WAL append).
	endRound(sb *spanBuf) error
	// verify checks the last round's outputs against an independent
	// evaluation and returns how many ops produced a wrong result.
	verify() (failed int, err error)
	// mark starts, and since ends, a window over the layers' public
	// counters; since returns per-layer metrics for rounds rounds.
	mark()
	since(rounds int) map[string]float64
	// probes measures single layers in isolation and folds the recorded
	// spans into per-layer metrics. Traced runs only.
	probes(rec *recorder) (map[string]float64, error)
	// describe reports the workload's sizes for the environment block.
	describe() map[string]any
	close() error
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	rounds   int    // 0: derive from seconds
	workdir  string // scratch space for storage directories and the trace file
	small    bool   // tests: shrink data and schedules to smoke-test size
	// corrupt makes verification compare against a deliberately wrong
	// expectation, so tests can see a mismatch fail the run.
	corrupt bool
}

const (
	minRounds    = 3
	setupRepeats = 5 // setup_s is the median of this many set-ups
	tracedRounds = 3 // rounds of each phase of a traced run
)

// result is what a run reports; print renders it.
type result struct {
	env       map[string]any
	info      map[string]any
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRounds replays the schedule len(lat.ns) times. It returns the failed
// ops and each round's wall time.
func runRounds(w workload, lat *latMatrix, rec *recorder) (int, []float64, error) {
	clients, length := w.shape()
	var failed atomic.Int64
	var roundMs []float64
	for r, row := range lat.ns {
		// Every round starts from a collected heap, so the collector's
		// cycles fall on the same stretch of the schedule round after
		// round, like everything else in a replayed round.
		runtime.GC()
		roundStart := time.Now()
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sb := rec.client(c)
				for pos := 0; pos < length; pos++ {
					sb.at(r, pos)
					sb.begin("client.op")
					t := time.Now()
					err := w.op(c, pos, sb)
					row[c*length+pos] = int64(time.Since(t))
					sb.end()
					if err == nil && sb != nil {
						err = w.enact(c, pos, sb)
					}
					if err != nil {
						failed.Add(1)
						errs[c] = err
					}
				}
				sb.at(r, -1)
			}(c)
		}
		wg.Wait()
		roundMs = append(roundMs, float64(time.Since(roundStart))/1e6)
		if err := errors.Join(errs...); err != nil {
			// Each client's last failure is reported; the count carries the rest.
			fmt.Fprintf(os.Stderr, "benchmarks: round %d: %v\n", r, err)
		}
		if err := w.endRound(rec.client(0)); err != nil {
			return int(failed.Load()), roundMs, fmt.Errorf("between rounds: %w", err)
		}
	}
	return int(failed.Load()), roundMs, nil
}

// mismatch reports a wrong result found by a workload's verify on standard
// error; standard output carries only the result lines.
func mismatch(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmarks: wrong result: "+format, args...)
}

// calibMops times a fixed integer-hash loop and returns millions of
// iterations per second. It tells a slow machine from slow code and is never
// used to rescale a metric.
func calibMops() float64 {
	const n = 20_000_000
	x := uint64(0x9e3779b97f4a7c15)
	t := time.Now()
	for i := 0; i < n; i++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
	}
	d := time.Since(t).Seconds()
	calibSink = x
	return n / d / 1e6
}

var calibSink uint64

// residentMB is the memory the process holds once a collection has run and
// freed pages have gone back to the operating system: everything the Go
// runtime has mapped minus what it has released. It is what an idle server
// shows after load — data, caches, optimizer state — and, unlike the
// resident-set high-water mark, it does not depend on where in a burst of
// allocation the collector happened to run.
func residentMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run executes one benchmark run.
func run(cfg config) (*result, error) {
	processStart := time.Now()
	calibBefore := calibMops()

	// Set up several times and report the median; the last set-up is the
	// one the timed phase runs on.
	var w workload
	var rec *recorder
	var setups []float64
	repeats := setupRepeats
	if cfg.trace || cfg.small {
		repeats = 1
	}
	for k := 0; k < repeats; k++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			runtime.GC()
			debug.FreeOSMemory()
		}
		t := time.Now()
		var err error
		if w, err = newWorkload(cfg); err != nil {
			return nil, err
		}
		clients, _ := w.shape()
		if cfg.trace {
			rec = newRecorder(clients)
		}
		if err := w.setup(rec.client(0)); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.close()
	clients, length := w.shape()

	res := &result{metrics: map[string]metric{}, info: map[string]any{}}
	res.info["setup_s_each"] = setups
	res.info["setup_to_first_op_s"] = time.Since(processStart).Seconds()

	// Fixed work, not fixed time: -seconds sets how many rounds are
	// replayed, at the workload's nominal pace, and every run at the same
	// -seconds replays the same number. A minimum over rounds must not be
	// taken over fewer rounds just because the machine was slow.
	rounds := cfg.rounds
	if rounds == 0 {
		rounds = max(minRounds, int(math.Round(cfg.seconds*w.roundsPerSecond())))
		if cfg.trace {
			rounds = tracedRounds
		}
	}

	// The untraced rounds: the whole timed phase of an untraced run, the
	// comparison baseline of a traced one.
	lat := newLatMatrix(rounds, clients, length)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.mark()
	failed, roundMs, err := runRounds(w, lat, nil)
	if err != nil {
		return nil, err
	}
	counters := w.since(rounds)
	runtime.ReadMemStats(&after)
	peak, resident := peakRSSMB(), residentMB()
	plain := summarize(lat.positionBest(rounds), clients)
	res.attempted = rounds * clients * length
	res.failed = failed
	res.info["tail_percentile"] = plain.tailP
	res.info["round_ms"] = roundMs
	diagnostics := map[string]float64{
		"driver.raw_p99_ms":          lat.rawPercentile(rounds, 0.99),
		"driver.round_ms_iqr_pct":    100 * iqrShare(roundMs),
		"driver.gc_cycles_per_round": float64(after.NumGC-before.NumGC) / float64(rounds),
		"driver.alloc_mb_per_round":  float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(rounds),
		"driver.peak_rss_mb":         peak,
	}

	if !cfg.trace {
		res.metrics["setup_s"] = metric{median(setups), "s"}
		res.metrics["ops_per_s"] = metric{plain.opsPerS, "1/s"}
		res.metrics["op_p50_ms"] = metric{plain.p50ms, "ms"}
		res.metrics["op_tail_ms"] = metric{plain.tailMs, "ms"}
		res.metrics["resident_mb"] = metric{resident, "MB"}
		for k, v := range diagnostics {
			res.info[k] = v
		}
	} else {
		tlat := newLatMatrix(rounds, clients, length)
		tfailed, _, err := runRounds(w, tlat, rec)
		if err != nil {
			return nil, err
		}
		res.attempted += rounds * clients * length
		res.failed += tfailed
		traced := summarize(tlat.positionBest(rounds), clients)
		layer, err := w.probes(rec)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for _, m := range []map[string]float64{counters, diagnostics} {
			for k, v := range m {
				layer[k] = v
			}
		}
		for l, pct := range rec.layerShares() {
			layer["layer."+l+"_pct"] = pct
		}
		layer["driver.trace_overhead_pct"] = 100 * (traced.p50ms - plain.p50ms) / plain.p50ms
		layer["driver.calib_mops"] = (calibBefore + calibMops()) / 2
		for _, lm := range layerMetrics {
			res.metrics[lm.name] = metric{layer[lm.name], lm.unit}
			delete(layer, lm.name)
		}
		for name := range layer {
			return nil, fmt.Errorf("per-layer metric %q is not declared in layerMetrics", name)
		}
		if err := rec.write(traceFile(cfg)); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	// Reference computation happens after the timed phase and after the
	// memory reading, so the checker's own cost is in neither.
	bad, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	res.failed += bad
	res.correct = res.failed == 0
	res.info["calib_mops_before_after"] = []float64{calibBefore, calibMops()}
	res.env = environment(cfg, w, rounds)
	return res, nil
}
