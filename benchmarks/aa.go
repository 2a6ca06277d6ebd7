package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// A/A calibration: the same binary measured against itself. For every
// workload it makes two sets of n runs, alternating A and B so slow drift of
// the machine lands on both, one seed per pair — the acceptance check a
// benchmark must pass before it can judge anything else — and one traced
// run per set, whose exact counts must agree to the last digit.

// endToEnd declares the end-to-end metrics as BENCHMARK.json does.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"resident_mb", "MB", "lower", 0.10},
}

// child runs this binary once and decodes the last line it prints.
func child(cfg config, workload string, seed int, trace int) (map[string]metric, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", strconv.Itoa(trace), "-workdir", cfg.workdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool
		Metrics map[string]metric
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: incorrect results", workload, seed)
	}
	return res.Metrics, nil
}

func runAA(cfg config, n int, out io.Writer) error {
	fmt.Fprintf(out, "A/A calibration: 2 x %d runs per workload, %g s each, seeds 1..%d\n\n", n, cfg.seconds, n)
	fmt.Fprintln(out, "| workload | metric | median A | median B | B worse by | IQR/median A | IQR/median B | bound |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|")
	var mismatches []string
	for _, wl := range workloadNames {
		if cfg.workload != "" && cfg.workload != wl {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for seed := 1; seed <= n; seed++ {
			for side := range sets {
				m, err := child(cfg, wl, seed, 0)
				if err != nil {
					return err
				}
				for name, v := range m {
					sets[side][name] = append(sets[side][name], v.Value)
				}
			}
		}
		for _, e := range endToEnd {
			a, b := sets[0][e.name], sets[1][e.name]
			fmt.Fprintf(os.Stderr, "benchmarks: %s %s A=%.5g B=%.5g\n", wl, e.name, a, b)
			worse := (median(b) - median(a)) / median(a)
			if e.better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(out, "| %s | %s | %.5g | %.5g | %+.2f%% | %.2f%% | %.2f%% | %.0f%% |\n",
				wl, e.name, median(a), median(b), 100*worse, 100*iqrShare(a), 100*iqrShare(b), 100*e.bound)
		}
		ta, err := child(cfg, wl, 1, 1)
		if err != nil {
			return err
		}
		tb, err := child(cfg, wl, 1, 1)
		if err != nil {
			return err
		}
		for _, name := range exactCounts {
			if ta[name].Value != tb[name].Value {
				mismatches = append(mismatches, fmt.Sprintf("%s %s: %v vs %v", wl, name, ta[name].Value, tb[name].Value))
			}
		}
	}
	if len(mismatches) > 0 {
		return fmt.Errorf("exact counts differ between two runs of the same binary: %v", mismatches)
	}
	fmt.Fprintf(out, "\nexact counts identical across the two traced runs of every workload (%d counts)\n", len(exactCounts))
	return nil
}
