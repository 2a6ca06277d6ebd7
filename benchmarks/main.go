// Command benchmarks is the repository's benchmark: four workloads, each a
// seeded fixed schedule of operations replayed for identical rounds and
// timed per schedule position (see README.md for the method and for why
// each workload exists). It measures every layer from outside, by timing
// calls into public functions and reading public counters.
//
//	benchmarks -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	benchmarks -aa <n>     A/A calibration over every workload
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it carry the
// environment block and diagnostics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// workloadNames lists the workloads in reporting order. BENCHMARK.json
// names the same four.
var workloadNames = []string{"reopt-storm", "stream-adapt", "serve-hot", "serve-adhoc"}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "reopt-storm":
		return newReoptStorm(cfg), nil
	case "stream-adapt":
		return newStreamAdapt(cfg), nil
	case "serve-hot":
		return newServeHot(cfg), nil
	case "serve-adhoc":
		return newServeAdhoc(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

func traceFile(cfg config) string {
	return filepath.Join(cfg.workdir, "trace-"+cfg.workload+".json")
}

// environment is the block printed with every run.
func environment(cfg config, w workload, rounds int) map[string]any {
	clients, length := w.shape()
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"L":          length,
		"R":          rounds,
		"clients":    clients,
		"fsync":      "WAL fsync on every append (storage.DiskStore.Append)",
		"caveat": "executor and server Parallelism are pinned to 1: at this core count " +
			"parallel speed-ups are unobservable and must not be claimed from these numbers",
	}
	for k, v := range w.describe() {
		env[k] = v
	}
	return env
}

// commit is the revision stamped into the binary, when it was built inside
// a git work tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// print writes the environment and diagnostics lines, then the result
// object as the last line.
func (r *result) print(out io.Writer) error {
	for _, line := range []map[string]any{{"env": r.env}, {"info": r.info}} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", b)
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace, aa int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 16, "nominal length of the timed phase; sets the number of rounds")
	fs.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics")
	fs.IntVar(&cfg.rounds, "rounds", 0, "replay exactly this many rounds instead of deriving the count from -seconds")
	fs.IntVar(&aa, "aa", 0, "A/A calibration: run every workload 2 x n times and compare the two sets")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for storage data and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	return execute(cfg, aa, stdout, stderr)
}

// execute runs the parsed command and returns the process's exit code:
// non-zero when the run fails or any op produced a wrong result.
func execute(cfg config, aa int, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmarks:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return fail(err)
	}
	if aa > 0 {
		if err := runAA(cfg, aa, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	res, err := run(cfg)
	if err != nil {
		return fail(err)
	}
	if err := res.print(stdout); err != nil {
		return fail(err)
	}
	if !res.correct {
		return fail(fmt.Errorf("%d of %d ops failed", res.failed, res.attempted))
	}
	return 0
}
