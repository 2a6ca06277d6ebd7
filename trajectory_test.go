package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestBenchRecordNamesEveryMetric parses the newest BENCH_<n>.json at the
// repository root (scripts/bench.sh writes one per change) and checks that it
// is complete: the host and the seeds it ran on, for every workload of
// BENCHMARK.json the parent's and the change's median of every end-to-end
// metric and one correctness flag per run, the per-layer metrics of each
// side's traced runs — every name BENCHMARK.json lists, the exact counts kept
// apart with both sides' values, and each timed metric's median with its
// three runs' values — the ratchet's code.* counts of both sides, and the
// paper's deterministic table cells (paper.<table>.<row>.<column>) of both
// sides, for every table bench.sh records: Figures 4(b), 4(c), the Figure 4
// census, 5(b), 5(c), the Figure 5 counts, 6(b), 6(c), 7(b), 7(c), 8(b), 8(c),
// the Figure 8 counts and 9 and the two ablations (ablation_order,
// ablation_space). It sets no thresholds: the host drifts, and the record is
// what a change's numbers are compared with.
func TestBenchRecordNamesEveryMetric(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	newest, last, previous, beforeLast := "", -1, "", -1
	for _, p := range paths {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(p, "BENCH_"), ".json"))
		if err != nil {
			continue
		}
		if n > last {
			previous, beforeLast = newest, last
			newest, last = p, n
		} else if n > beforeLast {
			previous, beforeLast = p, n
		}
	}
	if newest == "" {
		t.Fatal("no BENCH_<n>.json at the repository root: run scripts/bench.sh")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	readJSON(t, "BENCHMARK.json", &spec)
	type side struct {
		Median  map[string]*float64
		Correct []bool
		Failed  []int64
	}
	var rec struct {
		Env struct {
			NProc, GOMAXPROCS int
			Seeds             []int
		}
		Workloads map[string]map[string]*side
		Layers    map[string]struct {
			Parent, Change map[string]*float64
			Runs           struct{ Parent, Change map[string][]*float64 }
			Exact          map[string]struct{ Parent, Change *float64 }
		}
		Code  map[string]struct{ Parent, Change *int }
		Paper map[string]map[string]map[string]struct{ Parent, Change *float64 }
	}
	readJSON(t, newest, &rec)

	if rec.Env.NProc < 1 || rec.Env.GOMAXPROCS < 1 || len(rec.Env.Seeds) == 0 {
		t.Errorf("%s: env names nproc %d, GOMAXPROCS %d and seeds %v", newest, rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.Seeds)
	}
	for _, w := range spec.Workloads {
		for _, name := range []string{"parent", "change"} {
			s := rec.Workloads[w.Name][name]
			if s == nil {
				t.Errorf("%s: no %s runs of %s", newest, name, w.Name)
				continue
			}
			for _, m := range spec.EndToEnd {
				if s.Median[m.Name] == nil {
					t.Errorf("%s: %s %s has no median %s", newest, w.Name, name, m.Name)
				}
			}
			if len(s.Correct) != len(rec.Env.Seeds) || len(s.Failed) != len(rec.Env.Seeds) {
				t.Errorf("%s: %s %s records %d correct flags and %d failure counts for %d seeds",
					newest, w.Name, name, len(s.Correct), len(s.Failed), len(rec.Env.Seeds))
			}
		}
	}
	perLayer := map[string]bool{}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = true
	}
	for _, w := range spec.Workloads {
		l, ok := rec.Layers[w.Name]
		if !ok {
			t.Errorf("%s: no layers of %s", newest, w.Name)
			continue
		}
		for name := range l.Exact {
			if !perLayer[name] {
				t.Errorf("%s: %s exact count %q is not a per-layer metric of BENCHMARK.json", newest, w.Name, name)
			}
			if e := l.Exact[name]; e.Parent == nil || e.Change == nil {
				t.Errorf("%s: %s exact count %s lacks a side", newest, w.Name, name)
			}
		}
		for sideName, metrics := range map[string]map[string]*float64{"parent": l.Parent, "change": l.Change} {
			if len(metrics) == 0 {
				t.Errorf("%s: %s %s has no layers", newest, w.Name, sideName)
				continue
			}
			runs := l.Runs.Parent
			if sideName == "change" {
				runs = l.Runs.Change
			}
			for name, v := range metrics {
				_, exact := l.Exact[name]
				if !perLayer[name] || exact || v == nil {
					t.Errorf("%s: %s %s layer %q is not a timed per-layer metric of BENCHMARK.json with a value", newest, w.Name, sideName, name)
				}
				if len(runs[name]) != 3 || slices.Contains(runs[name], nil) {
					t.Errorf("%s: %s %s layer %s has %d traced runs' values, not 3", newest, w.Name, sideName, name, len(runs[name]))
				}
			}
			for name := range perLayer {
				if _, exact := l.Exact[name]; metrics[name] == nil && !exact {
					t.Errorf("%s: %s %s layers lack %s", newest, w.Name, sideName, name)
				}
			}
		}
	}
	if len(rec.Code) == 0 {
		t.Errorf("%s: no code.* counts", newest)
	}
	for key, c := range rec.Code {
		if !strings.HasPrefix(key, "code.") || c.Change == nil {
			t.Errorf("%s: code count %q has no change side", newest, key)
		}
	}
	// A table the previous record lacks is new with this change: the
	// parent's cmd/reprobench did not print it, so only its change side is
	// required.
	var prev struct{ Paper map[string]json.RawMessage }
	if previous != "" {
		readJSON(t, previous, &prev)
	}
	for _, table := range []string{"fig4b", "fig4c", "fig4census", "fig5b", "fig5c", "fig5counts", "fig6b", "fig6c", "fig6counts", "fig7b", "fig7c", "fig7counts", "fig8b", "fig8c", "fig8counts", "fig9", "ablation_order", "ablation_space"} {
		if len(rec.Paper[table]) == 0 {
			t.Errorf("%s: no paper.%s cells", newest, table)
		}
	}
	for table, rows := range rec.Paper {
		_, printed := prev.Paper[table]
		for row, cols := range rows {
			for col, c := range cols {
				if c.Change == nil || c.Parent == nil && printed {
					t.Errorf("%s: paper.%s.%s.%s lacks a side", newest, table, row, col)
				}
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
