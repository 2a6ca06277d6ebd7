package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTheCode: BENCHMARK.json declares exactly the workloads
// and metrics the code has, with the same units, directions and bounds.
func TestManifestMatchesTheCode(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		if got := m.EndToEnd[i]; got != (manifestMetric{e.name, e.unit, e.better, e.bound}) {
			t.Errorf("end-to-end %d: manifest %+v, code %+v", i, got, e)
		}
	}
	if len(m.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, code has %d", len(m.PerLayer), len(layerMetrics))
	}
	declared := map[string]bool{}
	for i, l := range layerMetrics {
		if got := m.PerLayer[i]; got != (manifestMetric{Name: l.name, Unit: l.unit, Better: l.better}) {
			t.Errorf("per-layer %d: manifest %+v, code %+v", i, got, l)
		}
		declared[l.name] = true
	}
	for _, name := range exactCounts {
		if !declared[name] {
			t.Errorf("exact count %s is not a declared per-layer metric", name)
		}
	}
}

// smoke runs one small fixed-round run in-process and returns the exit code
// and the decoded last line.
func smoke(t *testing.T, cfg config) (int, map[string]any) {
	t.Helper()
	cfg.small, cfg.rounds, cfg.seed, cfg.workdir = true, 2, 5, t.TempDir()
	var out, errs bytes.Buffer
	code := execute(cfg, 0, &out, &errs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v (stderr: %s)", lines[len(lines)-1], err, errs.String())
	}
	return code, last
}

// TestSmoke: every workload, untraced and traced, prints exactly the keys of
// the contract and exactly the metric names of BENCHMARK.json, with no
// failed op; the environment block comes first.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	want := map[bool][]string{}
	for _, e := range m.EndToEnd {
		want[false] = append(want[false], e.Name)
	}
	for _, l := range m.PerLayer {
		want[true] = append(want[true], l.Name)
	}
	for _, wl := range m.Workloads {
		for _, trace := range []bool{false, true} {
			code, last := smoke(t, config{workload: wl.Name, trace: trace})
			label := wl.Name
			if trace {
				label += " traced"
			}
			if code != 0 {
				t.Errorf("%s: exit code %d", label, code)
			}
			if len(last) != 4 || last["correct"] != true || last["failed"] != 0.0 || last["attempted"].(float64) < 1 {
				t.Errorf("%s: last line %v", label, last)
			}
			var got []string
			for name, v := range last["metrics"].(map[string]any) {
				got = append(got, name)
				mv := v.(map[string]any)
				if _, ok := mv["value"].(float64); !ok || mv["unit"] == "" || len(mv) != 2 {
					t.Errorf("%s: metric %s = %v", label, name, v)
				}
			}
			exp := append([]string(nil), want[trace]...)
			sort.Strings(got)
			sort.Strings(exp)
			if strings.Join(got, " ") != strings.Join(exp, " ") {
				t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d; printed only: %v, declared only: %v",
					label, len(got), len(exp), minus(got, exp), minus(exp, got))
			}
		}
	}
}

// minus returns the names in a that are not in b.
func minus(a, b []string) []string {
	in := map[string]bool{}
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}

// TestCorruptedExpectationFails: when the expected results are deliberately
// wrong, every workload's check notices, counts failed ops and the command
// exits non-zero.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, wl := range workloadNames {
		code, last := smoke(t, config{workload: wl, corrupt: true})
		if code == 0 || last["correct"] != false || last["failed"].(float64) < 1 {
			t.Errorf("%s: exit code %d, last line %v", wl, code, last)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errs bytes.Buffer
	if code := realMain([]string{"-workload", "nope", "-workdir", t.TempDir()}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Errorf("exit code %d, stdout %q", code, out.String())
	}
}
