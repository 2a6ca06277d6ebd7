package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/relalg"
	"repro/internal/tpch"
)

// drive runs every named workload query n times through one session.
func drive(t *testing.T, srv *Server, n int) {
	t.Helper()
	sess := srv.Session()
	for name := range srv.opts.Named {
		st, err := sess.PrepareNamed(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < n; i++ {
			if _, err := st.Exec(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestExplainAnalyzeThroughServer(t *testing.T) {
	srv := testServer(t, Options{})
	sess := srv.Session()
	st, err := sess.PrepareNamed("Q5")
	if err != nil {
		t.Fatal(err)
	}
	res, analyzed, err := st.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EXPLAIN ANALYZE", "est=", "act=", "qerr=", "time="} {
		if !strings.Contains(analyzed, want) {
			t.Fatalf("analyze output missing %q:\n%s", want, analyzed)
		}
	}
	// The profiled execution is a real one: it counts the serial baseline's
	// rows and its feedback landed (estimation error is now recorded).
	if want := checkFresh(t, "Q5", srv, st.Query(), st.Plan()).n; res.Rows != want {
		t.Fatalf("profiled execution counted %d rows, the serial baseline %d", res.Rows, want)
	}
	var em *EntryMetrics
	for i, e := range srv.Metrics().PerEntry {
		if e.Query == "Q5" {
			em = &srv.Metrics().PerEntry[i]
		}
	}
	if em == nil {
		t.Fatal("Q5 entry missing from metrics")
	}
	if em.Execs != 1 {
		t.Fatalf("profiled exec not counted: execs=%d", em.Execs)
	}
	if em.EstErr == 0 {
		t.Fatal("cold first execution left the estimation-error gauge at zero")
	}
}

// TestTracingDifferential asserts the observability plane observes without
// participating: tracing and slow-query profiling fully on leave result
// multisets and the feedback-driven per-entry optimizer state identical to
// a server with everything off.
//
// The workload is extended with Q3S under an aggregation over lineitem alone:
// its customer ⋈ orders build side is dead above the root join, so the join
// runs in counting mode and the profile's rows are multiplicities summed.
func TestTracingDifferential(t *testing.T) {
	named := tpch.Queries()
	counted := tpch.Q3S()
	counted.Name = "Q3SCounted"
	counted.Agg = &relalg.AggSpec{CountAll: true,
		Sums: []relalg.ColID{{Rel: 2, Off: 5}}, CountDistinct: []relalg.ColID{{Rel: 2, Off: 1}}}
	named[counted.Name] = counted
	quiet := testServer(t, Options{Named: named})
	traced := testServer(t, Options{Named: named,
		TraceEvents: 256, TraceSlowQuery: time.Nanosecond})

	for name := range quiet.opts.Named {
		q := quiet.opts.Named[name]
		st0, err := quiet.Session().PrepareNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		st1, err := traced.Session().PrepareNamed(name)
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
				t.Fatalf("%s: tracing changed the result multiset", name)
			}
			if r0.PlanVersion != r1.PlanVersion || r0.Repaired != r1.Repaired {
				t.Fatalf("%s exec %d: tracing changed plan evolution: v%d/%t vs v%d/%t",
					name, i, r0.PlanVersion, r0.Repaired, r1.PlanVersion, r1.Repaired)
			}
			_ = q
		}
	}
	m0, m1 := quiet.Metrics(), traced.Metrics()
	if m0.Repairs != m1.Repairs || m0.Converged != m1.Converged {
		t.Fatalf("tracing changed feedback totals: repairs %d vs %d, converged %d vs %d",
			m0.Repairs, m1.Repairs, m0.Converged, m1.Converged)
	}
	if st, err := traced.Session().PrepareNamed(counted.Name); err != nil {
		t.Fatal(err)
	} else if _, analyzed, err := st.ExplainAnalyze(); err != nil || !strings.Contains(analyzed, " counted ") {
		t.Fatalf("the differential covers no counting join (err %v):\n%s", err, analyzed)
	}
}

func TestLifecycleEventsAndSlowDumps(t *testing.T) {
	var dumps []string
	var mu sync.Mutex
	srv := testServer(t, Options{
		TraceEvents:    512,
		TraceSlowQuery: time.Nanosecond, // everything is slow
		TraceOnSlow: func(d string) {
			mu.Lock()
			dumps = append(dumps, d)
			mu.Unlock()
		},
	})
	sess := srv.Session()
	st, err := sess.PrepareNamed("Q3S")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	// A re-prepare served by the text index still traces a hit.
	if _, err := sess.PrepareNamed("Q3S"); err != nil {
		t.Fatal(err)
	}

	kinds := map[obs.Kind]int{}
	for _, ev := range srv.trace.Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []obs.Kind{obs.KindPrepare, obs.KindQueueWait, obs.KindExec, obs.KindSlowQuery} {
		if kinds[want] == 0 {
			t.Fatalf("no %v event traced (got %v)", want, kinds)
		}
	}
	// The first exec's feedback repairs the fresh plan at this scale.
	if kinds[obs.KindRepair] == 0 {
		t.Fatalf("no repair event traced (got %v)", kinds)
	}

	mu.Lock()
	got := len(dumps)
	mu.Unlock()
	if got != 2 {
		t.Fatalf("TraceOnSlow fired %d times, want 2", got)
	}
	slow := srv.SlowTraces()
	if len(slow) != 2 {
		t.Fatalf("SlowTraces retained %d dumps, want 2", len(slow))
	}
	for _, want := range []string{"slow query", "trace:", "EXPLAIN ANALYZE", "act="} {
		if !strings.Contains(slow[0], want) {
			t.Fatalf("slow dump missing %q:\n%s", want, slow[0])
		}
	}
}

func TestQueueWaitMeasured(t *testing.T) {
	srv := testServer(t, Options{MaxConcurrent: 1})
	sess := srv.Session()
	st, err := sess.PrepareNamed("Q3S")
	if err != nil {
		t.Fatal(err)
	}
	// Hold the single admission slot so every execution demonstrably queues.
	srv.sem <- struct{}{}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := st.Exec(); err != nil {
				t.Error(err)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); srv.queueWaits.Load() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 4 executions reached the admission gate", srv.queueWaits.Load())
		}
	}
	<-srv.sem
	wg.Wait()
	m := srv.Metrics()
	if m.QueueWait.Count != 4 || m.QueueWait.P50 <= 0 {
		t.Fatalf("queue-wait histogram: count=%d p50=%v, want 4 measured waits", m.QueueWait.Count, m.QueueWait.P50)
	}
	if m.QueueWaits != 4 {
		t.Fatalf("QueueWaits=%d, want 4: each execution waited once", m.QueueWaits)
	}
	if m.ExecLatency.Count != 4 || m.ExecLatency.P50 <= 0 {
		t.Fatalf("latency histogram: count=%d p50=%v", m.ExecLatency.Count, m.ExecLatency.P50)
	}
}

// TestRefusedExecIsNotQueued: an execution Shutdown refuses — one parked at
// the admission gate when Shutdown began, and one arriving after it — is
// neither counted as a queue wait nor observed in the wait histogram.
func TestRefusedExecIsNotQueued(t *testing.T) {
	srv := testServer(t, Options{MaxConcurrent: 1})
	st, err := srv.Session().PrepareNamed("Q3S")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	before := srv.Metrics()

	// Park one execution behind a held slot, then begin Shutdown, which
	// drains by taking every slot and so waits for the held one too.
	srv.sem <- struct{}{}
	done := make(chan error, 1)
	go func() {
		_, execErr := st.Exec()
		done <- execErr
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.queueWaits.Load() == before.QueueWaits; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("execution never reached the admission gate")
		}
	}
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown() }()
	for deadline := time.Now().Add(10 * time.Second); !srv.closed.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never began")
		}
	}
	<-srv.sem
	if err := <-done; err == nil {
		t.Fatal("an execution parked when Shutdown began ran")
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err == nil {
		t.Fatal("Exec succeeded after Shutdown")
	}
	m := srv.Metrics()
	if m.QueueWaits != before.QueueWaits || m.QueueWait.Count != before.QueueWait.Count || m.Execs != before.Execs {
		t.Fatalf("after two refused executions: QueueWaits %d, QueueWait.Count %d, Execs %d; before them %d, %d, %d",
			m.QueueWaits, m.QueueWait.Count, m.Execs, before.QueueWaits, before.QueueWait.Count, before.Execs)
	}
}

func TestMetricsReportAndJSON(t *testing.T) {
	srv := testServer(t, Options{})
	drive(t, srv, 2)
	m := srv.Metrics()
	text := m.String()
	for _, want := range []string{"latency: n=", "queue-wait: waited=", "est-err="} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics report missing %q:\n%s", want, text)
		}
	}

	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Execs", "Compiles", "ExecLatency", "QueueWait", "PerEntry", "FullOptTimeString"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("metrics JSON missing %q:\n%s", key, blob)
		}
	}
	if decoded["Execs"].(float64) != float64(m.Execs) {
		t.Fatalf("JSON Execs=%v, want %d", decoded["Execs"], m.Execs)
	}
}

func TestDebugHandlerScrape(t *testing.T) {
	srv := testServer(t, Options{TraceEvents: 128, ResultCacheBytes: 1 << 20})
	ts := httptest.NewServer(srv.DebugHandler())
	defer ts.Close()

	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// One prepare is one from-scratch optimization: microseconds, which the
	// seconds counter must already show.
	if _, err := srv.Session().PrepareNamed("Q1"); err != nil {
		t.Fatal(err)
	}
	optSeconds := 0.0
	for _, line := range strings.Split(get("/metrics"), "\n") {
		if v, ok := strings.CutPrefix(line, "repro_full_opt_seconds_total "); ok {
			optSeconds, _ = strconv.ParseFloat(v, 64)
		}
	}
	if optSeconds <= 0 || optSeconds >= 1 {
		t.Fatalf("repro_full_opt_seconds_total = %v after one prepare, want a fraction of a second", optSeconds)
	}

	drive(t, srv, 3)
	prom := get("/metrics")
	for _, want := range []string{
		"# TYPE repro_exec_latency_seconds histogram",
		"repro_exec_latency_seconds_bucket{le=",
		"repro_exec_latency_seconds_p50 ",
		"# TYPE repro_queue_wait_seconds histogram",
		"# TYPE repro_repair_seconds histogram",
		"repro_execs_total",
		"repro_compiles_total ",
		"repro_failed_execs_total ",
		"repro_builds_reused_total ",
		"repro_results_maintained_total ",
		"repro_conn_errors_total ",
		"repro_result_cache_evictions_total ",
		"repro_entry_est_error{entry=",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom[:min(len(prom), 2000)])
		}
	}
	// A driven workload has nonzero latency percentiles.
	for _, line := range strings.Split(prom, "\n") {
		if strings.HasPrefix(line, "repro_exec_latency_seconds_p50 ") {
			if strings.HasSuffix(line, " 0") {
				t.Fatalf("p50 is zero after a workload: %s", line)
			}
		}
	}

	jsonBody := get("/metrics.json")
	var decoded map[string]any
	if err := json.Unmarshal([]byte(jsonBody), &decoded); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}

	traces := get("/traces")
	if !strings.Contains(traces, "exec") || !strings.Contains(traces, "prepare") || !strings.Contains(traces, "\nevents=") {
		t.Fatalf("/traces missing lifecycle events:\n%s", traces)
	}

	if pprofIdx := get("/debug/pprof/"); !strings.Contains(pprofIdx, "goroutine") {
		t.Fatal("/debug/pprof/ index not served")
	}
}

func TestProtoAnalyzeAndTrace(t *testing.T) {
	srv := testServer(t, Options{TraceEvents: 64})

	var out strings.Builder
	script := strings.Join([]string{
		"query q3 Q3S",
		"analyze q3",
		"trace",
		"quit",
	}, "\n") + "\n"
	if err := srv.ServeConn(&rwPair{r: strings.NewReader(script), w: &out}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"| EXPLAIN ANALYZE",
		"act=",
		"ok rows=",
		"prepare", // traced bind event
		"exec",    // traced execution event
		"ok events=",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("protocol transcript missing %q:\n%s", want, got)
		}
	}
	// The reply counts exactly the events it printed.
	printed := strings.Count(got, "\n| #")
	if want := fmt.Sprintf("ok events=%d slow=0", printed); !strings.Contains(got, want) {
		t.Fatalf("trace printed %d events but its reply is not %q:\n%s", printed, want, got)
	}

	// Slow-query dumps alone are enough to trace: the command shows them,
	// as /traces does.
	slowOnly := testServer(t, Options{TraceSlowQuery: time.Nanosecond})
	out.Reset()
	if err := slowOnly.ServeConn(&rwPair{r: strings.NewReader("query q3 Q3S\nexec q3\ntrace\nquit\n"), w: &out}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| --- slow trace 1 ---", "| slow query [", "| EXPLAIN ANALYZE", "ok events=0 slow=1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("slow-only trace transcript missing %q:\n%s", want, out.String())
		}
	}

	// Tracing off: the trace command reports the misconfiguration.
	quiet := testServer(t, Options{})
	out.Reset()
	if err := quiet.ServeConn(&rwPair{r: strings.NewReader("trace\nquit\n"), w: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "err tracing disabled") {
		t.Fatalf("trace on a quiet server should error:\n%s", out.String())
	}
}
