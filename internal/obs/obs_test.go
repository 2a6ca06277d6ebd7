package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpanNilSafe(t *testing.T) {
	var s *Span
	if s.Time() != 0 {
		t.Fatalf("nil span time = %v", s.Time())
	}
	real := &Span{Batches: 3, Rows: 24, Nanos: int64(4 * time.Millisecond)}
	if real.Time() != 4*time.Millisecond {
		t.Fatalf("span = %+v", real)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 1000, 1 << 20, 1<<20 + 12345, 1 << 40, math.MaxInt64} {
		i := bucketIndex(v)
		up := bucketUpper(i)
		if v > up {
			t.Fatalf("value %d above its bucket upper %d (bucket %d)", v, up, i)
		}
		if up > v && float64(up-v) > 0.07*float64(v)+1 {
			t.Fatalf("bucket upper %d too far above %d: relative error %.3f", up, v, float64(up-v)/float64(v))
		}
		if i > 0 && bucketUpper(i-1) >= v {
			t.Fatalf("value %d should not fit bucket %d (upper %d)", v, i-1, bucketUpper(i-1))
		}
	}
	// Monotone uppers, no index out of range across the whole span.
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		u := bucketUpper(i)
		if u <= prev {
			t.Fatalf("bucketUpper not strictly increasing at %d: %d <= %d", i, u, prev)
		}
		prev = u
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1000 observations: 1ms..1000ms linear.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	check := func(q float64, want time.Duration) {
		got := h.Quantile(q)
		lo := time.Duration(float64(want) * 0.90)
		hi := time.Duration(float64(want) * 1.10)
		if got < lo || got > hi {
			t.Fatalf("q%.2f = %v, want within 10%% of %v", q, got, want)
		}
	}
	check(0.50, 500*time.Millisecond)
	check(0.95, 950*time.Millisecond)
	check(0.99, 990*time.Millisecond)
	if h.Max() != time.Second {
		t.Fatalf("max = %v", h.Max())
	}
	s := h.Summary()
	if s.Count != 1000 || s.P50 == 0 || s.Mean() == 0 {
		t.Fatalf("summary = %+v", s)
	}
	if !strings.Contains(s.String(), "p95=") {
		t.Fatalf("summary string = %q", s.String())
	}
}

func TestHistogramEmptyAndConcurrent(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Summary().Mean() != 0 {
		t.Fatal("empty histogram should be all zeros")
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if h.Count() != 4000 {
		t.Fatalf("concurrent count = %d", h.Count())
	}
}

func TestPromRendering(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Millisecond)
	}
	var b strings.Builder
	h.WritePromHistogram(&b, "repro_test_seconds", "test latency")
	out := b.String()
	for _, s := range []string{
		"# TYPE repro_test_seconds histogram",
		`repro_test_seconds_bucket{le="+Inf"} 100`,
		"repro_test_seconds_count 100",
		"repro_test_seconds_p50 ",
		"repro_test_seconds_p99 ",
	} {
		if !strings.Contains(out, s) {
			t.Fatalf("prom output missing %q:\n%s", s, out)
		}
	}
	// p50 must be nonzero and in seconds (~0.002).
	if strings.Contains(out, "repro_test_seconds_p50 0\n") {
		t.Fatalf("p50 rendered as zero:\n%s", out)
	}
	var c strings.Builder
	WritePromCounter(&c, "repro_test_total", "count", 7)
	WritePromGauge(&c, "repro_test_gauge", "gauge", 1.5)
	if !strings.Contains(c.String(), "repro_test_total 7") || !strings.Contains(c.String(), "repro_test_gauge 1.5") {
		t.Fatalf("counter/gauge output:\n%s", c.String())
	}
}

func TestTracerRingAndSince(t *testing.T) {
	var nilT *Tracer
	nilT.Emit(Event{Kind: KindExec}) // no-op
	if nilT.Enabled() || nilT.Events() != nil || nilT.Seq() != 0 {
		t.Fatal("nil tracer should be inert")
	}

	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		tr.Emit(Event{Kind: KindExec, A: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("ring kept %d events, want 16", len(evs))
	}
	if evs[0].Seq != 25 || evs[len(evs)-1].Seq != 40 {
		t.Fatalf("ring span = [%d, %d], want [25, 40]", evs[0].Seq, evs[len(evs)-1].Seq)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %+v", i, evs)
		}
	}
	since := tr.Since(38)
	if len(since) != 2 || since[0].Seq != 39 {
		t.Fatalf("Since(38) = %+v", since)
	}
	if tr.Seq() != 40 {
		t.Fatalf("Seq = %d", tr.Seq())
	}
	if got := tr.Since(40); len(got) != 0 {
		t.Fatalf("Since(latest) = %+v", got)
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindPrepare, Query: "ab12", Note: "miss", A: 3}, "miss warm=3"},
		{Event{Kind: KindQueueWait, Dur: time.Millisecond}, "wait=1ms"},
		{Event{Kind: KindExec, A: 42, B: 2, Dur: time.Millisecond, Note: "repaired"}, "rows=42 v=2 dur=1ms repaired"},
		{Event{Kind: KindRepair, A: 5, B: 3, Dur: time.Microsecond}, "touched=5 v=3"},
		{Event{Kind: KindResultCache, Note: "probe-hit", A: 1}, "probe-hit n=1"},
		{Event{Kind: KindSlowQuery, Dur: time.Second, Note: "10ms"}, "threshold=10ms"},
		{Event{Kind: KindPhase, Note: "shift", A: 2, V: 0.25}, "shift end est-err=0.250"},
	}
	for _, c := range cases {
		if got := c.e.String(); !strings.Contains(got, c.want) {
			t.Fatalf("event %v rendered %q, want substring %q", c.e.Kind, got, c.want)
		}
	}
	if KindPrepare.String() != "prepare" || Kind(99).String() == "" {
		t.Fatal("kind names")
	}
}

func TestTextRing(t *testing.T) {
	var nilR *TextRing
	nilR.Add("x")
	if nilR.All() != nil {
		t.Fatal("nil ring should be inert")
	}
	r := NewTextRing(3)
	for _, s := range []string{"a", "b", "c", "d"} {
		r.Add(s)
	}
	got := r.All()
	if len(got) != 3 || got[0] != "b" || got[2] != "d" {
		t.Fatalf("ring = %v", got)
	}
}
