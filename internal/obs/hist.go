package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-linear bucketing, HDR-histogram style: histSub linear sub-buckets
// per power of two keep the relative error of any recorded value under
// 1/histSub (~6%) across the full int64 nanosecond range, with a fixed
// 8KB footprint and one atomic add per observation — cheap enough to
// leave on unconditionally.
// The top bucket (index histBuckets-1) ends exactly at MaxInt64, so every
// nonnegative int64 maps in range.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - histSubBits - 1
	sub := u >> uint(exp) // in [histSub, 2*histSub)
	return (exp+1)*histSub + int(sub) - histSub
}

// bucketUpper is the largest value mapping to bucket i (the inverse of
// bucketIndex, and the value Quantile reports for ranks landing in i).
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := i/histSub - 1
	sub := uint64(i%histSub + histSub)
	return int64((sub+1)<<uint(exp) - 1)
}

// Histogram is a concurrency-safe log-linear duration histogram (see the
// bucketing constants above). All methods are safe for concurrent use;
// Observe is wait-free (three atomic adds plus a bounded max CAS loop).
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// NewHistogram builds an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	h.buckets[bucketIndex(n)].Add(1)
	h.count.Add(1)
	h.sum.Add(n)
	for {
		m := h.max.Load()
		if n <= m || h.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the cumulative recorded duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest recorded duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) as the upper bound of the
// bucket holding that rank — within one sub-bucket (~6%) of the true
// value. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	// Nearest-rank with ceiling: the q-quantile is the smallest value with
	// at least ceil(q·total) observations at or below it. Flooring here
	// under-reports small counts — with two observations a floored p99
	// lands on rank 1 and returns the MINIMUM instead of the maximum.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		if c := h.buckets[i].Load(); c > 0 {
			seen += c
			if seen >= rank {
				return time.Duration(bucketUpper(i))
			}
		}
	}
	return h.Max()
}

// HistSummary is a point-in-time digest of a Histogram, embeddable in
// metrics snapshots.
type HistSummary struct {
	Count uint64
	Sum   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summary digests the histogram. The digest is computed from live atomic
// counters and is only approximately consistent under concurrent writes.
func (h *Histogram) Summary() HistSummary {
	return HistSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// ObserveInt64 records one nonnegative integer sample. The log-linear
// buckets are unit-agnostic — the same histogram digests nanoseconds or
// bytes — so size distributions (e.g. per-query peak memory) reuse the
// duration machinery verbatim.
func (h *Histogram) ObserveInt64(v int64) { h.Observe(time.Duration(v)) }

// IntSummary is a point-in-time digest of a Histogram recording integer
// samples (ObserveInt64), embeddable in metrics snapshots.
type IntSummary struct {
	Count uint64
	Sum   int64
	P50   int64
	P95   int64
	P99   int64
	Max   int64
}

// SummaryInt64 digests the histogram as integer samples. Like Summary, the
// digest is only approximately consistent under concurrent writes.
func (h *Histogram) SummaryInt64() IntSummary {
	return IntSummary{
		Count: h.Count(),
		Sum:   h.sum.Load(),
		P50:   int64(h.Quantile(0.50)),
		P95:   int64(h.Quantile(0.95)),
		P99:   int64(h.Quantile(0.99)),
		Max:   h.max.Load(),
	}
}

// String renders the integer digest as one metrics-style line.
func (s IntSummary) String() string {
	return fmt.Sprintf("n=%d sum=%d p50=%d p95=%d p99=%d max=%d",
		s.Count, s.Sum, s.P50, s.P95, s.P99, s.Max)
}

// WritePromIntHistogram writes a histogram of integer samples (bytes) to w
// in Prometheus text exposition format plus p50/p95/p99 gauges, mirroring
// WritePromHistogram without the nanoseconds→seconds scaling.
func (h *Histogram) WritePromIntHistogram(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	bi := 0
	for _, bound := range promBounds {
		for bi < histBuckets && bucketUpper(bi) <= bound {
			cum += h.buckets[bi].Load()
			bi++
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, bound, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(w, "%s_sum %d\n", name, h.sum.Load())
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
		fmt.Fprintf(w, "# TYPE %s_%s gauge\n%s_%s %d\n",
			name, q.suffix, name, q.suffix, int64(h.Quantile(q.q)))
	}
}

// Mean returns the average recorded duration (0 when empty).
func (s HistSummary) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// String renders the digest as one metrics-style line.
func (s HistSummary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean(), s.P50, s.P95, s.P99, s.Max)
}

// promBounds are the exported cumulative bucket boundaries, in
// nanoseconds: powers of 4 from 1µs-ish (1024ns) to ~4.6 minutes. The
// internal resolution is much finer; scrapes only need a stable,
// compact le-series.
var promBounds = func() []int64 {
	var b []int64
	for ns := int64(1 << 10); ns <= int64(1)<<38; ns <<= 2 {
		b = append(b, ns)
	}
	return b
}()

// WritePromHistogram writes the histogram to w in Prometheus text
// exposition format (seconds) as family name (TYPE histogram:
// name_bucket/_sum/_count) plus p50/p95/p99 gauges named name_p50 … so
// percentiles are directly greppable without PromQL.
func (h *Histogram) WritePromHistogram(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	// One pass over the fine-grained buckets, folding counts into the
	// coarse exported boundaries cumulatively.
	var cum uint64
	bi := 0
	for _, bound := range promBounds {
		for bi < histBuckets && bucketUpper(bi) <= bound {
			cum += h.buckets[bi].Load()
			bi++
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(bound)/1e9, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum().Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
		fmt.Fprintf(w, "# TYPE %s_%s gauge\n%s_%s %g\n",
			name, q.suffix, name, q.suffix, h.Quantile(q.q).Seconds())
	}
}

// WritePromCounter writes one counter sample in Prometheus text format: an
// event count, or a float64 accumulation such as seconds.
func WritePromCounter[T int | int64 | float64](w io.Writer, name, help string, v T) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
}

// WritePromGauge writes one gauge sample in Prometheus text format.
func WritePromGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}
