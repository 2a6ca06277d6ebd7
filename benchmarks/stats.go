package main

import (
	"math"
	"sort"
)

// The driver's arithmetic: everything the end-to-end metrics are computed
// with, kept free of clocks and workloads so stats_test.go can check it on
// hand-built matrices.

// median returns the middle value of xs (mean of the two middle values for
// an even count) without disturbing xs. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs: the smallest value with
// at least p·n values at or below it.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return s[i]
}

// tailPercentile picks the percentile reported as op_tail_ms for n
// positions: the highest of p99, p95, p90, p75 that still leaves at least
// ten positions beyond it, so the tail is never one sample's luck. Below 40
// positions no such percentile exists and the median stands in.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.90, 0.75} {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			return p
		}
	}
	return 0.5
}

// iqrShare is the distance between the first and third quartile of xs as a
// share of their median — the spread the acceptance check uses. Quartiles
// follow Python's statistics.quantiles(xs, n=4) (exclusive method).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// latMatrix holds every timed op's latency in nanoseconds, preallocated
// before the timed phase so recording allocates nothing:
// ns[round][client*L+pos].
type latMatrix struct {
	clients, length int
	ns              [][]int64
}

func newLatMatrix(maxRounds, clients, length int) *latMatrix {
	m := &latMatrix{clients: clients, length: length, ns: make([][]int64, maxRounds)}
	for r := range m.ns {
		m.ns[r] = make([]int64, clients*length)
	}
	return m
}

// positionBest returns b_i for every schedule position: the fastest of the
// first rounds rounds' executions of that position, in milliseconds,
// client-major. Interference from neighbours only ever adds time, lands on
// different positions in different rounds, and is gone from the minimum once
// one round ran the position undisturbed; cost that belongs to an op lands on
// the same position every round and stays in.
func (m *latMatrix) positionBest(rounds int) []float64 {
	out := make([]float64, m.clients*m.length)
	for i := range out {
		best := m.ns[0][i]
		for r := 1; r < rounds; r++ {
			if v := m.ns[r][i]; v < best {
				best = v
			}
		}
		out[i] = float64(best) / 1e6
	}
	return out
}

// summary is the three latency-derived end-to-end metrics.
type summary struct {
	opsPerS, p50ms, tailMs, tailP float64
}

// summarize folds per-position times (client-major, ms) into the end-to-end
// metrics. Throughput is the sum over clients of the rate each would sustain
// if every op took its per-position time: ops ÷ Σ b_i.
func summarize(best []float64, clients int) summary {
	length := len(best) / clients
	var s summary
	for c := 0; c < clients; c++ {
		var sum float64
		for _, v := range best[c*length : (c+1)*length] {
			sum += v
		}
		if sum > 0 {
			s.opsPerS += float64(length) / (sum / 1e3)
		}
	}
	s.p50ms = median(best)
	s.tailP = tailPercentile(len(best))
	s.tailMs = percentile(best, s.tailP)
	return s
}

// rawPercentile pools every latency of the first rounds rounds, interference
// and all — what a time-boxed benchmark would report, kept as a diagnostic.
func (m *latMatrix) rawPercentile(rounds int, p float64) float64 {
	all := make([]float64, 0, rounds*m.clients*m.length)
	for r := 0; r < rounds; r++ {
		for _, v := range m.ns[r] {
			all = append(all, float64(v)/1e6)
		}
	}
	return percentile(all, p)
}
