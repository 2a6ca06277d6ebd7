// Package stats provides the statistical machinery the cost model relies
// on: equi-depth histograms over int64 columns, distinct-value estimation,
// and the deterministic Zipf generator used to produce skewed data (our
// substitute for the Microsoft Research skewed TPC-D generator cited by the
// paper).
package stats

import (
	"fmt"
	"slices"
)

// Histogram is an equi-depth (equal-frequency) histogram over int64 values.
// Each of the B buckets covers (lo, hi] and holds approximately the same
// number of rows, so selectivity estimates have bounded relative error on
// skewed data — the property the paper's workload depends on.
type Histogram struct {
	// Bounds has B+1 entries: bucket i covers (Bounds[i], Bounds[i+1]].
	// Bounds[0] is min-1 so the first bucket includes the minimum.
	Bounds []int64
	// Counts[i] is the exact number of rows in bucket i.
	Counts []float64
	// DistinctPerBucket[i] estimates distinct values inside bucket i.
	DistinctPerBucket []float64
	Total             float64
}

// BuildHistogram constructs an equi-depth histogram with at most buckets
// buckets from the given column values. Values are copied and sorted.
func BuildHistogram(values []int64, buckets int) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	n := len(values)
	if n == 0 {
		return &Histogram{Bounds: []int64{0, 0}, Counts: []float64{0}, DistinctPerBucket: []float64{0}}
	}
	sorted := make([]int64, n)
	copy(sorted, values)
	slices.Sort(sorted)

	h := &Histogram{Total: float64(n)}
	h.Bounds = append(h.Bounds, sorted[0]-1)
	target := n / buckets
	if target < 1 {
		target = 1
	}
	i := 0
	for i < n {
		j := i + target
		if j > n {
			j = n
		}
		// Extend the bucket so equal values never straddle a boundary.
		for j < n && sorted[j] == sorted[j-1] {
			j++
		}
		hi := sorted[j-1]
		distinct := 1.0
		for k := i + 1; k < j; k++ {
			if sorted[k] != sorted[k-1] {
				distinct++
			}
		}
		h.Bounds = append(h.Bounds, hi)
		h.Counts = append(h.Counts, float64(j-i))
		h.DistinctPerBucket = append(h.DistinctPerBucket, distinct)
		i = j
	}
	return h
}

// Min returns the minimum value covered.
func (h *Histogram) Min() int64 { return h.Bounds[0] + 1 }

// Max returns the maximum value covered.
func (h *Histogram) Max() int64 { return h.Bounds[len(h.Bounds)-1] }

// Distinct estimates the total number of distinct values.
func (h *Histogram) Distinct() float64 {
	var d float64
	for _, v := range h.DistinctPerBucket {
		d += v
	}
	if d < 1 {
		d = 1
	}
	return d
}

// FracLE estimates the fraction of rows with value <= v, interpolating
// linearly within the containing bucket.
func (h *Histogram) FracLE(v int64) float64 {
	if h.Total == 0 {
		return 0
	}
	if v <= h.Bounds[0] {
		return 0
	}
	if v >= h.Max() {
		return 1
	}
	var acc float64
	for i := range h.Counts {
		lo, hi := h.Bounds[i], h.Bounds[i+1]
		if v > hi {
			acc += h.Counts[i]
			continue
		}
		span := float64(hi - lo)
		if span <= 0 {
			span = 1
		}
		acc += h.Counts[i] * float64(v-lo) / span
		break
	}
	return clamp01(acc / h.Total)
}

// FracEQ estimates the fraction of rows with value == v using the distinct
// count of the containing bucket.
func (h *Histogram) FracEQ(v int64) float64 {
	if h.Total == 0 {
		return 0
	}
	if v <= h.Bounds[0] || v > h.Max() {
		return 0
	}
	for i := range h.Counts {
		if v <= h.Bounds[i+1] {
			d := h.DistinctPerBucket[i]
			if d < 1 {
				d = 1
			}
			return clamp01(h.Counts[i] / d / h.Total)
		}
	}
	return 0
}

// FracCmp estimates the selectivity of "col op v" for the comparison
// operators used by the query model. op is one of "=", "<>", "<", "<=",
// ">", ">=".
func (h *Histogram) FracCmp(op string, v int64) (float64, error) {
	switch op {
	case "=":
		return h.FracEQ(v), nil
	case "<>":
		return clamp01(1 - h.FracEQ(v)), nil
	case "<":
		return h.FracLE(v - 1), nil
	case "<=":
		return h.FracLE(v), nil
	case ">":
		return clamp01(1 - h.FracLE(v)), nil
	case ">=":
		return clamp01(1 - h.FracLE(v-1)), nil
	}
	return 0, fmt.Errorf("stats: unknown comparison %q", op)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
