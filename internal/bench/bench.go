// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§5), each emitting the same rows/series the
// paper reports, as plain text tables. cmd/reprobench drives it. Of the
// root package's testing.B benchmarks (bench_test.go) only Figure 6's wraps
// its runner; the others re-implement their figure's measured kernel.
package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/relalg"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	all := append([][]string{t.Header}, t.Rows...)
	width := make([]int, 0)
	for _, r := range all {
		for i, c := range r {
			if i >= len(width) {
				width = append(width, 0)
			}
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	for ri, r := range all {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := range t.Header {
				b.WriteString(strings.Repeat("-", width[i]) + "  ")
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// planCost renders a plan's cost exactly: the shortest decimal that parses
// back to the same float64.
func planCost(p *relalg.Plan) string { return strconv.FormatFloat(p.Cost, 'g', -1, 64) }

func ms(d time.Duration) string { return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6) }

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
