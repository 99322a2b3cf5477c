// Package stats provides the lightweight instrumentation primitives
// used throughout the simulator: ratio helpers, latency histograms,
// and fixed-width table rendering for the experiment harnesses.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Ratio returns a/b, or 0 when b is zero.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Histogram is a power-of-two bucketed latency histogram. The zero
// value is ready to use.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// Observe records one sample. Values at or above 2^62 share the top
// bucket (a 64-bit bit-length would otherwise index one past the
// array for values with bit 63 set).
func (h *Histogram) Observe(v uint64) {
	idx := 0
	for b := v; b > 0; b >>= 1 {
		idx++
	}
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest sample.
func (h *Histogram) Max() uint64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) using
// bucket upper edges capped at the observed maximum; it is exact to
// within a factor of two and never exceeds Max. The result is
// non-decreasing in q.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			if i == 0 {
				return 0
			}
			// The top bucket is open-ended (it absorbs everything at
			// or above 2^62), and in any bucket the true largest
			// sample may sit below the power-of-two edge — cap at the
			// observed maximum. Since bucket edges and Max are both
			// non-decreasing, the capped result stays monotone in q.
			edge := uint64(1)<<uint(i) - 1
			if i == len(h.buckets)-1 || edge > h.max {
				return h.max
			}
			return edge
		}
	}
	return h.max
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// MaxSlowdown returns the largest per-thread mean latency over the
// smallest, across histograms with at least one sample — the standard
// max-slowdown metric with the best-served thread standing in for the
// run-alone baseline (the simulator has no solo run to compare
// against). It is >= 1 whenever any thread has samples: 1 means
// perfectly even service, larger means the worst-served thread is
// that many times slower than the best. Returns 0 with no samples,
// +Inf when a thread's mean is zero while another's is not.
func MaxSlowdown(hists []Histogram) float64 {
	var minM, maxM float64
	seen := false
	for i := range hists {
		h := &hists[i]
		if h.Count() == 0 {
			continue
		}
		m := h.Mean()
		if !seen || m < minM {
			minM = m
		}
		if m > maxM {
			maxM = m
		}
		seen = true
	}
	switch {
	case !seen:
		return 0
	case minM > 0:
		return maxM / minM
	case maxM == 0:
		return 1
	default:
		return math.Inf(1)
	}
}

// FairnessIndex returns Jain's fairness index over per-thread mean
// latencies: (Σm)²/(n·Σm²) across the n threads with samples. It is 1
// when every thread sees the same mean latency and approaches 1/n
// under maximal skew; 0 with no samples.
func FairnessIndex(hists []Histogram) float64 {
	var sum, sumSq float64
	n := 0
	for i := range hists {
		h := &hists[i]
		if h.Count() == 0 {
			continue
		}
		m := h.Mean()
		sum += m
		sumSq += m * m
		n++
	}
	if n == 0 {
		return 0
	}
	if sumSq == 0 {
		return 1 // every mean is zero: identical service
	}
	return sum * sum / (float64(n) * sumSq)
}

// Table renders experiment output as a fixed-width text table matching
// the row/column structure of the paper's figures.
type Table struct {
	Title   string
	Header  []string
	rows    [][]string
	rowSeps map[int]bool
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header, rowSeps: map[int]bool{}}
}

// AddRow appends a row; values are formatted with %v, floats with 3
// decimal places (the paper's precision in Figs. 6, 8, 9).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddSeparator draws a rule after the last added row.
func (t *Table) AddSeparator() {
	t.rowSeps[len(t.rows)] = true
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the formatted cell (row, col); it panics if out of range.
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// Row returns a copy of the formatted cells of one data row; it panics
// if the row is out of range.
func (t *Table) Row(row int) []string {
	return append([]string(nil), t.rows[row]...)
}

// String renders the table. Rows may carry more cells than the header
// (the extra columns get empty header text); a separator added before
// any rows is suppressed, one added after the last row is drawn as a
// closing rule.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total < 2 {
		total = 2 // empty header and no rows: keep the rule non-negative
	}
	rule := strings.Repeat("-", total-2)
	b.WriteString(rule)
	b.WriteByte('\n')
	for i, r := range t.rows {
		line(r)
		if t.rowSeps[i+1] {
			b.WriteString(rule)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
