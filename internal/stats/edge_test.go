package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestHistogramHugeValues is the regression test for the top-bucket
// overflow: values with bit 63 set used to compute bucket index 64 and
// panic on the 64-entry bucket array.
func TestHistogramHugeValues(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{math.MaxUint64, 1 << 63, 1<<63 + 12345, 1<<62 - 1, 7} {
		h.Observe(v) // must not panic
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Max() != math.MaxUint64 {
		t.Fatalf("max = %d, want MaxUint64", h.Max())
	}
	if h.Min() != 7 {
		t.Fatalf("min = %d, want 7", h.Min())
	}
	// The p100 bound must equal the observed maximum, not a wrapped or
	// truncated bucket edge.
	if q := h.Quantile(1.0); q != math.MaxUint64 {
		t.Fatalf("Quantile(1.0) = %d, want MaxUint64", q)
	}
}

// TestHistogramQuantileCappedAtMax: every quantile is bounded by the
// observed maximum, even when the bucket's power-of-two upper edge
// lies above it.
func TestHistogramQuantileCappedAtMax(t *testing.T) {
	var h Histogram
	h.Observe(1000) // bucket edge 1023
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		if v := h.Quantile(q); v != 1000 {
			t.Fatalf("Quantile(%v) = %d, want capped at max 1000", q, v)
		}
	}
}

// TestHistogramQuantileMonotoneHuge extends the monotonicity property
// to samples spanning the full uint64 range, including top-bucket
// values.
func TestHistogramQuantileMonotoneHuge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < 100; i++ {
			v := rng.Uint64() >> uint(rng.Intn(64))
			h.Observe(v)
		}
		h.Observe(math.MaxUint64)
		prev := uint64(0)
		for q := 0.05; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev || v > h.Max() {
				return false
			}
			prev = v
		}
		return h.Quantile(1.0) == h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTableRowsWiderThanHeader: extra cells beyond the header render
// under empty header text instead of panicking.
func TestTableRowsWiderThanHeader(t *testing.T) {
	tb := NewTable("wide", "A")
	tb.AddRow("x", "extra1", "extra2")
	tb.AddRow("y")
	out := tb.String() // must not panic
	if !strings.Contains(out, "extra2") {
		t.Fatalf("wide cell missing from render:\n%s", out)
	}
	if tb.Cell(0, 2) != "extra2" {
		t.Fatalf("Cell(0,2) = %q", tb.Cell(0, 2))
	}
}

// TestTableSeparatorEdges: a separator before any rows is suppressed;
// one after the last row draws a closing rule.
func TestTableSeparatorEdges(t *testing.T) {
	tb := NewTable("", "A")
	tb.AddSeparator() // before row 0: suppressed
	tb.AddRow("x")
	tb.AddRow("y")
	tb.AddSeparator() // after last row: closing rule
	out := tb.String()
	// Exactly two rules: the one under the header plus the closing one.
	if got := strings.Count(out, "-"); got == 0 {
		t.Fatalf("no rules rendered:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	rules := 0
	for _, l := range lines {
		if strings.Trim(l, "-") == "" && l != "" {
			rules++
		}
	}
	if rules != 2 {
		t.Fatalf("rule count = %d, want 2 (header + closing):\n%s", rules, out)
	}
	if !strings.HasSuffix(strings.TrimRight(out, "\n"), "-") {
		t.Fatalf("closing rule missing:\n%s", out)
	}
}

// TestTableEmpty: a table with no header and no rows renders without
// panicking.
func TestTableEmpty(t *testing.T) {
	tb := NewTable("")
	_ = tb.String() // must not panic
}
