package stats

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRatio(t *testing.T) {
	if Ratio(1, 2) != 0.5 {
		t.Error("Ratio(1,2) != 0.5")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio by zero should be 0")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, v := range []uint64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 22 {
		t.Fatalf("mean = %v, want 22", got)
	}
	if q := h.Quantile(0.5); q < 2 || q > 4 {
		t.Fatalf("median bound = %d, want within [2,4]", q)
	}
	if h.Quantile(1.0) < 64 {
		t.Fatalf("p100 bound = %d, want >= 64", h.Quantile(1.0))
	}
	if h.Quantile(2.0) != h.Quantile(1.0) {
		t.Fatal("q>1 not clamped")
	}
}

func TestHistogramZeroSample(t *testing.T) {
	var h Histogram
	h.Observe(0)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("zero sample mishandled: %+v", h)
	}
	if h.Quantile(0.5) != 0 {
		t.Fatalf("quantile of all-zero = %d", h.Quantile(0.5))
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := uint64(1); i <= 10; i++ {
		a.Observe(i)
	}
	for i := uint64(100); i <= 109; i++ {
		b.Observe(i)
	}
	a.Merge(&b)
	if a.Count() != 20 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 1 || a.Max() != 109 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 20 {
		t.Fatal("merging empty changed count")
	}
	empty.Merge(&a)
	if empty.Count() != 20 || empty.Min() != 1 {
		t.Fatal("merge into empty lost state")
	}
}

// Property: quantile bound is monotone in q and never below min/above
// max-rounded-up.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < 200; i++ {
			h.Observe(uint64(rng.Intn(100000)))
		}
		prev := uint64(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Fig. X", "nW", "nB", "IPC")
	tb.AddRow(1, 1, 1.0)
	tb.AddSeparator()
	tb.AddRow(16, 16, 1.548)
	out := tb.String()
	if !strings.Contains(out, "Fig. X") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "1.548") {
		t.Errorf("float not rendered to 3 places: %q", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	if tb.Cell(1, 2) != "1.548" {
		t.Errorf("Cell(1,2) = %q", tb.Cell(1, 2))
	}
	if strings.Count(out, "----") < 2 {
		t.Errorf("separator rule missing:\n%s", out)
	}
	// float32 path
	tb2 := NewTable("", "v")
	tb2.AddRow(float32(2.5))
	if tb2.Cell(0, 0) != "2.500" {
		t.Errorf("float32 cell = %q", tb2.Cell(0, 0))
	}
}
