package obs

import (
	"strings"
	"testing"

	"microbank/internal/sim"
)

func TestLabelFormatting(t *testing.T) {
	if got := fullName("mem.reads", nil); got != "mem.reads" {
		t.Fatalf("bare name = %q", got)
	}
	got := fullName("mem.reads", []Label{L("ch", 0), L("bank", 13)})
	if got != "mem.reads{ch=0,bank=13}" {
		t.Fatalf("labelled name = %q", got)
	}
}

func TestRegistryKindsAndOrder(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("b.gauge", func() float64 { return 2.5 })
	r.GaugeFunc("a.gauge", func() float64 { return 7 }, L("ch", 1))
	r.GaugeFunc("c.gauge", func() float64 { return -1 }, L("ch", 0), L("bank", 3))

	names := r.SeriesNames()
	want := []string{"b.gauge", "a.gauge{ch=1}", "c.gauge{ch=0,bank=3}"}
	if len(names) != len(want) || r.NumMetrics() != len(want) {
		t.Fatalf("series = %v (%d metrics)", names, r.NumMetrics())
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("series[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	samples := r.Gather()
	if len(samples) != len(want) {
		t.Fatalf("gathered %d samples, want %d", len(samples), len(want))
	}
	for i, v := range []float64{2.5, 7, -1} {
		if samples[i].Name != want[i] || samples[i].Value != v {
			t.Fatalf("sample %d = %+v, want %s = %v", i, samples[i], want[i], v)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("dup", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate gauge registration did not panic")
		}
	}()
	r.GaugeFunc("dup", func() float64 { return 1 })
}

// TestSamplerRecordsEpochsAndTerminates drives a model that stays busy
// for a while, then drains; the sampler must record epochs while the
// model runs and must not keep the engine alive afterwards.
func TestSamplerRecordsEpochsAndTerminates(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	var ticks float64
	r.GaugeFunc("model.ticks", func() float64 { return ticks })

	// Model: one event per 10ps for 100 events (ends at 1000ps).
	var step func(*sim.Engine)
	step = func(e *sim.Engine) {
		ticks++
		if ticks < 100 {
			e.After(10, step)
		}
	}
	eng.After(10, step)

	s := NewSampler(r, 250)
	s.Start(eng)
	eng.Run()

	if eng.Pending() != 0 {
		t.Fatalf("engine not drained: %d pending", eng.Pending())
	}
	// Epochs at 250, 500, 750, 1000 — the 1000ps tick fires after the
	// model's last event (priority order) and sees no other pending
	// events, so it samples and stops.
	if s.Epochs() < 3 || s.Epochs() > 5 {
		t.Fatalf("epochs = %d, want ~4", s.Epochs())
	}
	v, ok := s.Value(s.Epochs()-1, "model.ticks")
	if !ok {
		t.Fatal("series model.ticks missing")
	}
	if v != 100 {
		t.Fatalf("final sampled ticks = %v, want 100", v)
	}
}

func TestSamplerCSVAndJSON(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	n := 0.0
	r.GaugeFunc("g.one", func() float64 { n++; return n })
	r.GaugeFunc("g.two", func() float64 { return 2 }, L("ch", 0))
	eng.After(300, func(*sim.Engine) {})
	s := NewSampler(r, 100)
	s.Start(eng)
	eng.Run()

	csv := s.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "time_ps,g.one,g.two{ch=0}" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 1+s.Epochs() {
		t.Fatalf("csv rows = %d, epochs = %d", len(lines)-1, s.Epochs())
	}
	if !strings.HasPrefix(lines[1], "100,1,2") {
		t.Fatalf("csv first row = %q", lines[1])
	}

	js, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"epoch_ps": 100`, `"g.one"`, `"g.two{ch=0}"`, `"times_ps"`} {
		if !strings.Contains(string(js), want) {
			t.Fatalf("JSON missing %s:\n%s", want, js)
		}
	}
}

func TestSamplerZeroEpochPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero epoch did not panic")
		}
	}()
	NewSampler(NewRegistry(), 0)
}
