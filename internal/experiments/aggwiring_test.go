package experiments

// Tests for the campaign-aggregator wiring in mapRuns: cell lifecycle
// events, per-cell registry merging, failure accounting, and the
// invariant that attaching an aggregator changes no result.

import (
	"reflect"
	"testing"

	"microbank/internal/config"
	"microbank/internal/obs"
	"microbank/internal/parallel"
	"microbank/internal/system"
)

func aggValue(t *testing.T, agg *obs.Aggregator, name string) float64 {
	t.Helper()
	for _, s := range agg.Gather() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("aggregator did not gather %q", name)
	return 0
}

// tinySpec is a fast single-core run for exercising the sweep wiring.
func tinySpec(seed int64) system.Spec {
	o := Options{Quick: true, Instr: 4000, Seed: seed}.withDefaults()
	return singleSpec("429.mcf", config.LPDDRTSI, 1, 1, nil, o)
}

func TestMapRunsFeedsAggregator(t *testing.T) {
	agg := obs.NewAggregator("test")
	o := Options{Quick: true, Instr: 4000, Parallelism: 2, Agg: agg}
	results, failed, err := mapRuns(o, []int64{10, 20, 30}, tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 { // healthy sweep: no failure mask
		t.Fatalf("failed mask = %v, want none", failed)
	}
	var instr float64
	for _, r := range results {
		for _, c := range r.PerCore {
			instr += float64(c.Instructions)
		}
	}
	if v := aggValue(t, agg, "sweep.done"); v != 3 {
		t.Fatalf("sweep.done = %v, want 3", v)
	}
	if v := aggValue(t, agg, "sweep.inflight"); v != 0 {
		t.Fatalf("sweep.inflight = %v, want 0", v)
	}
	// Per-cell snapshots merge by summation over the three cells.
	if v := aggValue(t, agg, "cpu.instr_retired"); v != instr {
		t.Fatalf("merged cpu.instr_retired = %v, want %v", v, instr)
	}
}

func TestMapRunsAggregatorFailures(t *testing.T) {
	agg := obs.NewAggregator("test")
	res := &Resilience{Mode: parallel.FailDegrade}
	o := Options{Quick: true, Instr: 4000, Parallelism: 2, Res: res, Agg: agg}
	_, failed, err := mapRuns(o, []int{0, 1}, func(j int) system.Spec {
		spec := tinySpec(42)
		if j == 1 {
			spec.Profiles = nil // invalid: system.Run refuses it
		}
		return spec
	})
	if err != nil {
		t.Fatal(err)
	}
	if !failed[1] || failed[0] {
		t.Fatalf("failed mask = %v", failed)
	}
	if v := aggValue(t, agg, "sweep.failures"); v != 1 {
		t.Fatalf("sweep.failures = %v, want 1", v)
	}
	if v := aggValue(t, agg, "sweep.failures{kind=error}"); v != 1 {
		t.Fatalf("failure kind taxonomy = %v, want 1", v)
	}
	if v := aggValue(t, agg, "sweep.done"); v != 2 { // 1 done + 1 failed
		t.Fatalf("sweep.done = %v, want 2", v)
	}
}

// TestAggregatorDoesNotPerturbSweep: the same real sweep with and
// without an aggregator attached must produce identical tables — the
// observability plane is read-only.
func TestAggregatorDoesNotPerturbSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweep")
	}
	o := Options{Quick: true, Instr: 6000, Parallelism: 2}
	plain, err := Headline(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Agg = obs.NewAggregator("headline")
	observed, err := Headline(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observed, plain) {
		t.Errorf("aggregated sweep diverged:\n got: %+v\nwant: %+v", observed, plain)
	}
	if v := aggValue(t, o.Agg, "sweep.done"); v == 0 {
		t.Error("aggregator saw no cells during the headline sweep")
	}
	// Real per-cell registries merged: the memory-controller series must
	// be present in the campaign view.
	if v := aggValue(t, o.Agg, "cpu.instr_retired"); v <= 0 {
		t.Errorf("merged cpu.instr_retired = %v, want > 0", v)
	}
}
