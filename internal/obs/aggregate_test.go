package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func findSample(t *testing.T, samples []Sample, name string) float64 {
	t.Helper()
	for _, s := range samples {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("sample %q not gathered (have %v)", name, samples)
	return 0
}

func TestAggregatorLifecycle(t *testing.T) {
	a := NewAggregator("headline")
	sweep := a.BeginSweep(3)
	if sweep != 0 {
		t.Fatalf("first sweep index = %d, want 0", sweep)
	}

	a.CellStarted(sweep, 0)
	a.CellStarted(sweep, 1)
	g := a.Gather()
	if v := findSample(t, g, "sweep.inflight"); v != 2 {
		t.Fatalf("inflight = %v, want 2", v)
	}

	a.CellDone(sweep, 0, []Sample{{"noc.packets", 10}, {"cpu.instr_retired", 100}})
	a.CellDone(sweep, 1, []Sample{{"noc.packets", 5}})
	a.CellFailed(CellFailure{Sweep: sweep, Cell: 2, Kind: "deadline", Error: "boom"})

	g = a.Gather()
	if v := findSample(t, g, "sweep.done"); v != 3 { // 2 done + 1 failed = progress 3/3
		t.Fatalf("done = %v, want 3", v)
	}
	if v := findSample(t, g, "sweep.failures"); v != 1 {
		t.Fatalf("failures = %v, want 1", v)
	}
	if v := findSample(t, g, "sweep.failures{kind=deadline}"); v != 1 {
		t.Fatalf("failures by kind = %v, want 1", v)
	}
	if v := findSample(t, g, "noc.packets"); v != 15 {
		t.Fatalf("merged noc.packets = %v, want 15", v)
	}

	a.Finish(nil)
	var st Status
	b, err := a.StatusJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Cells.Done != 2 || st.Cells.Failed != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.FailureKinds["deadline"] != 1 || len(st.Failures) != 1 || st.Failures[0].Error != "boom" {
		t.Fatalf("failure taxonomy = %+v", st)
	}
}

// TestAggregatorLiveView checks that an in-flight cell's latest epoch
// row rides the gather until the cell completes, at which point the
// final snapshot replaces it.
func TestAggregatorLiveView(t *testing.T) {
	a := NewAggregator("run")
	s := a.BeginSweep(1)
	a.CellStarted(s, 0)
	a.PublishEpoch(s, 0, 1000, []string{"cpu.commit_ipc"}, []float64{0.5})
	if v := findSample(t, a.Gather(), "cpu.commit_ipc"); v != 0.5 {
		t.Fatalf("live sample = %v, want 0.5", v)
	}
	a.PublishEpoch(s, 0, 2000, []string{"cpu.commit_ipc"}, []float64{0.75})
	if v := findSample(t, a.Gather(), "cpu.commit_ipc"); v != 0.75 {
		t.Fatalf("live sample = %v, want latest 0.75", v)
	}
	a.CellDone(s, 0, []Sample{{"cpu.commit_ipc", 0.6}})
	if v := findSample(t, a.Gather(), "cpu.commit_ipc"); v != 0.6 {
		t.Fatalf("final sample = %v, want 0.6 (live row retired)", v)
	}
}

// TestAggregatorOwnSeriesCollision: cell registries that registered the
// campaign-level sweep.* gauges (Resilience.RegisterMetrics) must not
// double-count into the aggregator's own series.
func TestAggregatorOwnSeriesCollision(t *testing.T) {
	a := NewAggregator("x")
	s := a.BeginSweep(1)
	a.CellStarted(s, 0)
	a.CellDone(s, 0, []Sample{{"sweep.failures", 9}, {"noc.packets", 1}})
	if v := findSample(t, a.Gather(), "sweep.failures"); v != 0 {
		t.Fatalf("own series overwritten by cell snapshot: %v", v)
	}
}

func TestAggregatorEvents(t *testing.T) {
	a := NewAggregator("run")
	ch, cancel := a.Subscribe(16)
	defer cancel()

	s := a.BeginSweep(1)
	a.CellStarted(s, 0)
	a.PublishEpoch(s, 0, 42, []string{"m"}, []float64{1})
	a.SetDiag(map[string]int{"events": 7})
	a.CellDone(s, 0, nil)
	a.Finish(nil)

	var types []string
	for len(types) == 0 || types[len(types)-1] != "done" {
		ev, ok := <-ch
		if !ok {
			t.Fatalf("channel closed before done event; saw %v", types)
		}
		if !json.Valid(ev.Data) {
			t.Fatalf("event %s carries invalid JSON: %s", ev.Type, ev.Data)
		}
		if strings.ContainsAny(string(ev.Data), "\n") {
			t.Fatalf("event %s payload is not single-line: %s", ev.Type, ev.Data)
		}
		types = append(types, ev.Type)
	}
	joined := strings.Join(types, " ")
	for _, want := range []string{"sweep", "cell", "progress", "epoch", "diag", "done"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q event in %v", want, types)
		}
	}

	// A cancelled subscriber's channel closes and later publishes do not
	// panic or block.
	cancel()
	a.publishProgress()
	if _, ok := <-ch; ok {
		// Drain any buffered events until close.
		for range ch {
		}
	}
}

// TestAggregatorConcurrent exercises the aggregator from many
// goroutines at once (the -j sweep case) under the race detector.
func TestAggregatorConcurrent(t *testing.T) {
	a := NewAggregator("sweep")
	const cells = 32
	s := a.BeginSweep(cells)
	ch, cancel := a.Subscribe(4) // deliberately small: drops must be safe
	defer cancel()
	go func() {
		for range ch {
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < cells; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a.CellStarted(s, c)
			a.PublishEpoch(s, c, uint64(c), []string{"m"}, []float64{1})
			if c%5 == 0 {
				a.CellFailed(CellFailure{Sweep: s, Cell: c, Kind: "panic", Error: "x"})
				return
			}
			a.CellDone(s, c, []Sample{{"m", 2}})
		}(c)
	}
	wg.Wait()
	g := a.Gather()
	done := findSample(t, g, "sweep.done")
	if done != cells {
		t.Fatalf("done = %v, want %d", done, cells)
	}
	if v := findSample(t, g, "sweep.inflight"); v != 0 {
		t.Fatalf("inflight = %v, want 0", v)
	}
}
