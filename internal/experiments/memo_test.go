package experiments

// Tests for the campaign memory tier: a Resilience replays every run
// spec it already simulated, hands out unaliased results, never
// memoizes a failure, and shares nothing with another campaign.

import (
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"microbank/internal/obs"
	"microbank/internal/parallel"
)

// sweepTally counts a campaign's cell lifecycle as its aggregator saw
// it: the (sweep, cell) pairs that started a simulation, the ones
// replayed from the campaign's memory or the store, and the Progress
// callbacks.
type sweepTally struct {
	started, replayed map[[2]int]bool
	progress          int
}

// fig8Tally runs Fig. 8 with a fresh aggregator and tallies its cells.
func fig8Tally(t *testing.T, o Options) ([]*GridData, sweepTally) {
	t.Helper()
	agg := obs.NewAggregator("fig8")
	events, cancel := agg.Subscribe(1 << 12)
	var progress atomic.Int64
	o.Agg = agg
	o.Progress = func(int, int) { progress.Add(1) }
	grids, err := Fig8(o)
	cancel()
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	tally := sweepTally{started: map[[2]int]bool{}, replayed: map[[2]int]bool{},
		progress: int(progress.Load())}
	n := 0
	for ev := range events {
		n++
		if ev.Type != "cell" {
			continue
		}
		var c struct {
			Sweep, Cell int
			State       string
		}
		if err := json.Unmarshal(ev.Data, &c); err != nil {
			t.Fatal(err)
		}
		switch c.State {
		case "start":
			tally.started[[2]int{c.Sweep, c.Cell}] = true
		case "replayed":
			tally.replayed[[2]int{c.Sweep, c.Cell}] = true
		}
	}
	if n == 1<<12 {
		t.Fatal("event buffer filled; the tally may have dropped events")
	}
	return grids, tally
}

// TestSweepReplaysRepeatedSpecs: the quick Fig. 8 sweep runs 429.mcf
// as its own panel and again inside spec-high. With no Resilience
// given, the campaign simulates each distinct spec once — 100 of 125
// cells — and the grids are bit-identical to simulating every
// benchmark in isolation. Replays are unaliased, and a failed cell is
// never memoized.
func TestSweepReplaysRepeatedSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick Fig. 8 sweep three times")
	}
	o := Options{Quick: true, Instr: 4000, Parallelism: 2}
	grids, tally := fig8Tally(t, o)
	if len(tally.started) != 100 || len(tally.replayed) != 25 || tally.progress != 125 {
		t.Fatalf("%d cells started, %d replayed, progress %d; want 100, 25, 125",
			len(tally.started), len(tally.replayed), tally.progress)
	}
	for c := 0; c < 25; c++ { // sweep 1 is spec-high's 429.mcf
		if !tally.replayed[[2]int{1, c}] {
			t.Fatalf("spec-high 429.mcf cell %d was not replayed", c)
		}
	}

	// Reference: every benchmark's grid simulated under its own
	// Resilience, reduced as gridsFor reduces a healthy sweep.
	ref := o.withDefaults()
	for i, panel := range Fig8Workloads {
		names := specGroup(panel, true)
		want := map[[2]int]float64{}
		for _, name := range names {
			ref.Res = &Resilience{}
			cells, failed, err := runGridCells(name, ref)
			if err != nil || failed != nil {
				t.Fatalf("reference %s: err %v, failed %v", name, err, failed)
			}
			base := cells[[2]int{1, 1}]
			for k, c := range cells {
				want[k] += c.ipc / base.ipc / float64(len(names))
			}
		}
		if !reflect.DeepEqual(grids[i].Rel, want) || grids[i].Missing != nil {
			t.Fatalf("%s grid differs from the unshared reference:\ngot  %v\nwant %v",
				panel, grids[i].Rel, want)
		}
	}

	// Every replay decodes a fresh Result, so a caller that edits one
	// (here its PerCore slice) changes neither the campaign's memory
	// nor any later replay.
	t.Run("unaliased", func(t *testing.T) {
		agg := obs.NewAggregator("test")
		o := Options{Quick: true, Instr: 4000, Parallelism: 1, Res: &Resilience{}, Agg: agg}
		instr := func() uint64 {
			t.Helper()
			results, failed, err := mapRuns(o, []int64{7}, tinySpec)
			if err != nil || failed != nil {
				t.Fatalf("mapRuns: err %v, failed %v", err, failed)
			}
			got := results[0].PerCore[0].Instructions
			results[0].PerCore[0].Instructions = 1
			return got
		}
		want := instr() // simulated
		for i := 0; i < 2; i++ {
			if got := instr(); got != want { // replayed
				t.Fatalf("replay %d after an edit: %d instructions, want %d", i, got, want)
			}
		}
		// Only the first call simulated: one cell's metrics were merged.
		if v := aggValue(t, agg, "cpu.instr_retired"); v != float64(want) {
			t.Fatalf("merged cpu.instr_retired = %v, want one run's %d", v, want)
		}
	})

	// Under degrade with an injected error at campaign cell 3 (429.mcf
	// at (8,1)), cell 28 — the same spec inside spec-high — must
	// simulate and come out healthy.
	t.Run("failure not memoized", func(t *testing.T) {
		r := &Resilience{Mode: parallel.FailDegrade}
		if err := r.SetInject("error:3"); err != nil {
			t.Fatal(err)
		}
		o := o
		o.Res = r
		failedGrids, tally := fig8Tally(t, o)
		fails := r.Log.Failures()
		if len(fails) != 1 || fails[0].Sweep != 0 || fails[0].Cell != 3 || fails[0].Kind != FailKindError {
			t.Fatalf("failures = %+v, want the injected error at sweep 0 cell 3", fails)
		}
		if !tally.started[[2]int{1, 3}] || tally.replayed[[2]int{1, 3}] {
			t.Fatal("campaign cell 28 replayed; a failed spec must simulate again")
		}
		if len(tally.started) != 100 || len(tally.replayed) != 24 {
			t.Fatalf("%d cells started, %d replayed; want 100, 24", len(tally.started), len(tally.replayed))
		}
		if !failedGrids[0].Missing[[2]int{8, 1}] {
			t.Fatal("429.mcf panel does not mark its failed (8,1) cell")
		}
		if !reflect.DeepEqual(failedGrids[1], grids[1]) {
			t.Fatalf("spec-high grid differs from the healthy sweep:\ngot  %v\nwant %v", failedGrids[1], grids[1])
		}
	})
}

// TestCampaignsShareNothing: each top-level call with a nil Res is its
// own campaign, so a second Fig. 8 call simulates its 100 distinct
// specs again rather than replaying the first call's.
func TestCampaignsShareNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick Fig. 8 sweep twice")
	}
	o := Options{Quick: true, Instr: 4000, Parallelism: 2}
	for call := 0; call < 2; call++ {
		if _, tally := fig8Tally(t, o); len(tally.started) != 100 {
			t.Fatalf("call %d simulated %d cells, want 100", call, len(tally.started))
		}
	}
}
