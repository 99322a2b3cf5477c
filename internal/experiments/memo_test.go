package experiments

// Tests for the campaign memory tier: a Resilience replays every run
// spec it already simulated, hands out unaliased results, never
// memoizes a failure, and shares nothing with another campaign.

import (
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"microbank/internal/config"
	"microbank/internal/obs"
	"microbank/internal/system"
)

// tinySpec is a fast single-core run for exercising the sweep wiring.
func tinySpec(seed int64) system.Spec {
	o := Options{Quick: true, Instr: 4000, Seed: seed}.withDefaults()
	return specFor("429.mcf", point{iface: config.LPDDRTSI, nW: 1, nB: 1}, o)
}

// countSims runs f with mapRuns's runSpec swapped for a wrapper that
// counts the simulations f causes, per run spec digest. Tests in this
// package do not run in parallel, so the swap is safe.
func countSims(t *testing.T, f func()) map[string]int {
	t.Helper()
	var mu sync.Mutex
	sims := map[string]int{}
	runSpec = func(spec system.Spec) (system.Result, error) {
		d, err := spec.Digest()
		if err != nil {
			t.Errorf("simulated a spec without a digest: %v", err)
		}
		mu.Lock()
		sims[d]++
		mu.Unlock()
		return system.Run(spec)
	}
	defer func() { runSpec = system.Run }()
	f()
	return sims
}

// sweepTally counts a campaign's simulations per run spec digest and
// its Progress callbacks, which fire for every completed cell,
// simulated or replayed.
type sweepTally struct {
	sims     map[string]int
	progress int
}

// simulated returns how many simulations ran.
func (s sweepTally) simulated() int {
	n := 0
	for _, c := range s.sims {
		n += c
	}
	return n
}

// of returns how many times spec was simulated.
func (s sweepTally) of(t *testing.T, spec system.Spec) int {
	t.Helper()
	d, err := spec.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return s.sims[d]
}

// fig8Tally runs Fig. 8 and tallies its simulations.
func fig8Tally(t *testing.T, o Options) ([]*GridData, sweepTally) {
	t.Helper()
	var progress atomic.Int64
	o.Progress = func(int, int) { progress.Add(1) }
	var (
		grids []*GridData
		err   error
	)
	sims := countSims(t, func() { grids, err = Fig8(o) })
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	return grids, sweepTally{sims: sims, progress: int(progress.Load())}
}

// mcfSpec is the quick Fig. 8 run spec of 429.mcf at (nW, nB).
func mcfSpec(o Options, nW, nB int) system.Spec {
	return specFor("429.mcf", point{iface: config.LPDDRTSI, nW: nW, nB: nB}, o.withDefaults())
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
	// Every completed cell reports progress; the ones that did not
	// simulate replayed.
	if sim := tally.simulated(); sim != 100 || tally.progress-sim != 25 || tally.progress != 125 {
		t.Fatalf("%d cells simulated, %d replayed, progress %d; want 100, 25, 125",
			sim, tally.progress-sim, tally.progress)
	}
	// 429.mcf runs as sweep 0, and again as sweep 1 inside spec-high.
	// Sweeps run one after another, so simulating each of its specs
	// once means spec-high's cells 0-24 all replayed.
	for _, nB := range Axis {
		for _, nW := range Axis {
			if n := tally.of(t, mcfSpec(o, nW, nB)); n != 1 {
				t.Fatalf("429.mcf (%d,%d) simulated %d times; spec-high's cell was not replayed", nW, nB, n)
			}
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
			cells := gridPlan(name, ref)
			if err := mapRuns(ref, cells); err != nil {
				t.Fatalf("reference %s: %v", name, err)
			}
			for _, c := range cells {
				want[c.key.([2]int)] += c.res.IPC / cells[0].res.IPC / float64(len(names))
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
		o := Options{Quick: true, Instr: 4000, Parallelism: 1, Res: &Resilience{}}
		instr := func() uint64 {
			t.Helper()
			p := plan{{key: 0, spec: func() system.Spec { return tinySpec(7) }}}
			if err := mapRuns(o, p); err != nil || p[0].res == nil {
				t.Fatalf("mapRuns: err %v, result %v", err, p[0].res)
			}
			got := p[0].res.PerCore[0].Instructions
			p[0].res.PerCore[0].Instructions = 1
			return got
		}
		sims := countSims(t, func() {
			want := instr() // simulated
			for i := 0; i < 2; i++ {
				if got := instr(); got != want { // replayed
					t.Fatalf("replay %d after an edit: %d instructions, want %d", i, got, want)
				}
			}
		})
		// Only the first call simulated.
		if n := (sweepTally{sims: sims}).simulated(); n != 1 {
			t.Fatalf("%d simulations, want one", n)
		}
	})

	// Under collect with an injected error at campaign cell 3 (429.mcf
	// at (8,1)), cell 28 — the same spec inside spec-high — must
	// simulate and come out healthy.
	t.Run("failure not memoized", func(t *testing.T) {
		r := &Resilience{Collect: true}
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
		// Cell 3 fails before it simulates, so the one simulation of
		// its spec is cell 28's.
		if n := tally.of(t, mcfSpec(o, 8, 1)); n != 1 {
			t.Fatalf("429.mcf (8,1) simulated %d times; campaign cell 28 must simulate once", n)
		}
		if sim := tally.simulated(); sim != 100 || tally.progress-sim != 24 {
			t.Fatalf("%d cells simulated, %d replayed; want 100, 24", sim, tally.progress-sim)
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
		if _, tally := fig8Tally(t, o); tally.simulated() != 100 {
			t.Fatalf("call %d simulated %d cells, want 100", call, tally.simulated())
		}
	}
}

// TestRunOneReplaysUnlessObserved: a single run is a one-cell plan that
// shares the campaign's memory, except that a spec carrying an observer
// always simulates, because its artifacts need the run.
func TestRunOneReplaysUnlessObserved(t *testing.T) {
	o := Options{Res: &Resilience{}}
	spec := tinySpec(42)
	var res [3]system.Result
	sims := countSims(t, func() {
		for i := range res {
			if i == 2 {
				spec.Obs = obs.NewObserver()
			}
			var err error
			if res[i], err = RunOne(o, "tiny", spec); err != nil {
				t.Fatal(err)
			}
		}
	})
	d, _ := spec.Digest()
	if sims[d] != 2 {
		t.Errorf("simulated %d times, want 2 (the repeat replays, the observed run simulates)", sims[d])
	}
	// A replay is bit-identical in its stored form, the one results are
	// compared in.
	enc := func(r system.Result) string { b, _ := json.Marshal(r); return string(b) }
	if enc(res[0]) != enc(res[1]) || enc(res[0]) != enc(res[2]) {
		t.Error("replayed or observed result differs from the first run")
	}
}

// TestRunOneFailsUnderCollect: a failed single run is an error under
// either fail mode, with its failure record logged.
func TestRunOneFailsUnderCollect(t *testing.T) {
	for _, collect := range []bool{false, true} {
		r := &Resilience{Collect: collect}
		if err := r.SetInject("error:0"); err != nil {
			t.Fatal(err)
		}
		if _, err := RunOne(Options{Res: r}, "tiny", tinySpec(42)); err == nil {
			t.Errorf("collect %v: injected failure not returned", collect)
		}
		if fails := r.Log.Failures(); len(fails) != 1 {
			t.Errorf("collect %v: %d failure records, want 1", collect, len(fails))
		}
	}
}
