package system

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"microbank/internal/config"
	"microbank/internal/obs"
	"microbank/internal/workload"
)

// reuseSpecs are four machines that share no cache or directory
// geometry in use: a 16-core mix on LPDDR-TSI μbank(2,8), a single-core
// run on DDR3-PCB, and 16-thread RADIX on DDR3-PCB and FFT on LPDDR-TSI
// μbank(2,8), whose shared lines drive directory invalidations and
// downgrades.
func reuseSpecs() []Spec {
	mixSys := config.DefaultSystem(config.MemPreset(config.LPDDRTSI, 2, 8))
	mixSys.Cores = 16
	mix := MixSpec(mixSys, workload.MixHigh(), 4000, 42)
	mix.WarmupInstr = 2000

	single := UniformSpec(config.SingleCore(config.MemPreset(config.DDR3PCB, 1, 1)),
		workload.MustGet("470.lbm"), 12000, 7)
	single.WarmupInstr = 4000

	radixSys := config.DefaultSystem(config.MemPreset(config.DDR3PCB, 1, 1))
	radixSys.Cores = 16
	radix := UniformSpec(radixSys, workload.MustGet("RADIX"), 3000, 42)
	radix.WarmupInstr = 1500

	fftSys := config.DefaultSystem(config.MemPreset(config.LPDDRTSI, 2, 8))
	fftSys.Cores = 16
	fft := UniformSpec(fftSys, workload.MustGet("FFT"), 3000, 42)
	fft.WarmupInstr = 1500
	return []Spec{mix, single, radix, fft}
}

// stoppedRun runs spec until an event budget stops it with events
// still pending, requests queued at the controllers and misses in
// flight, so the storage it releases comes from a machine stopped
// mid-run.
func stoppedRun(t *testing.T, spec Spec) {
	t.Helper()
	spec.Limits = &Limits{EventBudget: 3000, CheckEvents: 1000}
	var le *LimitError
	if _, err := Run(spec); !errors.As(err, &le) || le.Kind != LimitEventBudget {
		t.Fatalf("budget-stopped run: %v, want an event-budget stop", err)
	}
}

func resultJSON(spec Spec) (string, error) {
	res, err := Run(spec)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// TestRunReuseIsInvisible: runs that take over the storage released by
// earlier runs, interleaved across machine shapes, after runs stopped
// mid-flight and from concurrent goroutines, return the same Result as
// a run on freshly allocated storage.
func TestRunReuseIsInvisible(t *testing.T) {
	specs := reuseSpecs()
	want := make([]string, len(specs))
	for i, s := range specs {
		// Two collections empty the sync.Pool store, so each reference
		// run allocates its storage fresh.
		runtime.GC()
		runtime.GC()
		var err error
		if want[i], err = resultJSON(s); err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
	}

	check := func(i int) error {
		got, err := resultJSON(specs[i])
		if err != nil {
			return fmt.Errorf("spec %d: %v", i, err)
		}
		if got != want[i] {
			return fmt.Errorf("spec %d: result on reused storage differs:\n got %s\nwant %s", i, got, want[i])
		}
		return nil
	}
	for round := 0; round < 2; round++ {
		for i := range specs {
			// The run before each check is stopped mid-flight, on the
			// same machine shape in the first round and on the next
			// shape in the second.
			stoppedRun(t, specs[(i+round)%len(specs)])
			if err := check(i); err != nil {
				t.Fatalf("sequential round %d: %v", round, err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4*len(specs))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range specs {
				if err := check((g + k) % len(specs)); err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunReuseAllocGuard requires a repeated quick single-core run to
// allocate under 32 KB: its cache tag arrays, directory table,
// controller and DRAM bank tables, core rings, random sources and
// engine all come back from the run before.
//
// Skipped under the race detector, whose instrumentation allocates
// and whose sync.Pool drops released items at random.
func TestRunReuseAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	// No collection may empty the store between the runs, and one P
	// keeps Release and the next run's New on the same per-P pool slot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := singleSpec("429.mcf", 2, 8, 16000)
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := allocated()
	second := allocated()
	t.Logf("first run allocates %d KB, second %d KB", first>>10, second>>10)
	if second >= 32<<10 {
		t.Errorf("second run allocates %d KB, want under 32 KB", second>>10)
	}
}

// gatherAfterRun runs spec observed and returns a registry Gather taken
// after Run returned, when the machine's storage has been released.
func gatherAfterRun(spec Spec) ([]obs.Sample, error) {
	o := obs.NewObserver()
	spec.Obs = o
	_, err := Run(spec)
	return o.Registry.Gather(), err
}

// TestGatherAfterReleaseMatchesUnreleased: every gauge reads the same
// after Run has released the machine as it does when nothing is
// released, for a 16-core run that completes and for one an event
// budget stops with requests still queued.
func TestGatherAfterReleaseMatchesUnreleased(t *testing.T) {
	done := reuseSpecs()[0]
	stopped := done
	stopped.Limits = &Limits{EventBudget: 3000, CheckEvents: 1000}
	for _, tc := range []struct {
		name string
		spec Spec
	}{{"completed", done}, {"budget-stopped", stopped}} {
		released, relErr := gatherAfterRun(tc.spec)
		releaseMachine = func(*machine) {}
		kept, keptErr := gatherAfterRun(tc.spec)
		releaseMachine = (*machine).release
		if (relErr == nil) != (keptErr == nil) {
			t.Fatalf("%s: run error %v with release, %v without", tc.name, relErr, keptErr)
		}
		if len(released) == 0 || !reflect.DeepEqual(released, kept) {
			t.Errorf("%s: gather after release differs from gather without release:\n got %v\nwant %v",
				tc.name, released, kept)
		}
	}
}
