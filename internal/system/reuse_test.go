package system

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"microbank/internal/config"
	"microbank/internal/workload"
)

// reuseSpecs are three machines that share no cache or directory
// geometry in use: a 16-core mix on LPDDR-TSI μbank(2,8), a single-core
// run on DDR3-PCB, and 16-thread RADIX on DDR3-PCB, whose shared lines
// drive directory invalidations.
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
	return []Spec{mix, single, radix}
}

func resultJSON(spec Spec) (string, error) {
	res, err := Run(spec)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// TestRunReuseIsInvisible: runs that take over the tag arrays and
// directory tables released by earlier runs, interleaved across
// machine shapes and from concurrent goroutines, return the same Result
// as a run on freshly allocated storage.
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
// allocate under 256 KB: its 512 KB L2 tag array, its L1's and its
// directory's table all come back from the run before.
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
	if second >= 256<<10 {
		t.Errorf("second run allocates %d KB, want under 256 KB", second>>10)
	}
}
