package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestSweepReuseAllocGuard bounds what a repeated quick Fig. 8 sweep
// allocates: every cell's machine takes its tables, engine and random
// sources from the runs before it, so what remains is per-cell
// bookkeeping (specs, digests, results) and the few tables no run of
// that shape has released yet. The second sweep measured 2.06 MB on
// amd64 with Go 1.24, and the bound sits about 20% above it. When
// only tag arrays and directory tables are reused, it allocates about
// 8.1 MB.
//
// Skipped under the race detector, whose instrumentation allocates
// and whose sync.Pool drops released items at random.
func TestSweepReuseAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	// No collection may empty the store between the sweeps, and one P
	// keeps each release and the next take on the same per-P pool slot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := Options{Quick: true, Instr: 4000, Seed: 42, Parallelism: 1}
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Fig8(o); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := allocated()
	second := allocated()
	t.Logf("first sweep allocates %d KB, second %d KB", first>>10, second>>10)
	if second >= 2500<<10 {
		t.Errorf("second sweep allocates %d KB, want under 2500 KB", second>>10)
	}
}
