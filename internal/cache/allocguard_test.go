package cache

import (
	"math/rand"
	"testing"

	"microbank/internal/sim"
)

// TestDirectoryZeroAllocGuard requires steady Fill/Evict churn at
// constant occupancy to allocate nothing: once the table has grown to
// the working set, neither a cold fill nor an eviction (with its
// backward shift) may allocate.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestDirectoryZeroAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	c := newDirChurn(4, 6400)
	for i := 0; i < 4*len(c.ring); i++ {
		c.step()
	}
	if avg := testing.AllocsPerRun(10000, c.step); avg != 0 {
		t.Errorf("directory evict+fill allocates %.2f allocs/op, want 0", avg)
	}
}

// TestCacheZeroAllocGuard requires the hit, miss, merged-miss, fill and
// eviction paths to allocate nothing once the MSHR pool and the
// engine's event records are warm.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestCacheZeroAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	eng := sim.NewEngine()
	next := &fixedFill{eng: eng, latency: 20 * sim.Nanosecond}
	c := New(eng, geom(), benchCycle, next.fill, func(uint64, int) {})
	done := func(sim.Time) {}
	// Twice the cache's 64 lines, with repeats close enough together
	// to merge into in-flight misses.
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1024)
	writes := make([]bool, len(addrs))
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(128)) << 6
		writes[i] = rng.Intn(4) == 0
	}
	pass := func() {
		for i, a := range addrs {
			for !c.Access(a, writes[i], 0, done) {
				eng.Step()
			}
			eng.RunUntil(eng.Now() + benchCycle)
		}
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		pass()
	}
	before := c.Stats()
	if avg := testing.AllocsPerRun(20, pass); avg != 0 {
		t.Errorf("cache access pass allocates %.2f allocs/op, want 0", avg)
	}
	st := c.Stats()
	if st.Hits == before.Hits || st.Misses == before.Misses || st.MergedMiss == before.MergedMiss ||
		st.Evictions == before.Evictions || st.Writebacks == before.Writebacks {
		t.Fatalf("guard pass does not cover every path: %+v → %+v", before, st)
	}
}
