package cache

import (
	"testing"

	"microbank/internal/config"
	"microbank/internal/sim"
	"microbank/internal/workload"
)

// fixedFill is a next level that completes every fill a fixed latency
// later through the engine's payload form, so the benchmark's own
// backend allocates nothing per miss.
type fixedFill struct {
	eng     *sim.Engine
	latency sim.Time
}

func (f *fixedFill) fill(_ uint64, _ bool, _ int, done func(at sim.Time)) {
	f.eng.ScheduleArg(f.eng.Now()+f.latency, callDone, done)
}

// BenchmarkCacheAccess replays one thread's generated address stream
// against the default L1D geometry, one access per 2 GHz core cycle,
// with a 20 ns next level. An op is one Access plus the engine events
// due by the next cycle; a refused access (every MSHR busy) retries
// after the next fill. The two profiles bracket the hit rates of the
// benchmark's run workloads: 400.perlbench is L1-resident and 429.mcf
// misses often.
func BenchmarkCacheAccess(b *testing.B) {
	geom := config.DefaultSystem(config.MemPreset(config.LPDDRTSI, 2, 8)).L1D
	const cycle = 500 * sim.Picosecond
	for _, name := range []string{"400.perlbench", "429.mcf"} {
		b.Run(name, func(b *testing.B) {
			gen := workload.NewSynthetic(workload.MustGet(name), 0, 42)
			stream := make([]workload.Access, 1<<14)
			for i := range stream {
				_, stream[i] = gen.Next()
			}
			eng := sim.NewEngine()
			next := &fixedFill{eng: eng, latency: 20 * sim.Nanosecond}
			c := New(eng, geom, cycle, next.fill, func(uint64, int) {})
			done := func(sim.Time) {}
			// One pass over the stream warms the cache and the pools.
			access := func(a workload.Access) {
				for !c.Access(a.Addr, a.Write, 0, done) {
					eng.Step()
				}
				eng.RunUntil(eng.Now() + cycle)
			}
			for _, a := range stream {
				access(a)
			}
			before := c.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				access(stream[i&(len(stream)-1)])
			}
			b.StopTimer()
			after := c.Stats()
			b.ReportMetric(float64(after.Hits-before.Hits)/float64(after.Accesses-before.Accesses), "hit_rate")
		})
	}
}
