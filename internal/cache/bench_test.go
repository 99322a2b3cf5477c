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

// benchCycle is the 2 GHz core cycle the access benchmarks issue at.
const benchCycle = 500 * sim.Picosecond

// syntheticStream draws n accesses from one thread of the named
// profile.
func syntheticStream(name string, thread, n int) []workload.Access {
	gen := workload.NewSynthetic(workload.MustGet(name), thread, 42)
	stream := make([]workload.Access, n)
	for i := range stream {
		_, stream[i] = gen.Next()
	}
	return stream
}

// l1MissStream is the request stream a cluster's L2 sees: the named
// profile on cores 0..cores-1, each through its own L1D of geometry
// l1 whose fills complete at once, interleaved one access per core in
// turn. Misses keep their access's write flag; dirty L1 victims arrive
// as writes. It returns the first n requests.
func l1MissStream(name string, l1 config.CacheGeom, cores, n int) []workload.Access {
	var out []workload.Access
	eng := sim.NewEngine()
	fill := func(block uint64, write bool, _ int, done func(at sim.Time)) {
		out = append(out, workload.Access{Addr: block, Write: write})
		done(eng.Now())
	}
	wb := func(block uint64, _ int) { out = append(out, workload.Access{Addr: block, Write: true}) }
	gens := make([]*workload.Synthetic, cores)
	l1s := make([]*Cache, cores)
	for i := range gens {
		gens[i] = workload.NewSynthetic(workload.MustGet(name), i, 42)
		l1s[i] = New(eng, l1, benchCycle, fill, wb)
	}
	for len(out) < n {
		for i, g := range gens {
			_, a := g.Next()
			l1s[i].Access(a.Addr, a.Write, i, nil)
		}
	}
	return out[:n]
}

// benchAccess replays stream (a power-of-two length) cyclically against
// one cache of geometry geom, one access per core cycle, with a 20 ns
// next level. An op is one Access plus the engine events due by the
// next cycle; a refused access (every MSHR busy) retries after the next
// fill.
func benchAccess(b *testing.B, geom config.CacheGeom, stream []workload.Access) {
	eng := sim.NewEngine()
	next := &fixedFill{eng: eng, latency: 20 * sim.Nanosecond}
	c := New(eng, geom, benchCycle, next.fill, func(uint64, int) {})
	done := func(sim.Time) {}
	access := func(a workload.Access) {
		for !c.Access(a.Addr, a.Write, 0, done) {
			eng.Step()
		}
		eng.RunUntil(eng.Now() + benchCycle)
	}
	// One pass over the stream warms the cache and the pools.
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
}

// BenchmarkCacheAccess measures Access on the default machine's two
// cache geometries. The L1D legs replay one thread's generated stream
// against the 16 KB 4-way L1D; the two profiles bracket the hit rates
// of the benchmark's run workloads: 400.perlbench is L1-resident and
// 429.mcf misses often. The L2 leg replays what a 4-core 429.mcf
// cluster's L1Ds pass down (misses and dirty victims) against the
// 2 MB 16-way L2, whose 16-way set scan spans four host cache lines.
func BenchmarkCacheAccess(b *testing.B) {
	sys := config.DefaultSystem(config.MemPreset(config.LPDDRTSI, 2, 8))
	for _, name := range []string{"400.perlbench", "429.mcf"} {
		b.Run(name, func(b *testing.B) {
			benchAccess(b, sys.L1D, syntheticStream(name, 0, 1<<14))
		})
	}
	b.Run("L2/429.mcf", func(b *testing.B) {
		benchAccess(b, sys.L2, l1MissStream("429.mcf", sys.L1D, sys.CoresPerL2, 1<<16))
	})
}

// dirChurn holds a directory at constant occupancy: each step evicts
// the oldest resident line and fills a fresh one, as a run's L2
// victims and fills do once the caches are warm.
type dirChurn struct {
	d     *Directory
	ring  []uint64 // resident lines, oldest at ring[next]
	next  int
	nodes int
	x     uint64 // LCG state drawing fresh line addresses
}

func newDirChurn(nodes, entries int) *dirChurn {
	c := &dirChurn{d: NewDirectory(nodes), ring: make([]uint64, entries), nodes: nodes, x: 1}
	for i := range c.ring {
		c.ring[i] = c.fresh()
		c.d.Fill(c.ring[i], c.node(c.ring[i]), false)
	}
	return c
}

// fresh draws a random line address below 1 TB.
func (c *dirChurn) fresh() uint64 {
	c.x = c.x*6364136223846793005 + 1442695040888963407
	return c.x >> 24 &^ 63
}

// node is the cluster that holds block.
func (c *dirChurn) node(block uint64) int { return int(block>>6) % c.nodes }

func (c *dirChurn) step() {
	old := c.ring[c.next]
	c.d.Evict(old, c.node(old))
	b := c.fresh()
	c.d.Fill(b, c.node(b), false)
	c.ring[c.next] = b
	c.next = (c.next + 1) % len(c.ring)
}

// BenchmarkDirectory measures Fill/Evict churn at 6.4k resident lines
// over 4 cluster nodes, the per-channel occupancy of the mix_high16
// workload (16 cores in 4 clusters). An op is one eviction plus one
// cold fill.
func BenchmarkDirectory(b *testing.B) {
	c := newDirChurn(4, 6400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step()
	}
}
