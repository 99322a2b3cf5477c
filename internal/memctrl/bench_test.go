package memctrl

// Microbenchmarks of the controller's per-eval hot path: candidate
// selection (best), the full enqueue→drain churn (eval), and PAR-BS
// batch formation. These are the loops that dominate wall-clock in
// 64-core sweep runs, so they carry the zero-alloc contract asserted
// by TestEvalZeroAllocGuard and printed by `make bench-smoke`.

import (
	"math/rand"
	"testing"

	"microbank/internal/config"
	"microbank/internal/sim"
)

// benchController builds a PAR-BS/open-page controller over the
// headline LPDDR-TSI (2,8) part with refresh off, plus a deterministic
// pool of reusable requests spread over banks, rows, and threads.
func benchController(sched config.Scheduler, nreq int) (*sim.Engine, *Controller, []*Request) {
	mem := config.MemPreset(config.LPDDRTSI, 2, 8)
	mem.Org.Channels = 1
	mem.Timing.TREFI = 0
	mem.Timing.TRFC = 0
	ctl := config.DefaultCtrl()
	ctl.Scheduler = sched
	eng := sim.NewEngine()
	c := New(eng, mem, ctl, 8)
	rng := rand.New(rand.NewSource(7))
	reqs := make([]*Request, nreq)
	for i := range reqs {
		reqs[i] = &Request{
			Addr:   (rng.Uint64() % (1 << 28)) &^ 63,
			Write:  i%5 == 4,
			Thread: i % 8,
		}
	}
	return eng, c, reqs
}

// resetRequests clears the per-run scheduling state so the pool can be
// re-enqueued without allocating fresh Request records.
func resetRequests(reqs []*Request) {
	for _, r := range reqs {
		r.marked = false
		r.ownMiss = false
	}
}

// BenchmarkBest measures one candidate-selection pass over a full
// 32-entry scheduling window, per scheduler. The queue is loaded once;
// best() itself mutates nothing, so every iteration sees an identical
// window.
func BenchmarkBest(b *testing.B) {
	for _, sc := range []struct {
		name string
		s    config.Scheduler
	}{{"FCFS", config.SchedFCFS}, {"FRFCFS", config.SchedFRFCFS}, {"PARBS", config.SchedPARBS}} {
		b.Run(sc.name, func(b *testing.B) {
			eng, c, reqs := benchController(sc.s, 32)
			// Load the window without running the engine (so nothing
			// drains), then form the PAR-BS batch the way eval would.
			for _, r := range reqs {
				c.Enqueue(r)
			}
			if sc.s == config.SchedPARBS {
				c.formBatch()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.best(eng.Now())
			}
		})
	}
}

// BenchmarkEval measures the full steady-state churn: enqueue a pool
// of requests and drain it through command selection, DRAM issue, and
// retirement. ns/op is per drained batch of 64 requests.
func BenchmarkEval(b *testing.B) {
	eng, c, reqs := benchController(config.SchedPARBS, 64)
	// Warm one full cycle so queue capacity, engine free lists, and
	// bank state reach steady state before measuring.
	for _, r := range reqs {
		c.Enqueue(r)
	}
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetRequests(reqs)
		for _, r := range reqs {
			c.Enqueue(r)
		}
		eng.Run()
	}
}

// BenchmarkFormBatch measures PAR-BS batch formation over a full
// 32-entry window. The single-thread shape is the one that used to
// allocate a struct-keyed map entry per (thread, bank) pair per
// formation; both shapes must report 0 allocs/op
// (TestFormBatchZeroAllocGuard asserts it).
func BenchmarkFormBatch(b *testing.B) {
	for _, tc := range []struct {
		name    string
		threads int
	}{{"1thread", 1}, {"8threads", 8}} {
		b.Run(tc.name, func(b *testing.B) {
			_, c, reqs := benchController(config.SchedPARBS, 32)
			for i, r := range reqs {
				r.Thread = i % tc.threads
				c.Enqueue(r)
			}
			c.formBatch() // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range reqs {
					r.marked = false
				}
				for t := range c.markedPerThread {
					c.markedPerThread[t] = 0
				}
				c.batchLive = 0
				c.formBatch()
			}
		})
	}
}
