// Package cpu models the chip's out-of-order cores (§VI-A: 2 GHz,
// dual-issue, 32-entry ROB, 2-wide commit) as trace-driven analytic
// pipelines: instruction issue and commit are computed arithmetically
// and only memory accesses create simulation events, so a 64-core run
// costs events proportional to its memory traffic, not its instruction
// count.
//
// The model captures what the paper's results depend on:
//
//   - ROB-limited memory-level parallelism: a core keeps issuing past
//     outstanding loads until the 32-entry window wraps, so the number
//     of concurrent DRAM requests — the quantity μbank parallelism
//     feeds on — emerges from window size, access gap, and latency.
//   - Issue/commit bandwidth: at most IssueWidth instructions enter and
//     CommitWidth leave the window per cycle, bounding peak IPC.
//   - Load dependencies: a configurable fraction of accesses must wait
//     for the previous load (pointer chasing à la 429.mcf), throttling
//     MLP exactly where the paper's low-locality benchmarks do.
package cpu

import (
	"fmt"
	"math/bits"
	"math/rand"

	"microbank/internal/reuse"
	"microbank/internal/sim"
	"microbank/internal/workload"
)

// AccessFunc submits a cache access. It returns false when the cache
// cannot accept the request (MSHR full); the core then waits for Kick.
// done may be nil for posted stores.
type AccessFunc func(addr uint64, write bool, done func(at sim.Time)) bool

// Params configures one core.
type Params struct {
	ID          int
	FreqMHz     int
	IssueWidth  int
	CommitWidth int
	ROB         int
	// DepFrac is the probability a load depends on the previous load.
	DepFrac float64
	// Budget is the number of instructions to execute.
	Budget uint64
	// Warmup marks the first Warmup instructions as cache/DRAM warm-up;
	// OnWarm fires when the core crosses it. Must be < Budget.
	Warmup uint64
	Seed   int64
}

// Stats reports a finished core's execution.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	FinishAt     sim.Time
	StallRetry   uint64 // cache-reject stalls
	DepStalls    uint64 // dependent-load issue stalls
	// WarmAt/WarmInstr record when the warm-up boundary was crossed;
	// zero when no warm-up was configured.
	WarmAt    sim.Time
	WarmInstr uint64
}

// IPC returns retired instructions per core cycle over the measured
// (post-warm-up) region.
func (s Stats) IPC(period sim.Time) float64 {
	if s.FinishAt <= s.WarmAt {
		return 0
	}
	cycles := float64(s.FinishAt-s.WarmAt) / float64(period)
	return float64(s.Instructions-s.WarmInstr) / cycles
}

// Core is one simulated out-of-order core.
type Core struct {
	eng    *sim.Engine
	p      Params
	period sim.Time
	gen    workload.Generator
	access AccessFunc
	rng    *rand.Rand
	// runCb is allocated once so the per-cycle continuation reschedule
	// does not allocate a closure per event.
	runCb func(*sim.Engine)
	// loadDone[s] resolves the instruction occupying ring slot s; the
	// ROB-many callbacks are allocated once at construction so issuing a
	// load does not allocate a fresh completion closure.
	loadDone []func(at sim.Time)

	// Per-instruction rings, indexed by instruction number % ROB.
	complete []sim.Time // completion time; sim.Never while unresolved
	commit   []sim.Time // assigned commit time
	// robMask is ROB-1 when ROB is a power of two, letting the
	// per-instruction ring indexing use a mask instead of a 64-bit
	// modulo; zero otherwise (slot falls back to %).
	robMask uint64
	// periodInv is floor(2^64/period), letting the two per-instruction
	// time→cycle conversions use a 128-bit multiply instead of a 64-bit
	// divide; zero when period is 1 (cycles returns t directly).
	periodInv uint64

	issued uint64 // instructions issued so far
	cursor uint64 // next instruction to receive a commit time

	issueCycle uint64 // cycle of the last issue slot
	issueCnt   int
	comCycle   uint64
	comCnt     int

	pendGap  int
	pendAcc  workload.Access
	havePend bool

	lastLoadIdx   uint64 // instruction index of most recent load
	haveLoad      bool
	waitDep       bool
	waitRetry     bool
	finished      bool
	warmed        bool
	onFinish      func(Stats)
	contScheduled bool

	// OnWarm, when set, fires once when the core crosses its warm-up
	// instruction count.
	OnWarm func()

	stats Stats
}

// New builds a core. onFinish fires once when the instruction budget
// has fully committed.
func New(eng *sim.Engine, p Params, gen workload.Generator, access AccessFunc, onFinish func(Stats)) *Core {
	if p.IssueWidth <= 0 || p.CommitWidth <= 0 || p.ROB <= 0 || p.Budget == 0 || p.FreqMHz <= 0 {
		panic(fmt.Sprintf("cpu: bad params %+v", p))
	}
	if p.Warmup >= p.Budget {
		panic(fmt.Sprintf("cpu: warmup %d >= budget %d", p.Warmup, p.Budget))
	}
	c := &Core{
		eng:      eng,
		p:        p,
		period:   sim.Time(1e6 / float64(p.FreqMHz)),
		gen:      gen,
		access:   access,
		rng:      reuse.NewRand(p.Seed ^ int64(p.ID)*7919),
		complete: reuse.Take[sim.Time](p.ROB),
		commit:   reuse.Take[sim.Time](p.ROB),
		onFinish: onFinish,
	}
	if p.ROB&(p.ROB-1) == 0 {
		c.robMask = uint64(p.ROB - 1)
	}
	if c.period > 1 {
		c.periodInv, _ = bits.Div64(1, 0, uint64(c.period))
	}
	c.runCb = func(e *sim.Engine) { c.run(e.Now()) }
	// A slot index fully identifies the in-flight load it resolves: the
	// window admits at most ROB instructions, so slot s can only belong
	// to one unresolved instruction at a time.
	c.loadDone = make([]func(at sim.Time), p.ROB)
	for s := range c.loadDone {
		c.loadDone[s] = func(at sim.Time) {
			c.complete[s] = at
			c.haveLoadResolved()
		}
	}
	return c
}

// Release hands the core's rings and random source to the reuse store
// for a later New. The core must not run afterwards; Stats and
// Finished stay readable.
func (c *Core) Release() {
	reuse.Put(c.complete)
	reuse.Put(c.commit)
	reuse.PutOne(c.rng)
	c.complete, c.commit, c.rng = nil, nil, nil
}

// Start begins execution at the current simulation time.
func (c *Core) Start() {
	c.eng.Schedule(c.eng.Now(), c.runCb)
}

// Kick resumes a core stalled on a cache rejection. The system layer
// calls it when MSHRs free up.
func (c *Core) Kick() {
	if c.waitRetry && !c.finished {
		c.waitRetry = false
		c.eng.Schedule(c.eng.Now(), c.runCb)
	}
}

// Stats returns the core's statistics (final once finished).
func (c *Core) Stats() Stats { return c.stats }

// Finished reports whether the budget has fully committed.
func (c *Core) Finished() bool { return c.finished }

// slot maps an instruction number to its ring index.
func (c *Core) slot(idx uint64) uint64 {
	if c.robMask != 0 {
		return idx & c.robMask
	}
	return idx % uint64(c.p.ROB)
}

// cycles returns t/period. periodInv underestimates 2^64/period, so
// the multiply-high quotient can fall short by a step or two; the
// remainder loop restores the exact floor for every input.
func (c *Core) cycles(t sim.Time) uint64 {
	if c.periodInv == 0 {
		return uint64(t)
	}
	q, _ := bits.Mul64(uint64(t), c.periodInv)
	for r := uint64(t) - q*uint64(c.period); r >= uint64(c.period); r -= uint64(c.period) {
		q++
	}
	return q
}

// assignCommits assigns commit times to all resolved instructions in
// order, honoring commit width.
func (c *Core) assignCommits() {
	for c.cursor < c.issued {
		comp := c.complete[c.slot(c.cursor)]
		if comp == sim.Never {
			return
		}
		ct := comp
		cyc := c.cycles(ct)
		if cyc < c.comCycle {
			cyc = c.comCycle
		}
		if cyc == c.comCycle {
			if c.comCnt >= c.p.CommitWidth {
				cyc++
				c.comCnt = 0
			}
		} else {
			c.comCnt = 0
		}
		c.comCycle = cyc
		c.comCnt++
		c.commit[c.slot(c.cursor)] = sim.Time(cyc) * c.period
		c.cursor++
	}
}

// issueConstraint returns the earliest issue time for the next
// instruction, or ok=false when it depends on an unresolved commit.
func (c *Core) issueConstraint() (sim.Time, bool) {
	var t sim.Time
	if c.issued >= uint64(c.p.ROB) {
		oldest := c.issued - uint64(c.p.ROB)
		if c.cursor <= oldest {
			c.assignCommits()
			if c.cursor <= oldest {
				return 0, false // window blocked on an unresolved load
			}
		}
		t = c.commit[c.slot(oldest)]
	}
	return t, true
}

// nextIssue computes (without reserving) the slot the next instruction
// would issue in, given earliest time t.
func (c *Core) nextIssue(t sim.Time) (at sim.Time, cyc uint64, cnt int) {
	cyc = c.cycles(t)
	cnt = c.issueCnt
	if cyc < c.issueCycle {
		cyc = c.issueCycle
	}
	if cyc == c.issueCycle {
		if cnt >= c.p.IssueWidth {
			cyc++
			cnt = 0
		}
	} else {
		cnt = 0
	}
	return sim.Time(cyc) * c.period, cyc, cnt
}

// reserveIssue commits a slot returned by nextIssue.
func (c *Core) reserveIssue(cyc uint64, cnt int) {
	c.issueCycle = cyc
	c.issueCnt = cnt + 1
}

// issueAt reserves an issue slot at or after t and returns its time.
func (c *Core) issueAt(t sim.Time) sim.Time {
	at, cyc, cnt := c.nextIssue(t)
	c.reserveIssue(cyc, cnt)
	return at
}

// push records instruction issue with the given completion time.
func (c *Core) push(complete sim.Time) uint64 {
	idx := c.issued
	c.complete[c.slot(idx)] = complete
	c.commit[c.slot(idx)] = sim.Never
	c.issued++
	c.stats.Instructions++
	return idx
}

// run advances the core until it blocks or finishes. now is the engine
// time; instruction issue may run ahead of it virtually, but memory
// accesses are re-entered at their own issue instant.
func (c *Core) run(now sim.Time) {
	c.contScheduled = false
	for !c.finished {
		if !c.warmed && c.p.Warmup > 0 && c.issued >= c.p.Warmup {
			c.markWarm(now)
		}
		if c.issued >= c.p.Budget {
			c.tryFinish()
			return
		}
		if !c.havePend {
			gap, acc := c.gen.Next()
			c.pendGap, c.pendAcc, c.havePend = gap, acc, true
			// Clamp so the budget is exact.
			if rem := c.p.Budget - c.issued; uint64(c.pendGap) >= rem {
				c.pendGap = int(rem) - 1
				if c.pendGap < 0 {
					c.pendGap = 0
				}
			}
		}
		// Bulk-issue the non-memory gap instructions.
		for c.pendGap > 0 {
			t, ok := c.issueConstraint()
			if !ok {
				return // a load resolution will re-run us
			}
			it := c.issueAt(t)
			c.push(it + c.period)
			c.pendGap--
		}
		if c.issued >= c.p.Budget {
			c.havePend = false
			c.tryFinish()
			return
		}
		// The memory access.
		t, ok := c.issueConstraint()
		if !ok {
			return
		}
		// Dependent load: wait for the previous load's data.
		if c.haveLoad && !c.pendAcc.Write && c.rng.Float64() < c.p.DepFrac {
			prev := c.complete[c.slot(c.lastLoadIdx)]
			if prev == sim.Never && c.lastLoadInWindow() {
				c.stats.DepStalls++
				c.waitDep = true
				return // resolution re-runs us
			}
			if prev != sim.Never && prev > t {
				t = prev
			}
		}
		it, cyc, cnt := c.nextIssue(t)
		if it > now {
			// The access belongs to a future instant: hand control back
			// to the engine (without consuming the issue slot) so
			// arrival order stays causal.
			c.scheduleRun(it)
			return
		}
		c.reserveIssue(cyc, cnt)
		if c.pendAcc.Write {
			if !c.access(c.pendAcc.Addr, true, nil) {
				c.stats.StallRetry++
				c.waitRetry = true
				c.unissue(it)
				return
			}
			c.push(it + c.period)
			c.stats.Stores++
			c.havePend = false
			continue
		}
		// Try the access before pushing: a push would clobber the ring
		// slot of the oldest in-flight instruction, which we must keep
		// if the cache rejects us. Completion callbacks are always
		// asynchronous, so capturing the index early is safe.
		idx := c.issued
		accepted := c.access(c.pendAcc.Addr, false, c.loadDone[c.slot(idx)])
		if !accepted {
			c.stats.StallRetry++
			c.waitRetry = true
			c.unissue(it)
			return
		}
		c.push(sim.Never)
		c.stats.Loads++
		c.lastLoadIdx = idx
		c.haveLoad = true
		c.havePend = false
	}
}

// lastLoadInWindow reports whether the last load's ring slot still
// belongs to that load (it may have been overwritten after commit).
func (c *Core) lastLoadInWindow() bool {
	return c.issued-c.lastLoadIdx <= uint64(c.p.ROB)
}

// haveLoadResolved re-enters the core after a load completes.
func (c *Core) haveLoadResolved() {
	c.waitDep = false
	if !c.finished {
		c.scheduleRun(c.eng.Now())
	}
}

func (c *Core) scheduleRun(at sim.Time) {
	if c.contScheduled {
		return
	}
	c.contScheduled = true
	c.eng.Schedule(at, c.runCb)
}

// unissue rolls back an issue-slot reservation after a rejected access.
func (c *Core) unissue(sim.Time) {
	if c.issueCnt > 0 {
		c.issueCnt--
	}
}

// markWarm records the warm-up crossing at the core's current virtual
// issue time and notifies the system.
func (c *Core) markWarm(now sim.Time) {
	c.warmed = true
	at := sim.Time(c.issueCycle) * c.period
	if at < now {
		at = now
	}
	c.stats.WarmAt = at
	c.stats.WarmInstr = c.issued
	if c.OnWarm != nil {
		c.OnWarm()
	}
}

// tryFinish completes the core once every instruction has committed.
func (c *Core) tryFinish() {
	c.assignCommits()
	if c.cursor < c.issued {
		return // outstanding loads; resolutions will re-enter
	}
	if c.finished {
		return
	}
	c.finished = true
	last := sim.Time(0)
	if c.issued > 0 {
		last = c.commit[c.slot(c.issued-1)]
	}
	c.stats.FinishAt = last
	if c.onFinish != nil {
		c.onFinish(c.stats)
	}
}
