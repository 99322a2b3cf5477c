// Package memctrl implements the memory controller: a request queue
// with FCFS / FR-FCFS / PAR-BS scheduling, DRAM command generation
// against package dram's timing model, configurable address
// interleaving (package addr), and the page-management policies of §V —
// open, close, minimalist-open, local/global bimodal predictors, a
// tournament predictor, and a perfect (oracle) policy.
//
// The perfect policy needs no lookahead: when a decision point leaves a
// row open and the *next* request to that bank wants a different row,
// the controller retroactively issues the precharge stamped at the
// earliest instant it could have issued — exact oracle timing because
// the bank was idle in between.
package memctrl

import (
	"fmt"

	"microbank/internal/addr"
	"microbank/internal/config"
	"microbank/internal/dram"
	"microbank/internal/obs"
	"microbank/internal/reuse"
	"microbank/internal/sim"
	"microbank/internal/stats"
)

// Request is one cache-line memory transaction presented to a
// controller.
type Request struct {
	Addr   uint64
	Write  bool
	Thread int // requesting hardware thread, for PAR-BS and the global predictor
	// Done is invoked exactly once when the request is serviced: for
	// reads when the line has arrived, for writes when the write has
	// been accepted by the DRAM (posted).
	Done func(at sim.Time)
	// Owner is an opaque caller field carried through the request's
	// lifetime. The OnRetire hook can use it to map a retiring request
	// back to the caller's transaction record (e.g. to recycle pooled
	// write requests, which have no Done callback).
	Owner any

	arrive  sim.Time
	loc     addr.Loc
	bank    int // local bank index within the channel
	marked  bool
	ownMiss bool // an ACT/PRE was issued on this request's behalf
	hit     bool // row-hit status, cached once per selection pass
	seq     uint64
}

// decision records a speculative open/close choice awaiting resolution.
type decision struct {
	pending       bool
	predictedOpen bool
	row           uint32
	thread        int
	at            sim.Time // decision instant (column access issue)
	preReady      sim.Time // earliest legal PRE at decision time
}

type bankCtl struct {
	idx       int  // this bank's index, for payload-carrying callbacks
	wantClose bool // close decided; PRE is a schedulable candidate
	dec       decision
	minEvent  sim.Event // pending minimalist-open timeout
	lastUse   sim.Time
}

// Stats is a snapshot of one controller's activity.
type Stats struct {
	Reads, Writes            uint64
	RowHits                  uint64 // column access without own ACT
	RowOpens                 uint64 // requests that triggered ACT
	RowConflictPres          uint64 // requests that had to close another row
	Retired                  uint64
	QueueOccIntegral         float64 // occupancy × ps
	ReadLatencyIntegralPS    float64
	PredDecisions, PredRight uint64
	// RegDeferred counts selection-pass deferrals by the bandwidth
	// regulator: one per request held out of one scheduling pass
	// because its thread had exhausted its per-bank budget for the
	// epoch (so a request stalled across many passes counts many
	// times — it is an activity gauge, not a request count).
	RegDeferred uint64
	Energy      dram.Energy
}

// RowHitRate returns serviced-from-open-row fraction.
func (s Stats) RowHitRate() float64 {
	tot := s.Reads + s.Writes
	if tot == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(tot)
}

// AvgReadLatencyNS returns the mean read service latency in ns.
func (s Stats) AvgReadLatencyNS() float64 {
	if s.Reads == 0 {
		return 0
	}
	return s.ReadLatencyIntegralPS / float64(s.Reads) / 1000.0
}

// PredictorHitRate returns the resolved page-decision accuracy.
func (s Stats) PredictorHitRate() float64 {
	if s.PredDecisions == 0 {
		return 0
	}
	return float64(s.PredRight) / float64(s.PredDecisions)
}

// Controller schedules requests for one memory channel.
type Controller struct {
	eng    *sim.Engine
	ch     *dram.Channel
	mapper *addr.Mapper
	cfg    config.Ctrl

	queue []*Request // arrival order; scheduling window = cfg.QueueDepth
	banks []bankCtl
	// closePending lists banks with a policy-decided precharge
	// outstanding (wantClose set), compacted lazily during eval.
	closePending []int
	pred         *pagePredictor

	// PAR-BS batch state.
	batchLive int // marked requests still queued

	seq           uint64
	evalScheduled bool
	wake          sim.Event
	// kickCb/wakeCb/minCb are allocated once in New so the hot
	// kick/wake/timeout paths schedule without a fresh closure per
	// event (minCb receives its bank through sim.ScheduleArg).
	kickCb func(*sim.Engine)
	wakeCb func(*sim.Engine)
	minCb  func(*sim.Engine, any)
	trc    sim.Time // cached tRC for the minimalist-open timeout

	// Candidate-selection scratch, pre-sized in New so the per-eval
	// hot path (best/formBatch) never allocates. winners holds, per
	// bank, the window index of the highest-priority queued request
	// during one selection pass (-1 = none; indices rather than
	// pointers keep the pass free of GC write barriers); passBanks
	// lists the banks touched this pass in first-seen window order
	// (the determinism order), and both are cleared on the way out of
	// best.
	winners   []int32
	passBanks []int
	// passRow caches each touched bank's open row for the duration of
	// one selection pass (-1 = closed; valid only for banks in
	// passBanks): bank state cannot change mid-pass, so the channel is
	// asked once per bank instead of once per window entry.
	passRow []int64
	// markedPerThread counts live PAR-BS-marked requests per thread —
	// the "shortest job first" ranking input — maintained
	// incrementally at batch formation and retirement instead of
	// being rebuilt (as a map) on every selection pass. Marked
	// requests always sit inside the scheduling window (queue
	// positions only ever decrease), so this equals the old
	// windowed count.
	markedPerThread []int
	// batchScratch is formBatch's per-(thread,bank) counting space:
	// at most one entry per window slot, reused across formations.
	batchScratch []tbCount

	// subs is Org.Subarrays(): SALP pseudo-banks per local bank. The
	// channel's bank array is expanded by this factor, and Enqueue
	// spreads requests over the pseudo-banks by row%subs, so all the
	// selection machinery above runs at subarray granularity unchanged.
	subs int

	// MemGuard-style bandwidth regulator (cfg.BankBudget > 0): regUsed
	// counts serviced column accesses per (thread, pseudo-bank) in the
	// current replenishment epoch, thread-major (thread*nbanks + bank),
	// cleared on epoch rollover. regFiltered notes that best held a
	// request back this eval, so an epoch-boundary wake is scheduled.
	regOn       bool
	regBudget   int32
	regEpoch    sim.Time
	regEpochIdx int64
	regUsed     []int32
	regFiltered bool

	// latHists holds one request-latency histogram per hardware thread
	// (picoseconds, arrival to data completion, reads and writes) for
	// the tail-latency and fairness metrics.
	latHists []stats.Histogram

	stats        Stats
	lastOccCheck sim.Time

	// bankOccScratch backs BankOccupancy; nil until first observed.
	bankOccScratch []uint16

	// OnRetire, when set, is called after a request has fully retired:
	// column access issued, queue slot released, page decision made.
	// Writes are posted (no Done callback), so this is the only
	// completion signal a caller can use to recycle write records. For
	// reads the Done event may still be in flight when OnRetire fires —
	// callers must not reuse a read record until Done has run.
	OnRetire func(*Request)
}

// New builds a controller over a fresh DRAM channel. threads sizes the
// global predictor table.
func New(eng *sim.Engine, mem config.Mem, ctl config.Ctrl, threads int) *Controller {
	if threads <= 0 {
		threads = 1
	}
	// Clamp the interleave base bit to the μbank row size: iB beyond
	// the row is "page interleaving" whatever the row size (this is why
	// Fig. 12's iB axis tops out at 12/11/10 for the partitioned
	// configurations).
	if maxIB := ctlMaxIB(mem.Org); ctl.InterleaveBit > maxIB {
		ctl.InterleaveBit = maxIB
	}
	mapper, err := addr.NewMapperHashed(mem.Org, ctl.InterleaveBit, ctl.XORBankHash)
	if err != nil {
		panic(fmt.Sprintf("memctrl: %v", err))
	}
	ch := dram.NewChannel(mem)
	c := &Controller{
		eng:             eng,
		ch:              ch,
		mapper:          mapper,
		cfg:             ctl,
		banks:           reuse.Take[bankCtl](ch.NumBanks()),
		pred:            newPagePredictor(ch.NumBanks(), threads),
		winners:         newWinners(ch.NumBanks()),
		passBanks:       make([]int, 0, ctl.QueueDepth),
		passRow:         reuse.Take[int64](ch.NumBanks()),
		markedPerThread: make([]int, threads),
		batchScratch:    make([]tbCount, 0, ctl.QueueDepth),
		trc:             ch.Config().Timing.TRC(),
		subs:            ch.Subarrays(),
		latHists:        make([]stats.Histogram, threads),
	}
	if ctl.BankBudget > 0 {
		c.regOn = true
		c.regBudget = int32(ctl.BankBudget)
		c.regEpoch = ctl.RegEpoch
		if c.regEpoch <= 0 {
			c.regEpoch = config.DefaultRegEpoch
		}
		c.regUsed = reuse.Take[int32](threads * ch.NumBanks())
	}
	for i := range c.banks {
		c.banks[i].idx = i
	}
	c.kickCb = func(e *sim.Engine) {
		c.evalScheduled = false
		c.eval(e.Now())
	}
	c.wakeCb = func(e *sim.Engine) {
		c.wake = sim.Event{}
		c.eval(e.Now())
	}
	c.minCb = func(e *sim.Engine, arg any) {
		b := arg.(*bankCtl)
		b.minEvent = sim.Event{}
		if open, _ := c.ch.Open(b.idx); open && b.lastUse <= e.Now()-c.trc {
			c.markClose(b.idx)
			c.kick()
		}
	}
	return c
}

// Mapper exposes the controller's address mapper.
func (c *Controller) Mapper() *addr.Mapper { return c.mapper }

// Channel exposes the underlying DRAM channel (read-only use).
func (c *Controller) Channel() *dram.Channel { return c.ch }

// QueueLen returns the number of queued (unserviced) requests.
func (c *Controller) QueueLen() int { return len(c.queue) }

// SetTracer threads a DRAM command tracer through to the channel;
// events are labelled with the given channel index. It replaces any
// tracer already attached; fan out with obs.CombineTracers.
func (c *Controller) SetTracer(t obs.Tracer, channel int) {
	c.ch.SetTracer(t, channel)
}

// BankOccupancy summarizes how queued requests spread over banks:
// busy is the number of distinct banks with at least one queued
// request, maxQ the deepest per-bank backlog. The scratch slice is
// lazily allocated, so unobserved runs never pay for it.
func (c *Controller) BankOccupancy() (busy, maxQ int) {
	if len(c.queue) == 0 {
		return 0, 0
	}
	if c.bankOccScratch == nil {
		c.bankOccScratch = make([]uint16, c.ch.NumBanks())
	}
	occ := c.bankOccScratch
	for i := range occ {
		occ[i] = 0
	}
	for _, r := range c.queue {
		occ[r.bank]++
	}
	for _, n := range occ {
		if n > 0 {
			busy++
		}
		if int(n) > maxQ {
			maxQ = int(n)
		}
	}
	return busy, maxQ
}

// Release hands the controller's per-bank tables and its channel's
// bank array to the reuse store for a later New. The controller must
// not run afterwards; what observation reads after a run stays
// readable: Stats, ThreadLatencies, QueueLen, BankOccupancy and the
// channel's OpenBanks.
func (c *Controller) Release() {
	reuse.Put(c.banks)
	reuse.Put(c.winners)
	reuse.Put(c.passRow)
	reuse.Put(c.regUsed)
	c.banks, c.winners, c.passRow, c.regUsed = nil, nil, nil, nil
	c.pred.release()
	c.ch.Release()
}

// Stats returns a snapshot including DRAM energy so far.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.Energy = c.ch.Energy()
	s.PredDecisions = c.pred.Decisions
	s.PredRight = c.pred.Correct
	return s
}

// Enqueue accepts a request at the current simulation time. The
// request queue is modeled as unbounded with a scheduling window of
// cfg.QueueDepth entries (occupancy statistics reflect true occupancy);
// callers bound outstanding requests through cache MSHRs.
func (c *Controller) Enqueue(r *Request) {
	now := c.eng.Now()
	c.accountOcc(now)
	r.arrive = now
	r.loc = c.mapper.Map(r.Addr)
	r.bank = c.mapper.LocalBank(r.loc)
	if c.subs > 1 {
		// SALP: the row selects the subarray; pseudo-banks are laid out
		// subarray-minor so bank%subs is the subarray index.
		r.bank = r.bank*c.subs + int(r.loc.Row)%c.subs
	}
	c.ensureThread(r.Thread)
	r.seq = c.seq
	c.seq++
	c.resolveDecision(r.bank, r.loc.Row, now)
	c.queue = append(c.queue, r)
	c.ch.CountRowOutcome(r.bank, r.loc.Row)
	c.kick()
}

// resolveDecision trains the predictor when a bank with a pending
// speculative decision sees its next request, and applies retroactive
// precharge semantics for the perfect policy.
func (c *Controller) resolveDecision(bank int, row uint32, now sim.Time) {
	b := &c.banks[bank]
	if !b.dec.pending {
		return
	}
	openWasRight := row == b.dec.row
	if c.cfg.PagePolicy == config.PredPerfect {
		// The oracle "predicted" whatever turned out right.
		c.pred.train(bank, b.dec.thread, openWasRight, openWasRight)
		// It would have closed the row iff the next access misses.
		// Retroactively issue the precharge at the earliest legal
		// instant; the bank has been idle since the decision.
		if open, cur := c.ch.Open(bank); open && cur == b.dec.row && !openWasRight {
			c.ch.IssuePRE(bank, b.dec.preReady)
		}
		b.dec.pending = false
		return
	}
	c.pred.train(bank, b.dec.thread, b.dec.predictedOpen, openWasRight)
	if !b.dec.predictedOpen && !openWasRight {
		// A close prediction that proved right: ensure the close
		// actually happens even if no conflicting request forces it.
		c.markClose(bank)
	}
	b.dec.pending = false
}

func (c *Controller) accountOcc(now sim.Time) {
	dt := float64(now - c.lastOccCheck)
	c.stats.QueueOccIntegral += dt * float64(len(c.queue))
	c.lastOccCheck = now
}

// kick schedules an evaluation pass at the current instant (priority 2,
// after same-instant arrivals).
func (c *Controller) kick() {
	if c.evalScheduled {
		return
	}
	c.evalScheduled = true
	c.eng.ScheduleP(c.eng.Now(), 2, c.kickCb)
}

// window returns the scheduling window (oldest QueueDepth requests).
func (c *Controller) window() []*Request {
	if len(c.queue) <= c.cfg.QueueDepth {
		return c.queue
	}
	return c.queue[:c.cfg.QueueDepth]
}

// candidate describes the next command needed by one bank.
type candidate struct {
	req      *Request // nil for policy-driven precharges
	bank     int
	cmd      dram.Cmd
	earliest sim.Time
	rowHit   bool
	marked   bool
	rank     int // PAR-BS thread rank (lower = higher priority)
}

// eval issues every command that can issue now, then schedules a wakeup
// at the earliest future candidate.
func (c *Controller) eval(now sim.Time) {
	c.eng.Cancel(c.wake)
	c.wake = sim.Event{}
	if c.regOn {
		c.regSync(now)
	}
	for {
		// Catch up any overdue refreshes (cheap no-op when none due).
		for c.ch.MaybeRefresh(now) {
		}
		if c.cfg.Scheduler == config.SchedPARBS {
			c.formBatch()
		}
		cand, ok := c.best(now)
		if !ok {
			break
		}
		if cand.earliest > now {
			c.scheduleWake(cand.earliest)
			break
		}
		c.issue(cand, now)
	}
	// A due-but-blocked refresh only needs polling while work is
	// pending; when idle it is caught up lazily at the next enqueue.
	if len(c.queue) > 0 && c.ch.RefreshDue(now) {
		c.scheduleWake(now + sim.Nanosecond)
	}
	// A regulator-deferred request becomes schedulable when budgets
	// replenish: wake at the next epoch boundary.
	if c.regFiltered {
		c.regFiltered = false
		c.scheduleWake(sim.Time(c.regEpochIdx+1) * c.regEpoch)
	}
}

// regSync rolls the regulator over to the epoch containing now,
// replenishing every (thread, bank) budget. eval runs at one instant,
// so the O(threads·banks) clear happens at most once per epoch
// boundary actually visited, not per pass.
func (c *Controller) regSync(now sim.Time) {
	e := int64(now / c.regEpoch)
	if e == c.regEpochIdx {
		return
	}
	c.regEpochIdx = e
	for i := range c.regUsed {
		c.regUsed[i] = 0
	}
}

// regAdmit reports whether the regulator lets r compete in this
// selection pass: its thread must still hold budget for its (pseudo-)
// bank in the current epoch.
func (c *Controller) regAdmit(r *Request) bool {
	return c.regUsed[r.Thread*len(c.banks)+r.bank] < c.regBudget
}

// ensureThread grows the per-thread tables when a request arrives from
// a thread id beyond the size the controller was constructed with.
func (c *Controller) ensureThread(t int) {
	if t >= len(c.latHists) {
		grown := make([]stats.Histogram, t+1)
		copy(grown, c.latHists)
		c.latHists = grown
	}
	if c.regOn && (t+1)*len(c.banks) > len(c.regUsed) {
		grown := make([]int32, (t+1)*len(c.banks))
		copy(grown, c.regUsed)
		c.regUsed = grown
	}
}

// ThreadLatencies exposes the per-thread request-latency histograms
// (picoseconds, arrival to data completion; reads and writes). The
// slice is live controller state — read it only between events, and
// do not mutate it while the run advances.
func (c *Controller) ThreadLatencies() []stats.Histogram { return c.latHists }

func (c *Controller) scheduleWake(at sim.Time) {
	if at <= c.eng.Now() {
		at = c.eng.Now() + 1
	}
	if c.wake.Pending() && c.wake.When() <= at {
		return
	}
	c.eng.Cancel(c.wake)
	c.wake = c.eng.ScheduleP(at, 2, c.wakeCb)
}

// Test-only cross-check hooks. When non-nil (installed by the property
// tests), schedHookBest receives every selection best makes and
// schedHookBatch every newly formed PAR-BS batch, so the map-based
// reference implementations in reference_test.go can be compared
// against the dense-array fast path on live controller state. The nil
// checks cost nothing measurable on the hot path.
var (
	schedHookBatch func(c *Controller)
	schedHookBest  func(c *Controller, now sim.Time, chosen candidate, found bool)
)

// newWinners returns a per-bank winner table with every entry empty.
func newWinners(nbanks int) []int32 {
	w := reuse.Take[int32](nbanks)
	for i := range w {
		w[i] = -1
	}
	return w
}

// tbCount is one (thread, bank) tally used during PAR-BS batch
// formation; the scratch slice holds at most one entry per window slot.
type tbCount struct{ thread, bank, n int }

// formBatch marks a new PAR-BS batch when the previous one drained:
// the oldest BatchCap requests per (thread, bank) are marked. The
// window holds at most QueueDepth requests, so a linear scan over the
// distinct (thread, bank) pairs seen so far beats a map both in time
// and in allocation (zero).
func (c *Controller) formBatch() {
	if c.batchLive > 0 {
		return
	}
	cnt := c.batchScratch[:0]
	for _, r := range c.window() {
		idx := -1
		for i := range cnt {
			if cnt[i].thread == r.Thread && cnt[i].bank == r.bank {
				idx = i
				break
			}
		}
		if idx < 0 {
			cnt = append(cnt, tbCount{thread: r.Thread, bank: r.bank})
			idx = len(cnt) - 1
		}
		if cnt[idx].n < c.cfg.BatchCap {
			cnt[idx].n++
			r.marked = true
			c.batchLive++
			c.addMarked(r.Thread, 1)
		}
	}
	c.batchScratch = cnt
	if schedHookBatch != nil {
		schedHookBatch(c)
	}
}

// addMarked adjusts the per-thread live marked-request count, growing
// the table on first sight of a thread id beyond the constructed size.
func (c *Controller) addMarked(thread, delta int) {
	if thread >= len(c.markedPerThread) {
		grown := make([]int, thread+1)
		copy(grown, c.markedPerThread)
		c.markedPerThread = grown
	}
	c.markedPerThread[thread] += delta
}

// beats reports whether a takes scheduling priority over b (both
// target the same bank; row-hit status is cached on the requests by
// best). It is the former per-pass `order` closure, hoisted so the
// selection loop carries no captured state.
func (c *Controller) beats(a, b *Request) bool {
	switch c.cfg.Scheduler {
	case config.SchedFCFS:
		return a.seq < b.seq
	case config.SchedPARBS:
		if a.marked != b.marked {
			return a.marked
		}
		if a.hit != b.hit {
			return a.hit
		}
		if a.marked && b.marked {
			la, lb := c.markedPerThread[a.Thread], c.markedPerThread[b.Thread]
			if la != lb {
				return la < lb
			}
		}
		return a.seq < b.seq
	default: // FR-FCFS
		if a.hit != b.hit {
			return a.hit
		}
		return a.seq < b.seq
	}
}

// best selects the highest-priority issuable candidate. The selection
// pass is allocation-free: per-bank winners live in the pre-sized
// winners array (passBanks records which entries are live, in the
// first-seen window order that fixes determinism), and each request's
// row-hit status is computed once per pass — bank state cannot change
// mid-pass — instead of per comparison.
func (c *Controller) best(now sim.Time) (candidate, bool) {
	win := c.window()
	banks := c.passBanks[:0]
	for wi, r := range win {
		if c.regOn && !c.regAdmit(r) {
			// Over budget this epoch: the request sits out the pass
			// entirely (it neither wins its bank nor blocks others).
			c.regFiltered = true
			c.stats.RegDeferred++
			continue
		}
		if cur := c.winners[r.bank]; cur < 0 {
			open, row := c.ch.Open(r.bank)
			or := int64(-1)
			if open {
				or = int64(row)
			}
			c.passRow[r.bank] = or
			r.hit = or == int64(r.loc.Row)
			c.winners[r.bank] = int32(wi)
			banks = append(banks, r.bank)
		} else {
			r.hit = c.passRow[r.bank] == int64(r.loc.Row)
			if c.beats(r, win[cur]) {
				c.winners[r.bank] = int32(wi)
			}
		}
	}
	c.passBanks = banks
	var bestC candidate
	found := false
	consider := func(cd candidate) {
		if !found {
			bestC, found = cd, true
			return
		}
		// Prefer issuable-now; then scheduler priority; then earliest.
		cdNow, bestNow := cd.earliest <= now, bestC.earliest <= now
		if cdNow != bestNow {
			if cdNow {
				bestC = cd
			}
			return
		}
		if cdNow {
			if cd.marked != bestC.marked {
				if cd.marked {
					bestC = cd
				}
				return
			}
			if cd.rowHit != bestC.rowHit {
				if cd.rowHit {
					bestC = cd
				}
				return
			}
			if cd.req != nil && bestC.req != nil && cd.req.seq < bestC.req.seq {
				bestC = cd
			}
			return
		}
		if cd.earliest < bestC.earliest {
			bestC = cd
		}
	}
	for _, bank := range banks {
		cd := c.commandForRow(bank, win[c.winners[bank]], c.passRow[bank], now)
		consider(cd)
	}
	// Policy-driven precharges for banks without queued requests,
	// compacting stale entries as we go.
	kept := c.closePending[:0]
	for _, bank := range c.closePending {
		b := &c.banks[bank]
		if !b.wantClose {
			continue
		}
		if open, _ := c.ch.Open(bank); !open {
			b.wantClose = false
			continue
		}
		kept = append(kept, bank)
		if c.winners[bank] >= 0 {
			continue
		}
		consider(candidate{bank: bank, cmd: dram.CmdPRE, earliest: c.ch.EarliestPRE(bank, now)})
	}
	c.closePending = kept
	// Clear the winners entries touched this pass; passBanks is reused
	// next pass via the retained backing array.
	for _, bank := range banks {
		c.winners[bank] = -1
	}
	if schedHookBest != nil {
		schedHookBest(c, now, bestC, found)
	}
	return bestC, found
}

func (c *Controller) isRowHit(r *Request) bool {
	open, row := c.ch.Open(r.bank)
	return open && row == r.loc.Row
}

// commandFor computes the next command the bank needs to serve r.
func (c *Controller) commandFor(bank int, r *Request, now sim.Time) candidate {
	openRow := int64(-1)
	if open, row := c.ch.Open(bank); open {
		openRow = int64(row)
	}
	return c.commandForRow(bank, r, openRow, now)
}

// commandForRow is commandFor with the bank's open row (-1 = closed)
// already known — best's selection loop has it cached per pass.
func (c *Controller) commandForRow(bank int, r *Request, openRow int64, now sim.Time) candidate {
	open := openRow >= 0
	row := uint32(openRow)
	cd := candidate{req: r, bank: bank, marked: r.marked}
	switch {
	case open && row == r.loc.Row:
		cd.cmd = dram.CmdRD
		if r.Write {
			cd.cmd = dram.CmdWR
		}
		cd.rowHit = true
		cd.earliest = c.ch.EarliestCol(bank, r.Write, now)
	case open:
		cd.cmd = dram.CmdPRE
		cd.earliest = c.ch.EarliestPRE(bank, now)
	default:
		cd.cmd = dram.CmdACT
		cd.earliest = c.ch.EarliestACT(bank, now)
	}
	return cd
}

// issue applies one candidate command at time now.
func (c *Controller) issue(cd candidate, now sim.Time) {
	b := &c.banks[cd.bank]
	switch cd.cmd {
	case dram.CmdACT:
		c.ch.IssueACT(cd.bank, cd.req.loc.Row, now)
		c.stats.RowOpens++
		cd.req.ownMiss = true
		b.wantClose = false
		c.cancelMinimalist(cd.bank)
	case dram.CmdPRE:
		c.ch.IssuePRE(cd.bank, now)
		b.wantClose = false
		c.cancelMinimalist(cd.bank)
		if cd.req != nil {
			c.stats.RowConflictPres++
			cd.req.ownMiss = true
		}
	case dram.CmdRD, dram.CmdWR:
		c.serviceColumn(cd, now)
	}
}

// serviceColumn issues the column access for cd.req, retires it, and
// runs the page-management decision.
func (c *Controller) serviceColumn(cd candidate, now sim.Time) {
	r := cd.req
	b := &c.banks[cd.bank]
	// Defensive: a pending speculative decision on this bank is
	// resolved by this very access (normally impossible after the
	// whole-queue scan in pageDecision, but kept as a safety net).
	if b.dec.pending {
		c.resolveDecision(cd.bank, r.loc.Row, now)
	}
	var doneAt sim.Time
	if r.Write {
		doneAt = c.ch.IssueWR(cd.bank, now)
		c.stats.Writes++
	} else {
		doneAt = c.ch.IssueRD(cd.bank, now)
		c.stats.Reads++
		c.stats.ReadLatencyIntegralPS += float64(doneAt - r.arrive)
	}
	if c.regOn {
		c.regUsed[r.Thread*len(c.banks)+r.bank]++
	}
	c.latHists[r.Thread].Observe(uint64(doneAt - r.arrive))
	if !r.ownMiss {
		c.stats.RowHits++
	}
	c.removeRequest(r)
	c.stats.Retired++
	if r.marked {
		c.batchLive--
		r.marked = false
		c.addMarked(r.Thread, -1)
	}
	b.lastUse = now
	if r.Done != nil {
		// The shared doneCb reads r.Done at fire time (the event fires
		// exactly at doneAt, so Now() is the completion instant); no
		// per-request closure needed.
		c.eng.ScheduleArg(doneAt, doneCb, r)
	}
	c.pageDecision(cd.bank, r, now)
	if c.OnRetire != nil {
		c.OnRetire(r)
	}
}

// doneCb delivers a request's completion callback; it is shared across
// all requests, receiving the request through the event payload.
var doneCb = func(e *sim.Engine, arg any) {
	r := arg.(*Request)
	r.Done(e.Now())
}

// removeRequest deletes r from the queue, preserving order.
func (c *Controller) removeRequest(r *Request) {
	c.accountOcc(c.eng.Now())
	for i, q := range c.queue {
		if q == r {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
	panic("memctrl: retiring request not in queue")
}

// pageDecision decides, after a column access to bank, whether to keep
// the row open. With pending same-bank work the queue dictates the
// choice (§V); otherwise the configured policy predicts.
func (c *Controller) pageDecision(bank int, r *Request, now sim.Time) {
	b := &c.banks[bank]
	_, row := c.ch.Open(bank)
	// Queue knowledge first: any same-bank request pending? Scan the
	// WHOLE queue, not just the scheduling window — a same-bank request
	// beyond the window would otherwise be serviced while a speculative
	// decision is pending, invalidating its recorded precharge point.
	var sameBank, sameRow bool
	for _, q := range c.queue {
		if q.bank == bank {
			sameBank = true
			if q.loc.Row == row {
				sameRow = true
				break
			}
		}
	}
	if sameRow {
		return // keep open: a queued hit will use it
	}
	if sameBank {
		// Queued conflict: close as soon as legal (the conflicting
		// request's own PRE candidate handles it; mark intent anyway).
		c.markClose(bank)
		return
	}
	// Speculative decision territory.
	var predictOpen bool
	switch c.cfg.PagePolicy {
	case config.OpenPage:
		predictOpen = true
	case config.ClosePage:
		predictOpen = false
	case config.MinimalistOpen:
		// Keep open for ~tRC, then close. Model as open prediction with
		// a timed close.
		predictOpen = true
		c.armMinimalist(bank, now)
	case config.PredLocal:
		predictOpen = c.pred.local[bank].predictOpen()
	case config.PredGlobal:
		predictOpen = c.pred.global[r.Thread].predictOpen()
	case config.PredTournament:
		predictOpen = c.pred.predictTournament(bank, r.Thread)
	case config.PredPerfect:
		// Defer: resolveDecision applies the oracle retroactively.
		predictOpen = true
	}
	b.dec = decision{
		pending:       true,
		predictedOpen: predictOpen,
		row:           row,
		thread:        r.Thread,
		at:            now,
		preReady:      c.ch.EarliestPRE(bank, now),
	}
	if !predictOpen && c.cfg.PagePolicy != config.PredPerfect {
		c.markClose(bank)
	}
}

func (c *Controller) armMinimalist(bank int, now sim.Time) {
	c.cancelMinimalist(bank)
	b := &c.banks[bank]
	b.minEvent = c.eng.ScheduleArg(now+c.trc, c.minCb, b)
}

// markClose flags a bank for a policy-driven precharge.
func (c *Controller) markClose(bank int) {
	b := &c.banks[bank]
	if !b.wantClose {
		b.wantClose = true
		c.closePending = append(c.closePending, bank)
	}
}

func (c *Controller) cancelMinimalist(bank int) {
	b := &c.banks[bank]
	c.eng.Cancel(b.minEvent)
	b.minEvent = sim.Event{}
}

// Drained reports whether no requests remain queued.
func (c *Controller) Drained() bool { return len(c.queue) == 0 }

// ctlMaxIB returns the largest legal interleave base bit: the byte
// width of one μbank row.
func ctlMaxIB(o config.Org) int {
	b := 0
	for v := o.MicroRowBytes(); v > 1; v >>= 1 {
		b++
	}
	return b
}
