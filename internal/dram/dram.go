// Package dram models a DRAM channel at command granularity: per-μbank
// row-buffer state machines, bank/rank/channel timing constraints
// (tRCD, tRAS, tRP, tAA, tCCD, tRRD, tFAW, tWR, tWTR, tRTP, refresh),
// shared data-bus occupancy, and per-command energy accounting.
//
// A μbank behaves exactly like a conventional bank (independent ACT /
// RD / WR / PRE) except that
//
//   - its row buffer holds RowBytes/nW bytes, so activate/precharge
//     energy scales down by nW, and
//   - power-delivery windows (tRRD, tFAW) constrain *activated bits*,
//     not activate commands: a μbank activation counts 1/nW of a full
//     row, so nW-partitioned devices may issue proportionally more
//     activates per window. This follows the paper's premise that
//     activation cost is proportional to the number of opened mats.
//
// When config.Org.SubarraysPerBank > 1 (SALP / MASA-lite, Kim et al.
// ISCA'12), every (μ)bank is expanded into that many pseudo-banks, one
// per subarray: each keeps its own open row and row-state timings, so
// the scheduler sees S independently schedulable row buffers per bank.
// A row lives in subarray row%S. Unlike μbank partitioning, subarrays
// share the bank's sense-amp I/O and power delivery, so activation
// energy stays at the full (μ)row cost and the tRRD/tFAW activation
// windows are NOT widened — parallelism without the activation-size
// savings. The shared column/data-bus serialization already models the
// "one active I/O per channel at a time" constraint.
//
// The memory controller (package memctrl) owns command selection; this
// package answers "when could command X issue?" and applies its effects.
package dram

import (
	"fmt"

	"microbank/internal/config"
	"microbank/internal/obs"
	"microbank/internal/sim"
)

// Cmd enumerates DRAM commands.
type Cmd int

// DRAM command kinds.
const (
	CmdACT Cmd = iota
	CmdRD
	CmdWR
	CmdPRE
	CmdREF
)

// String returns the conventional mnemonic.
func (c Cmd) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdPRE:
		return "PRE"
	case CmdREF:
		return "REF"
	default:
		return fmt.Sprintf("Cmd(%d)", int(c))
	}
}

// Energy accumulates DRAM energy by the paper's breakdown categories
// (Figs. 1, 10, 14). All values in picojoules; counts are commands.
type Energy struct {
	ActPrePJ  float64
	RdWrPJ    float64
	IOPJ      float64
	RefreshPJ float64
	LatchPJ   float64

	Acts      uint64
	Reads     uint64
	Writes    uint64
	Pres      uint64
	Refreshes uint64
}

// TotalPJ returns the total dynamic DRAM energy.
func (e Energy) TotalPJ() float64 {
	return e.ActPrePJ + e.RdWrPJ + e.IOPJ + e.RefreshPJ + e.LatchPJ
}

type bankState struct {
	open bool
	row  uint32

	actReady sim.Time // earliest ACT (after PRE/refresh)
	colReady sim.Time // earliest RD/WR (after ACT + tRCD)
	preReady sim.Time // earliest PRE (tRAS, tRTP, tWR)
}

type rankState struct {
	// actWindow holds the issue times of recent activates for the
	// four-activate window; capacity 4*nW because each μbank ACT opens
	// 1/nW of a full row.
	actWindow []sim.Time
	actHead   int
	actCount  uint64
	lastAct   sim.Time
	haveAct   bool
}

// Channel models one memory channel: all its ranks, banks and μbanks,
// plus the shared command/data buses.
type Channel struct {
	cfg   config.Mem
	banks []bankState
	ranks []rankState

	busFreeAt   sim.Time // end of the last reserved data-bus slot
	lastRdCmd   sim.Time
	lastWrCmd   sim.Time
	lastColRank int
	haveRd      bool
	haveWr      bool
	nextRefresh sim.Time

	tRRDEff sim.Time

	// subs is SubarraysPerBank (>=1); rankDiv the pseudo-banks per rank.
	subs    int
	rankDiv int

	// refBank rotates over conventional banks for per-bank refresh.
	refBank int

	energy Energy

	// tracer, when non-nil, receives one callback per issued command
	// (obs.Tracer); chanID labels the events. The nil check is the
	// entire disabled-path cost.
	tracer obs.Tracer
	chanID int

	// Row-buffer outcome counters (per paper's hit-rate metrics).
	RowHits      uint64
	RowMisses    uint64 // closed bank, plain activate
	RowConflicts uint64 // open row had to be closed first
}

// NewChannel builds a channel for the given memory configuration.
func NewChannel(cfg config.Mem) *Channel {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("dram: invalid config: %v", err))
	}
	subs := cfg.Org.Subarrays()
	nBanks := cfg.Org.RanksPerChan * cfg.Org.BanksPerRank * cfg.Org.NW * cfg.Org.NB * subs
	c := &Channel{
		cfg:     cfg,
		banks:   make([]bankState, nBanks),
		ranks:   make([]rankState, cfg.Org.RanksPerChan),
		subs:    subs,
		rankDiv: cfg.Org.BanksPerRank * cfg.Org.NW * cfg.Org.NB * subs,
	}
	// The activation-window scaling (tRRD/tFAW over activated bits, not
	// commands) is shared with the protocol sanitizer via config.
	scale := cfg.ActWindowScale()
	for r := range c.ranks {
		c.ranks[r].actWindow = make([]sim.Time, 4*scale)
	}
	c.tRRDEff = cfg.EffectiveTRRD()
	if cfg.Timing.TREFI > 0 {
		c.nextRefresh = cfg.Timing.TREFI
	} else {
		c.nextRefresh = sim.Never
	}
	return c
}

// Config returns the channel's memory configuration.
func (c *Channel) Config() config.Mem { return c.cfg }

// NumBanks returns the number of independently schedulable row buffers:
// (μ)banks times subarrays per bank in SALP mode.
func (c *Channel) NumBanks() int { return len(c.banks) }

// Subarrays returns the subarrays per (μ)bank (1 when SALP is off).
func (c *Channel) Subarrays() int { return c.subs }

// Energy returns a snapshot of accumulated energy.
func (c *Channel) Energy() Energy { return c.energy }

// SetTracer attaches a command tracer; events are labelled with the
// given channel index. A nil tracer disables tracing.
func (c *Channel) SetTracer(t obs.Tracer, channel int) {
	c.tracer = t
	c.chanID = channel
}

// OpenBanks returns the number of banks currently holding an open row.
func (c *Channel) OpenBanks() int {
	n := 0
	for i := range c.banks {
		if c.banks[i].open {
			n++
		}
	}
	return n
}

// Open reports whether the bank's row buffer holds a row, and which.
func (c *Channel) Open(bank int) (bool, uint32) {
	b := &c.banks[bank]
	return b.open, b.row
}

func (c *Channel) rankOf(bank int) int {
	return bank / c.rankDiv
}

// actPrePJ returns the ACT+PRE pair energy for one μbank activation:
// the full-row energy scaled by the activated fraction 1/nW, plus the
// μbank latch update.
func (c *Channel) actPrePJ() float64 {
	return c.cfg.Energy.ActPre8KBPJ/float64(c.cfg.Org.NW) + c.cfg.Energy.LatchPJ
}

func (c *Channel) colPJ() (array, io float64) {
	bits := float64(c.cfg.Org.CacheLineBytes * 8)
	return bits * c.cfg.Energy.RDWRPJPerBit, bits * c.cfg.Energy.IOPJPerBit
}

// RefreshDue reports whether a refresh is pending at or before now.
func (c *Channel) RefreshDue(now sim.Time) bool { return now >= c.nextRefresh }

// MaybeRefresh performs a refresh if one is due. In the default
// all-bank mode every open bank must be allowed to precharge and the
// whole channel stalls for tRFC; in per-bank mode (LPDDR REFpb) a
// single conventional bank's μbanks are refreshed for tRFC/banks, and
// the refresh counter advances proportionally faster. It returns true
// if a refresh was performed. The controller calls this before
// scheduling commands.
func (c *Channel) MaybeRefresh(now sim.Time) bool {
	if now < c.nextRefresh {
		return false
	}
	if c.cfg.Timing.PerBankRefresh {
		return c.perBankRefresh(now)
	}
	for i := range c.banks {
		b := &c.banks[i]
		if b.open && now < b.preReady {
			return false // retry once the row may close
		}
	}
	for i := range c.banks {
		b := &c.banks[i]
		b.open = false
		b.actReady = maxT(b.actReady, now+c.cfg.Timing.TRFC)
	}
	c.energy.Refreshes++
	// One REF refreshes several rows in every bank; approximate its
	// energy as one full-row ACT/PRE per conventional bank.
	c.energy.RefreshPJ += c.cfg.Energy.ActPre8KBPJ * float64(c.cfg.Org.BanksPerRank)
	c.nextRefresh += c.cfg.Timing.TREFI
	if c.tracer != nil {
		// All-bank refresh addresses the whole channel: bank -1.
		c.tracer.TraceCmd(c.chanID, -1, obs.CmdREF, 0, now, now+c.cfg.Timing.TRFC)
	}
	return true
}

// perBankRefresh refreshes the μbanks of one conventional bank.
func (c *Channel) perBankRefresh(now sim.Time) bool {
	nb := c.cfg.Org.BanksPerRank * c.cfg.Org.RanksPerChan
	micro := c.cfg.Org.NW * c.cfg.Org.NB * c.subs
	lo := c.refBank * micro
	hi := lo + micro
	for i := lo; i < hi; i++ {
		b := &c.banks[i]
		if b.open && now < b.preReady {
			return false
		}
	}
	per := c.cfg.Timing.TRFC / sim.Time(nb)
	if per < sim.Nanosecond {
		per = sim.Nanosecond
	}
	for i := lo; i < hi; i++ {
		b := &c.banks[i]
		b.open = false
		b.actReady = maxT(b.actReady, now+per)
	}
	c.energy.Refreshes++
	c.energy.RefreshPJ += c.cfg.Energy.ActPre8KBPJ
	// Per-bank refreshes must run banks× as often to cover the device.
	c.nextRefresh += c.cfg.Timing.TREFI / sim.Time(nb)
	if c.tracer != nil {
		// Label the event with the first refreshed μbank of the group.
		c.tracer.TraceCmd(c.chanID, lo, obs.CmdREF, 0, now, now+per)
	}
	c.refBank = (c.refBank + 1) % nb
	return true
}

// NextRefreshAt returns the next refresh due time (sim.Never when
// refresh is disabled).
func (c *Channel) NextRefreshAt() sim.Time { return c.nextRefresh }

// EarliestACT returns the first instant >= now at which ACT may issue
// to the bank. The bank must be closed.
func (c *Channel) EarliestACT(bank int, now sim.Time) sim.Time {
	b := &c.banks[bank]
	if b.open {
		panic("dram: ACT to open bank")
	}
	t := maxT(now, b.actReady)
	r := &c.ranks[c.rankOf(bank)]
	if r.haveAct {
		t = maxT(t, r.lastAct+c.tRRDEff)
	}
	// Four-activate window, widened to 4*nW entries (see package doc).
	if r.actCount >= uint64(len(r.actWindow)) {
		t = maxT(t, r.actWindow[r.actHead]+c.cfg.Timing.TFAW)
	}
	return t
}

// IssueACT opens the row at time t (which must satisfy EarliestACT).
func (c *Channel) IssueACT(bank int, row uint32, t sim.Time) {
	b := &c.banks[bank]
	if e := c.EarliestACT(bank, t); t < e {
		panic(fmt.Sprintf("dram: ACT at %d before earliest %d", t, e))
	}
	if c.subs > 1 && int(row)%c.subs != bank%c.subs {
		panic(fmt.Sprintf("dram: ACT row %d to subarray slot %d (want %d)",
			row, bank%c.subs, int(row)%c.subs))
	}
	b.open = true
	b.row = row
	b.colReady = t + c.cfg.Timing.TRCD
	b.preReady = t + c.cfg.Timing.TRAS
	r := &c.ranks[c.rankOf(bank)]
	r.lastAct = t
	r.haveAct = true
	r.actWindow[r.actHead] = t
	r.actHead = (r.actHead + 1) % len(r.actWindow)
	r.actCount++
	c.energy.Acts++
	c.energy.ActPrePJ += c.actPrePJ()
	if c.tracer != nil {
		c.tracer.TraceCmd(c.chanID, bank, obs.CmdACT, row, t, t+c.cfg.Timing.TRCD)
	}
}

// EarliestPRE returns the first instant >= now at which the open bank
// may precharge.
func (c *Channel) EarliestPRE(bank int, now sim.Time) sim.Time {
	b := &c.banks[bank]
	if !b.open {
		panic("dram: PRE to closed bank")
	}
	return maxT(now, b.preReady)
}

// IssuePRE closes the bank's row at time t.
func (c *Channel) IssuePRE(bank int, t sim.Time) {
	b := &c.banks[bank]
	if e := c.EarliestPRE(bank, t); t < e {
		panic(fmt.Sprintf("dram: PRE at %d before earliest %d", t, e))
	}
	row := b.row
	b.open = false
	b.actReady = t + c.cfg.Timing.TRP
	c.energy.Pres++
	// ACT+PRE energy was charged at activate time (pair accounting).
	if c.tracer != nil {
		c.tracer.TraceCmd(c.chanID, bank, obs.CmdPRE, row, t, t+c.cfg.Timing.TRP)
	}
}

// EarliestCol returns the first instant >= now at which a column
// command (RD if !write, WR if write) may issue to the bank. The bank
// must be open; the caller is responsible for row-match checks.
func (c *Channel) EarliestCol(bank int, write bool, now sim.Time) sim.Time {
	b := &c.banks[bank]
	if !b.open {
		panic("dram: column command to closed bank")
	}
	tm := c.cfg.Timing
	t := maxT(now, b.colReady)
	// Command spacing on the shared command/column bus.
	if c.haveRd {
		t = maxT(t, c.lastRdCmd+tm.TCCD)
	}
	if c.haveWr {
		t = maxT(t, c.lastWrCmd+tm.TCCD)
	}
	// Bus turnaround penalties.
	if write {
		if c.haveRd {
			t = maxT(t, c.lastRdCmd+tm.TCCD+2*sim.Nanosecond) // RD→WR
		}
	} else if c.haveWr {
		t = maxT(t, c.lastWrCmd+tm.TCCD+tm.TWTR) // WR→RD
	}
	// Rank-to-rank data-bus switch: consecutive column accesses to
	// different ranks need a bus gap (multi-rank DIMMs only).
	if (c.haveRd || c.haveWr) && c.rankOf(bank) != c.lastColRank {
		last := c.lastRdCmd
		if c.lastWrCmd > last {
			last = c.lastWrCmd
		}
		t = maxT(t, last+tm.TCCD+tm.TRTRS)
	}
	// Data-bus slot: data occupies [t+tAA, t+tAA+tBL).
	if c.busFreeAt > t+tm.TAA {
		t = c.busFreeAt - tm.TAA
	}
	return t
}

// IssueRD issues a read at time t and returns when the cache line has
// fully arrived at the controller.
func (c *Channel) IssueRD(bank int, t sim.Time) (dataDone sim.Time) {
	if e := c.EarliestCol(bank, false, t); t < e {
		panic(fmt.Sprintf("dram: RD at %d before earliest %d", t, e))
	}
	b := &c.banks[bank]
	tm := c.cfg.Timing
	c.lastRdCmd = t
	c.haveRd = true
	c.lastColRank = c.rankOf(bank)
	c.busFreeAt = t + tm.TAA + tm.TBL
	b.preReady = maxT(b.preReady, t+tm.TRTP)
	c.energy.Reads++
	array, io := c.colPJ()
	c.energy.RdWrPJ += array
	c.energy.IOPJ += io
	if c.tracer != nil {
		c.tracer.TraceCmd(c.chanID, bank, obs.CmdRD, b.row, t, t+tm.TAA+tm.TBL)
	}
	return t + tm.TAA + tm.TBL
}

// IssueWR issues a write at time t and returns when the write data has
// been absorbed by the array (the controller may retire the request
// earlier; writes are posted).
func (c *Channel) IssueWR(bank int, t sim.Time) (done sim.Time) {
	if e := c.EarliestCol(bank, true, t); t < e {
		panic(fmt.Sprintf("dram: WR at %d before earliest %d", t, e))
	}
	b := &c.banks[bank]
	tm := c.cfg.Timing
	c.lastWrCmd = t
	c.haveWr = true
	c.lastColRank = c.rankOf(bank)
	c.busFreeAt = t + tm.TAA + tm.TBL
	b.preReady = maxT(b.preReady, t+tm.TAA+tm.TBL+tm.TWR)
	c.energy.Writes++
	array, io := c.colPJ()
	c.energy.RdWrPJ += array
	c.energy.IOPJ += io
	if c.tracer != nil {
		c.tracer.TraceCmd(c.chanID, bank, obs.CmdWR, b.row, t, t+tm.TAA+tm.TBL)
	}
	return t + tm.TAA + tm.TBL
}

// CountRowOutcome records the row-buffer outcome for one request: hit
// (open row matches), miss (bank closed), or conflict (other row open).
func (c *Channel) CountRowOutcome(bank int, row uint32) {
	b := &c.banks[bank]
	switch {
	case b.open && b.row == row:
		c.RowHits++
	case !b.open:
		c.RowMisses++
	default:
		c.RowConflicts++
	}
}

// BusFreeAt returns the end of the last data-bus reservation.
func (c *Channel) BusFreeAt() sim.Time { return c.busFreeAt }

func maxT(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
