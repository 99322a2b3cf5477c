// Package check implements a runtime DRAM protocol sanitizer: a
// Checker attaches to the simulator's obs.Tracer seam and re-validates
// every issued command against the configured timing constraints,
// independently of the dram package's own bookkeeping. It is the
// correctness floor under the paper's results — the μbank energy and
// parallelism claims only hold if the command stream actually honors
// JEDEC-style timing, including the activation-window scaling that
// partitioned devices are entitled to.
//
// Checked constraint classes (per traced command, derived only from
// config.Mem and the stream of issue timestamps):
//
//   - tRCD:  ACT → RD/WR to the same bank
//   - tRAS:  ACT → PRE to the same bank (also enforced for the implicit
//     precharge-all of an all-bank refresh)
//   - tRP:   PRE → next ACT to the same bank
//   - tWR:   WR data end → PRE (write recovery)
//   - tRTP:  RD → PRE
//   - tRRD:  ACT → ACT on the same rank, using the effective tRRD
//     (μbank activation-size scaling with the 1 ns command-slot floor)
//   - tFAW:  at most 4×scale ACTs per rank per tFAW window
//   - tRFC:  no ACT to a bank inside a refresh blackout
//   - refresh cadence: a REF must not issue before its due time (the
//     model may postpone refreshes under load, so lateness is not
//     flagged; early refreshes would silently under-bill energy)
//   - state: no column command to a closed bank or to a row other than
//     the open one, no ACT to an open bank, no PRE to a closed bank
//   - subarray: with SALP enabled (Org.SubarraysPerBank > 1) the shadow
//     state expands to one slot per (bank, subarray) pseudo-bank, and an
//     ACT must address the pseudo-bank its row maps to (row%S)
//
// Bus-occupancy constraints (tCCD, tWTR, tRTRS, data-bus slots) are
// deliberately out of scope: they are not bank-state hazards and the
// trace does not carry data-bus reservations.
//
// The checker is strictly read-only with respect to the simulation; in
// ModeCollect it records violations (up to MaxViolations) for later
// inspection, in ModeFatal it panics on the first violation so fuzzers
// and CI stop at the exact offending command.
package check

import (
	"fmt"
	"strings"

	"microbank/internal/config"
	"microbank/internal/obs"
	"microbank/internal/sim"
)

// CheckMode selects how the Checker reacts to a violation.
type CheckMode int

const (
	// ModeCollect records violations for inspection via Violations/Err.
	ModeCollect CheckMode = iota
	// ModeFatal panics on the first violation, stopping the simulation
	// at the offending command.
	ModeFatal
)

// String names the mode as accepted by the CLI -check flag.
func (m CheckMode) String() string {
	switch m {
	case ModeCollect:
		return "collect"
	case ModeFatal:
		return "fatal"
	default:
		return fmt.Sprintf("CheckMode(%d)", int(m))
	}
}

// Rule identifies one checked constraint class.
type Rule int

// Checked constraint classes.
const (
	RuleTRCD Rule = iota
	RuleTRAS
	RuleTRP
	RuleTWR
	RuleTRTP
	RuleTRRD
	RuleTFAW
	RuleTRFC
	RuleRefEarly
	RuleClosedRow
	RuleOpenACT
	RuleClosedPRE
	RuleBadBank
	RuleSubarray
)

// String returns the rule's short name.
func (r Rule) String() string {
	switch r {
	case RuleTRCD:
		return "tRCD"
	case RuleTRAS:
		return "tRAS"
	case RuleTRP:
		return "tRP"
	case RuleTWR:
		return "tWR"
	case RuleTRTP:
		return "tRTP"
	case RuleTRRD:
		return "tRRD-eff"
	case RuleTFAW:
		return "tFAW"
	case RuleTRFC:
		return "tRFC"
	case RuleRefEarly:
		return "refresh-early"
	case RuleClosedRow:
		return "closed-row-column"
	case RuleOpenACT:
		return "act-to-open-bank"
	case RuleClosedPRE:
		return "pre-to-closed-bank"
	case RuleBadBank:
		return "bad-bank-index"
	case RuleSubarray:
		return "row-subarray-mismatch"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// Violation describes one protocol breach: the offending command, when
// it issued, and the earliest instant the violated constraint would
// have allowed it (with the anchoring prior-command time in Ref).
type Violation struct {
	Rule     Rule
	Channel  int
	Bank     int
	Cmd      obs.CmdKind
	Row      uint32
	At       sim.Time // offending command's issue time
	Earliest sim.Time // earliest legal issue under the violated rule
	Ref      sim.Time // prior command the constraint is anchored to
}

// String renders the violation for logs and panics.
func (v Violation) String() string {
	return fmt.Sprintf("ch%d bank%d %s row %d at %dps violates %s: earliest legal %dps (anchor %dps, short by %dps)",
		v.Channel, v.Bank, v.Cmd, v.Row, uint64(v.At), v.Rule,
		uint64(v.Earliest), uint64(v.Ref), uint64(v.Earliest-v.At))
}

// FatalViolation is the typed value a ModeFatal checker panics with —
// an error, so a sweep supervisor that recovers worker panics can
// classify it (errors.As) and report the protocol violation as a
// structured cell failure instead of tearing down sibling cells; only
// the CLI's top level turns it into a process exit.
type FatalViolation struct {
	V Violation
}

// Error renders the violation.
func (e *FatalViolation) Error() string { return "check: " + e.V.String() }

// bankCk is the checker's shadow state for one (μ)bank.
type bankCk struct {
	open bool
	row  uint32

	colEarliest sim.Time // last ACT + tRCD
	preTRAS     sim.Time // last ACT + tRAS
	preTWR      sim.Time // last WR data end + tWR
	preTRTP     sim.Time // last RD + tRTP
	actTRP      sim.Time // last PRE + tRP
	actRef      sim.Time // refresh blackout end
	refAnchor   sim.Time // issue time of the blacking-out REF
	preAnchor   sim.Time // issue time of the last PRE
	actAnchor   sim.Time // issue time of the last ACT
	rdAnchor    sim.Time // issue time of the last RD
	wrAnchor    sim.Time // issue time of the last WR
}

// rankCk mirrors the rank-level activation window.
type rankCk struct {
	window  []sim.Time // ring of the last 4×scale ACT issue times
	head    int
	count   uint64
	lastAct sim.Time
	haveAct bool
}

// chanState is the shadow state for one channel.
type chanState struct {
	banks  []bankCk
	ranks  []rankCk
	refDue sim.Time // next refresh must not issue before this
}

// Checker validates a traced DRAM command stream against a memory
// configuration. It implements obs.Tracer; attach it with
// obs.Observer.AddTracer (alongside the Chrome tracer). A Checker is
// not safe for concurrent use; give each simulation its own.
type Checker struct {
	// MaxViolations bounds the collected slice in ModeCollect; further
	// violations are still counted in Total. Zero means DefaultMaxViolations.
	MaxViolations int

	cfg     config.Mem
	mode    CheckMode
	scale   int
	trrdEff sim.Time
	subs    int // SALP subarrays per (μ)bank (1 = off)
	perBank int // pseudo-banks refreshed per per-bank REF (nW*nB*subs)
	rankDiv int // pseudo-banks per rank (BanksPerRank*nW*nB*subs)

	chans      map[int]*chanState
	violations []Violation
	total      uint64
	cmds       uint64
}

// DefaultMaxViolations bounds collected violations (~70 B each).
const DefaultMaxViolations = 4096

// New builds a checker for cfg. The configuration must validate; the
// checker derives the effective activation-window constraints (tRRD
// scaling, 4×scale tFAW window, per-bank refresh cadence) exactly as
// the device model does, from the shared config helpers.
func New(cfg config.Mem, mode CheckMode) *Checker {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("check: invalid config: %v", err))
	}
	subs := cfg.Org.Subarrays()
	return &Checker{
		cfg:     cfg,
		mode:    mode,
		scale:   cfg.ActWindowScale(),
		trrdEff: cfg.EffectiveTRRD(),
		subs:    subs,
		perBank: cfg.Org.NW * cfg.Org.NB * subs,
		rankDiv: cfg.Org.BanksPerRank * cfg.Org.NW * cfg.Org.NB * subs,
		chans:   make(map[int]*chanState),
	}
}

// Mode returns the checker's reaction mode.
func (c *Checker) Mode() CheckMode { return c.mode }

// Commands returns how many commands have been checked.
func (c *Checker) Commands() uint64 { return c.cmds }

// Total returns the number of violations seen, including any beyond
// the MaxViolations collection cap.
func (c *Checker) Total() uint64 { return c.total }

// Violations returns the collected violations (ModeCollect).
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns nil when the stream was clean, or an error summarizing
// the violations (first few spelled out).
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d protocol violation(s) in %d commands", c.total, c.cmds)
	for i, v := range c.violations {
		if i == 5 {
			fmt.Fprintf(&b, "\n  ... and %d more", c.total-5)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return fmt.Errorf("%s", b.String())
}

func (c *Checker) channel(id int) *chanState {
	if cs, ok := c.chans[id]; ok {
		return cs
	}
	o := c.cfg.Org
	cs := &chanState{
		banks: make([]bankCk, o.RanksPerChan*o.BanksPerRank*o.NW*o.NB*c.subs),
		ranks: make([]rankCk, o.RanksPerChan),
	}
	for r := range cs.ranks {
		cs.ranks[r].window = make([]sim.Time, 4*c.scale)
	}
	if c.cfg.Timing.TREFI > 0 {
		cs.refDue = c.cfg.Timing.TREFI
	} else {
		cs.refDue = sim.Never
	}
	c.chans[id] = cs
	return cs
}

func (c *Checker) report(v Violation) {
	c.total++
	if c.mode == ModeFatal {
		panic(&FatalViolation{V: v})
	}
	max := c.MaxViolations
	if max == 0 {
		max = DefaultMaxViolations
	}
	if len(c.violations) < max {
		c.violations = append(c.violations, v)
	}
}

// violate builds and reports a violation.
func (c *Checker) violate(rule Rule, ch, bank int, cmd obs.CmdKind, row uint32, at, earliest, ref sim.Time) {
	c.report(Violation{Rule: rule, Channel: ch, Bank: bank, Cmd: cmd, Row: row,
		At: at, Earliest: earliest, Ref: ref})
}

// TraceCmd implements obs.Tracer. Only issue timestamps feed the
// shadow state — the complete timestamp is informational, so a buggy
// model cannot vouch for itself.
func (c *Checker) TraceCmd(channel, bank int, kind obs.CmdKind, row uint32, issue, complete sim.Time) {
	c.cmds++
	cs := c.channel(channel)
	if kind == obs.CmdREF {
		c.checkREF(cs, channel, bank, issue)
		return
	}
	if bank < 0 || bank >= len(cs.banks) {
		c.violate(RuleBadBank, channel, bank, kind, row, issue, issue, issue)
		return
	}
	b := &cs.banks[bank]
	switch kind {
	case obs.CmdACT:
		c.checkACT(cs, b, channel, bank, row, issue)
	case obs.CmdRD, obs.CmdWR:
		c.checkCol(b, channel, bank, kind, row, issue)
	case obs.CmdPRE:
		c.checkPRE(b, channel, bank, row, issue)
	}
}

func (c *Checker) checkACT(cs *chanState, b *bankCk, ch, bank int, row uint32, issue sim.Time) {
	tm := c.cfg.Timing
	if b.open {
		c.violate(RuleOpenACT, ch, bank, obs.CmdACT, row, issue, issue, b.actAnchor)
	}
	if c.subs > 1 && int(row)%c.subs != bank%c.subs {
		// SALP: a row must activate in the subarray slot it maps to.
		c.violate(RuleSubarray, ch, bank, obs.CmdACT, row, issue, issue, issue)
	}
	if issue < b.actTRP {
		c.violate(RuleTRP, ch, bank, obs.CmdACT, row, issue, b.actTRP, b.preAnchor)
	}
	if issue < b.actRef {
		c.violate(RuleTRFC, ch, bank, obs.CmdACT, row, issue, b.actRef, b.refAnchor)
	}
	r := &cs.ranks[bank/c.rankDiv]
	if r.haveAct && issue < r.lastAct+c.trrdEff {
		c.violate(RuleTRRD, ch, bank, obs.CmdACT, row, issue, r.lastAct+c.trrdEff, r.lastAct)
	}
	if r.count >= uint64(len(r.window)) {
		if oldest := r.window[r.head]; issue < oldest+tm.TFAW {
			c.violate(RuleTFAW, ch, bank, obs.CmdACT, row, issue, oldest+tm.TFAW, oldest)
		}
	}
	r.window[r.head] = issue
	r.head = (r.head + 1) % len(r.window)
	r.count++
	r.lastAct = issue
	r.haveAct = true

	b.open = true
	b.row = row
	b.actAnchor = issue
	b.colEarliest = issue + tm.TRCD
	b.preTRAS = issue + tm.TRAS
	b.preTWR = 0
	b.preTRTP = 0
}

func (c *Checker) checkCol(b *bankCk, ch, bank int, kind obs.CmdKind, row uint32, issue sim.Time) {
	tm := c.cfg.Timing
	if !b.open || b.row != row {
		c.violate(RuleClosedRow, ch, bank, kind, row, issue, issue, b.actAnchor)
		// Keep going with the traced row so follow-on constraints still
		// anchor somewhere sensible.
	}
	if issue < b.colEarliest {
		c.violate(RuleTRCD, ch, bank, kind, row, issue, b.colEarliest, b.actAnchor)
	}
	if kind == obs.CmdWR {
		b.wrAnchor = issue
		if end := issue + tm.TAA + tm.TBL + tm.TWR; end > b.preTWR {
			b.preTWR = end
		}
	} else {
		b.rdAnchor = issue
		if end := issue + tm.TRTP; end > b.preTRTP {
			b.preTRTP = end
		}
	}
}

func (c *Checker) checkPRE(b *bankCk, ch, bank int, row uint32, issue sim.Time) {
	if !b.open {
		c.violate(RuleClosedPRE, ch, bank, obs.CmdPRE, row, issue, issue, b.preAnchor)
	}
	c.checkPreTimings(b, ch, bank, obs.CmdPRE, issue)
	b.open = false
	b.preAnchor = issue
	b.actTRP = issue + c.cfg.Timing.TRP
}

// checkPreTimings validates the constraints that gate closing a row:
// tRAS since the ACT, write recovery, and read-to-precharge. They also
// apply to the implicit precharge-all of a refresh.
func (c *Checker) checkPreTimings(b *bankCk, ch, bank int, cmd obs.CmdKind, issue sim.Time) {
	if b.open && issue < b.preTRAS {
		c.violate(RuleTRAS, ch, bank, cmd, b.row, issue, b.preTRAS, b.actAnchor)
	}
	if issue < b.preTWR {
		c.violate(RuleTWR, ch, bank, cmd, b.row, issue, b.preTWR, b.wrAnchor)
	}
	if issue < b.preTRTP {
		c.violate(RuleTRTP, ch, bank, cmd, b.row, issue, b.preTRTP, b.rdAnchor)
	}
}

// checkREF validates a refresh. bank == -1 is an all-bank refresh;
// bank >= 0 labels the first μbank of the refreshed conventional-bank
// group (LPDDR-style REFpb).
func (c *Checker) checkREF(cs *chanState, ch, bank int, issue sim.Time) {
	tm := c.cfg.Timing
	if cs.refDue == sim.Never {
		// Refresh disabled but a REF appeared: treat as early.
		c.violate(RuleRefEarly, ch, bank, obs.CmdREF, 0, issue, sim.Never, issue)
		return
	}
	if issue < cs.refDue {
		c.violate(RuleRefEarly, ch, bank, obs.CmdREF, 0, issue, cs.refDue, cs.refDue-tm.TREFI)
	}
	nb := c.cfg.Org.BanksPerRank * c.cfg.Org.RanksPerChan
	if bank < 0 {
		// All-bank: implicit precharge of every open bank, then a tRFC
		// blackout across the channel.
		for i := range cs.banks {
			b := &cs.banks[i]
			c.checkPreTimings(b, ch, i, obs.CmdREF, issue)
			b.open = false
			b.refAnchor = issue
			b.actRef = issue + tm.TRFC
		}
		cs.refDue += tm.TREFI
		return
	}
	if bank >= len(cs.banks) || bank+c.perBank > len(cs.banks) {
		c.violate(RuleBadBank, ch, bank, obs.CmdREF, 0, issue, issue, issue)
		return
	}
	per := tm.TRFC / sim.Time(nb)
	if per < sim.Nanosecond {
		per = sim.Nanosecond
	}
	for i := bank; i < bank+c.perBank; i++ {
		b := &cs.banks[i]
		c.checkPreTimings(b, ch, i, obs.CmdREF, issue)
		b.open = false
		b.refAnchor = issue
		b.actRef = issue + per
	}
	// Per-bank refreshes run banks× as often to cover the device.
	cs.refDue += tm.TREFI / sim.Time(nb)
}
