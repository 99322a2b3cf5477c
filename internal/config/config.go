// Package config defines every tunable parameter of the microbank
// simulator: DRAM device organization (including μbank partitioning),
// timing, energy (Table I of the paper), processor-memory interface
// presets (DDR3-PCB, DDR3-TSI, LPDDR-TSI), and whole-system shape
// (cores, caches, NoC, memory controllers).
//
// All durations are sim.Time picoseconds. All energies are picojoules
// unless a field name says otherwise.
package config

import (
	"fmt"
	"strings"

	"microbank/internal/sim"
)

// Interface identifies a processor-memory interface technology.
type Interface int

const (
	// DDR3PCB is the baseline: DDR3 modules on a printed circuit board.
	DDR3PCB Interface = iota
	// DDR3TSI stacks DDR3-type dies on a silicon interposer without
	// changing the physical layer (ODT/DLL still present).
	DDR3TSI
	// LPDDRTSI stacks LPDDR-type dies on a silicon interposer; the short
	// in-package channel removes ODT/DLL and cuts I/O energy to 4 pJ/b.
	LPDDRTSI
	// HMCSerial models a Hybrid-Memory-Cube-style stack reached over
	// high-speed serial links (§VII related work): SerDes adds latency
	// and the always-on clock-data-recovery circuitry adds static
	// power, so for single-socket systems it is less energy-efficient
	// than TSI — the comparison the paper leaves as future work.
	HMCSerial
)

// String returns the paper's name for the interface.
func (i Interface) String() string {
	switch i {
	case DDR3PCB:
		return "DDR3-PCB"
	case DDR3TSI:
		return "DDR3-TSI"
	case LPDDRTSI:
		return "LPDDR-TSI"
	case HMCSerial:
		return "HMC-serial"
	default:
		return fmt.Sprintf("Interface(%d)", int(i))
	}
}

// Interfaces lists all modeled processor-memory interfaces in paper order.
func Interfaces() []Interface { return []Interface{DDR3PCB, DDR3TSI, LPDDRTSI} }

// MarshalText encodes the interface as its String form, so spec files
// name it ("LPDDR-TSI"); an out-of-range value encodes too, and
// UnmarshalText refuses it.
func (i Interface) MarshalText() ([]byte, error) { return []byte(i.String()), nil }

// UnmarshalText decodes a String form.
func (i *Interface) UnmarshalText(b []byte) error { return parseName(i, b, HMCSerial+1, "interface") }

// parseName sets *v to the value in [0, n) whose String form is b, the
// inverse of the enums' MarshalText.
func parseName[E interface {
	~int
	String() string
}](v *E, b []byte, n E, kind string) error {
	names := make([]string, n)
	for e := E(0); e < n; e++ {
		if names[e] = e.String(); names[e] == string(b) {
			*v = e
			return nil
		}
	}
	return fmt.Errorf("config: unknown %s %q (%s)", kind, b, strings.Join(names, " | "))
}

// Timing holds DRAM timing constraints (Table I plus the standard
// secondary constraints the paper inherits from DDR3/LPDDR datasheets).
type Timing struct {
	TRCD  sim.Time // activate to read/write delay
	TAA   sim.Time // read command to first data
	TRAS  sim.Time // activate to precharge (row restore)
	TRP   sim.Time // precharge command period
	TBL   sim.Time // data burst occupancy of the channel per cache line
	TCCD  sim.Time // column command to column command, same channel
	TRRD  sim.Time // activate to activate, different banks
	TFAW  sim.Time // four-activate window (full-row activations)
	TRTRS sim.Time // rank-to-rank data-bus switch penalty
	TWR   sim.Time // write recovery before precharge
	TWTR  sim.Time // write-to-read turnaround
	TRTP  sim.Time // read-to-precharge
	TREFI sim.Time // refresh interval (0 disables refresh)
	TRFC  sim.Time // refresh cycle time
	// NoActWindowScaling disables the model's default behaviour of
	// widening tRRD/tFAW with nW (activation current ∝ activated bits).
	// Used by the act-window ablation to quantify that design choice.
	NoActWindowScaling bool
	// PerBankRefresh selects LPDDR-style REFpb: each refresh blocks one
	// bank for TRFC/BanksPerRank instead of stalling the whole rank,
	// trading refresh-command rate for availability.
	PerBankRefresh bool
}

// TRC returns the bank cycle time tRAS+tRP.
func (t Timing) TRC() sim.Time { return t.TRAS + t.TRP }

// Validate checks internal consistency of the timing set.
func (t Timing) Validate() error {
	if t.TRCD == 0 || t.TRAS == 0 || t.TRP == 0 || t.TAA == 0 {
		return fmt.Errorf("config: core timing parameter is zero: %+v", t)
	}
	if t.TBL == 0 || t.TCCD == 0 {
		return fmt.Errorf("config: column timing parameter is zero: %+v", t)
	}
	if t.TRAS < t.TRCD {
		return fmt.Errorf("config: tRAS (%d) < tRCD (%d)", t.TRAS, t.TRCD)
	}
	if t.TREFI != 0 && t.TRFC == 0 {
		return fmt.Errorf("config: refresh enabled but tRFC is zero")
	}
	return nil
}

// Energy holds DRAM access energy parameters (Table I).
type Energy struct {
	IOPJPerBit   float64 // inter-die I/O energy, pJ/b
	RDWRPJPerBit float64 // array-to-transceiver datapath energy, pJ/b
	ActPre8KBPJ  float64 // ACT+PRE energy for a full 8 KB row, pJ
	// StaticMWPerRank is background power (DLL, charge pumps,
	// peripheral leakage) per rank in milliwatts.
	StaticMWPerRank float64
	// LatchPJ is the energy to update one μbank row-address latch set.
	// It is negligible next to the array energy (paper §IV-B) but
	// modeled so the overhead is visible in sweeps.
	LatchPJ float64
}

// Org describes the DRAM device organization including μbank
// partitioning.
type Org struct {
	Channels       int // memory channels (one controller each)
	RanksPerChan   int // dies per channel (LPDDR-TSI: one die per rank)
	BanksPerRank   int // conventional banks per rank
	NW             int // μbank partitions in the wordline direction
	NB             int // μbank partitions in the bitline direction
	RowBytes       int // DRAM row (page) size per rank, full-bank, bytes
	CacheLineBytes int // unit of data transfer
	// ChannelGBs is the per-channel data bandwidth in GB/s (excluding
	// ECC); 16 GB/s moves one 64 B line every 4 ns.
	ChannelGBs float64
	// CapacityGB is total main-memory capacity (used for address-space
	// sizing and refresh accounting).
	CapacityGB int
	// SubarraysPerBank enables a SALP-style subarray model (Kim et al.,
	// ISCA'12, MASA-lite): each (μ)bank exposes this many independently
	// schedulable subarrays, each with its own open row, sharing the
	// bank's I/O. A row maps to subarray row%S. Unlike μbank
	// partitioning (nW), subarrays keep full-row activation energy and
	// unscaled tRRD/tFAW — parallelism without the activation-size
	// savings. 0 or 1 disables the model (byte-identical to no knob).
	SubarraysPerBank int
}

// MicrobanksPerBank returns nW*nB.
func (o Org) MicrobanksPerBank() int { return o.NW * o.NB }

// TotalRowBuffers returns the number of independently open rows the
// whole memory system can hold.
func (o Org) TotalRowBuffers() int {
	return o.Channels * o.RanksPerChan * o.BanksPerRank * o.NW * o.NB
}

// Subarrays returns the effective subarrays per (μ)bank: at least 1.
// It multiplies the number of schedulable row buffers but not the
// address-visible bank count (subarray selection is row-derived), so
// the address mapper is unaffected.
func (o Org) Subarrays() int {
	if o.SubarraysPerBank < 1 {
		return 1
	}
	return o.SubarraysPerBank
}

// MicroRowBytes returns the row-buffer size of one μbank: partitioning
// in the wordline direction shrinks the activated row to RowBytes/nW.
func (o Org) MicroRowBytes() int { return o.RowBytes / o.NW }

// LinesPerRow returns cache lines per μbank row.
func (o Org) LinesPerRow() int { return o.MicroRowBytes() / o.CacheLineBytes }

// Validate checks that the organization is well-formed.
func (o Org) Validate() error {
	if o.Channels <= 0 || o.RanksPerChan <= 0 || o.BanksPerRank <= 0 {
		return fmt.Errorf("config: non-positive channel/rank/bank count: %+v", o)
	}
	if !isPow2(o.NW) || !isPow2(o.NB) {
		return fmt.Errorf("config: nW=%d nB=%d must be powers of two", o.NW, o.NB)
	}
	if !isPow2(o.BanksPerRank) || !isPow2(o.Channels) || !isPow2(o.RanksPerChan) {
		return fmt.Errorf("config: channels/ranks/banks must be powers of two: %+v", o)
	}
	if o.RowBytes <= 0 || o.CacheLineBytes <= 0 || !isPow2(o.RowBytes) || !isPow2(o.CacheLineBytes) {
		return fmt.Errorf("config: row/line sizes must be positive powers of two: %+v", o)
	}
	if o.MicroRowBytes() < o.CacheLineBytes {
		return fmt.Errorf("config: μbank row (%d B) smaller than a cache line (%d B); nW too large",
			o.MicroRowBytes(), o.CacheLineBytes)
	}
	if o.ChannelGBs <= 0 {
		return fmt.Errorf("config: non-positive channel bandwidth")
	}
	if o.SubarraysPerBank != 0 && (!isPow2(o.SubarraysPerBank) || o.SubarraysPerBank > 128) {
		return fmt.Errorf("config: subarrays per bank %d must be a power of two <= 128", o.SubarraysPerBank)
	}
	return nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Mem bundles everything describing one main-memory configuration.
type Mem struct {
	Interface Interface
	Org       Org
	Timing    Timing
	Energy    Energy
}

// Validate checks the whole memory configuration.
func (m Mem) Validate() error {
	if m.Interface < 0 || m.Interface > HMCSerial {
		return fmt.Errorf("config: unknown interface %v", m.Interface)
	}
	if err := m.Org.Validate(); err != nil {
		return err
	}
	return m.Timing.Validate()
}

// ActWindowScale returns the activation-window widening factor: μbank
// activations open 1/nW of a full row, so power-delivery windows admit
// nW× as many of them (unless the ablation flag disables scaling).
// Both the device model (dram) and the protocol sanitizer (check)
// derive their tRRD/tFAW handling from this single definition.
func (m Mem) ActWindowScale() int {
	if m.Timing.NoActWindowScaling {
		return 1
	}
	return m.Org.NW
}

// EffectiveTRRD returns the same-rank ACT→ACT spacing the model
// enforces: tRRD scaled down by the activation size, floored at a 1 ns
// command slot.
func (m Mem) EffectiveTRRD() sim.Time {
	t := m.Timing.TRRD / sim.Time(m.ActWindowScale())
	if t < sim.Nanosecond {
		t = sim.Nanosecond
	}
	return t
}

// LineTransferTime returns how long one cache line occupies the channel
// data bus.
func (m Mem) LineTransferTime() sim.Time {
	bytesPerPS := m.Org.ChannelGBs / 1000.0 // GB/s == bytes/ns == 1e-3 bytes/ps
	return sim.Time(float64(m.Org.CacheLineBytes)/bytesPerPS + 0.5)
}

// Table I anchor values.
const (
	ioPJDDR3PCB   = 20.0
	ioPJLPDDRTSI  = 4.0
	rdwrPJDDR3    = 13.0
	rdwrPJLPDDR   = 4.0
	actPre8KBnJ   = 30.0 // nJ for a full 8 KB row
	rowBytes8KB   = 8 * 1024
	cacheLine     = 64
	defaultChanGB = 16.0
)

// baseTiming returns the Table I timing set; tAA differs per interface.
// TSI stacks power one die per rank through TSVs, which supports a
// higher sustained activation rate than a PCB DIMM: tRRD/tFAW relax to
// the column-command cadence (they stop being the binding constraint),
// while DDR3-PCB keeps the classic 6 ns / 30 ns limits.
func baseTiming(tsi bool) Timing {
	ns := sim.Nanosecond
	tAA := 14 * ns
	tRRD := 6 * ns
	tFAW := 30 * ns
	if tsi {
		tAA = 12 * ns
		tRRD = 4 * ns
		tFAW = 16 * ns
	}
	return Timing{
		TRCD:  14 * ns,
		TAA:   tAA,
		TRAS:  35 * ns,
		TRP:   14 * ns,
		TBL:   4 * ns, // 64 B at 16 GB/s
		TCCD:  4 * ns,
		TRTRS: 2 * ns,
		TRRD:  tRRD,
		TFAW:  tFAW,
		TWR:   15 * ns,
		TWTR:  8 * ns,
		TRTP:  8 * ns,
		TREFI: 7800 * ns,
		TRFC:  260 * ns,
	}
}

// MemPreset returns the paper's memory configuration for the given
// interface with the given μbank partitioning. DDR3-PCB keeps eight
// controllers (pin-limited, §VI-D); the TSI variants use sixteen.
func MemPreset(iface Interface, nW, nB int) Mem {
	org := Org{
		Channels:       16,
		RanksPerChan:   1,
		BanksPerRank:   8, // 8 banks per channel (§IV-B: 16 banks, 2 channels per die)
		NW:             nW,
		NB:             nB,
		RowBytes:       rowBytes8KB,
		CacheLineBytes: cacheLine,
		ChannelGBs:     defaultChanGB,
		CapacityGB:     64,
	}
	var tm Timing
	var en Energy
	switch iface {
	case DDR3PCB:
		org.Channels = 8
		org.RanksPerChan = 2
		tm = baseTiming(false)
		en = Energy{
			IOPJPerBit:      ioPJDDR3PCB,
			RDWRPJPerBit:    rdwrPJDDR3,
			ActPre8KBPJ:     actPre8KBnJ * 1000,
			StaticMWPerRank: 150, // ODT + DLL + peripheral
			LatchPJ:         0.2,
		}
	case DDR3TSI:
		tm = baseTiming(true)
		// The DDR3 PHY is kept unchanged on the interposer (§III-B), so
		// the read latency stays at DDR3's tAA; only the channel count
		// and I/O energy benefit from TSI.
		tm.TAA = 14 * sim.Nanosecond
		en = Energy{
			IOPJPerBit:      8, // TSI channel, but DDR3 PHY keeps ODT/DLL overhead
			RDWRPJPerBit:    rdwrPJDDR3,
			ActPre8KBPJ:     actPre8KBnJ * 1000,
			StaticMWPerRank: 120,
			LatchPJ:         0.2,
		}
	case LPDDRTSI:
		tm = baseTiming(true)
		en = Energy{
			IOPJPerBit:      ioPJLPDDRTSI,
			RDWRPJPerBit:    rdwrPJLPDDR,
			ActPre8KBPJ:     actPre8KBnJ * 1000,
			StaticMWPerRank: 35, // no ODT, no DLL
			LatchPJ:         0.2,
		}
	case HMCSerial:
		tm = baseTiming(true)
		// SerDes + packetization adds ~8 ns to the read path.
		tm.TAA += 8 * sim.Nanosecond
		en = Energy{
			IOPJPerBit:   6, // serial links are efficient per bit...
			RDWRPJPerBit: rdwrPJLPDDR,
			ActPre8KBPJ:  actPre8KBnJ * 1000,
			// ...but clock-data recovery burns power regardless of
			// traffic (§II footnote 2, §VII).
			StaticMWPerRank: 400,
			LatchPJ:         0.2,
		}
	default:
		panic(fmt.Sprintf("config: unknown interface %d", iface))
	}
	return Mem{Interface: iface, Org: org, Timing: tm, Energy: en}
}

// PagePolicy selects the controller's row-buffer management scheme.
type PagePolicy int

const (
	// OpenPage leaves a row open after column accesses.
	OpenPage PagePolicy = iota
	// ClosePage precharges as soon as no pending request hits the row.
	ClosePage
	// MinimalistOpen keeps a row open for a fixed interval (~tRC) after
	// the last access, then closes it (Kaseridis et al., MICRO'11).
	MinimalistOpen
	// PredLocal adapts open/close per bank with a 2-bit bimodal
	// predictor keyed by bank (§V).
	PredLocal
	// PredGlobal adapts open/close with a 2-bit bimodal predictor keyed
	// by requesting thread.
	PredGlobal
	// PredTournament selects among {open, close, local, global} with a
	// bimodal chooser per bank.
	PredTournament
	// PredPerfect consults an oracle hint carried by each request that
	// says whether the next access to this (μ)bank hits the same row.
	PredPerfect
)

// String returns the short name used in the paper's figures.
func (p PagePolicy) String() string {
	switch p {
	case OpenPage:
		return "open"
	case ClosePage:
		return "close"
	case MinimalistOpen:
		return "minimalist"
	case PredLocal:
		return "local"
	case PredGlobal:
		return "global"
	case PredTournament:
		return "tournament"
	case PredPerfect:
		return "perfect"
	default:
		return fmt.Sprintf("PagePolicy(%d)", int(p))
	}
}

// MarshalText encodes the policy as its String form ("open").
func (p PagePolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText decodes a String form.
func (p *PagePolicy) UnmarshalText(b []byte) error {
	return parseName(p, b, PredPerfect+1, "page policy")
}

// Scheduler selects the memory-access scheduling algorithm.
type Scheduler int

const (
	// SchedFRFCFS is first-ready, first-come-first-served.
	SchedFRFCFS Scheduler = iota
	// SchedPARBS is parallelism-aware batch scheduling (Mutlu &
	// Moscibroda, ISCA'08), the paper's default.
	SchedPARBS
	// SchedFCFS is strict arrival order (baseline for ablations).
	SchedFCFS
)

// String returns the scheduler's conventional name.
func (s Scheduler) String() string {
	switch s {
	case SchedFRFCFS:
		return "FR-FCFS"
	case SchedPARBS:
		return "PAR-BS"
	case SchedFCFS:
		return "FCFS"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// MarshalText encodes the scheduler as its String form ("PAR-BS").
func (s Scheduler) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a String form.
func (s *Scheduler) UnmarshalText(b []byte) error {
	return parseName(s, b, SchedFCFS+1, "scheduler")
}

// Ctrl holds memory-controller parameters.
type Ctrl struct {
	QueueDepth int // request queue entries per controller (default 32)
	Scheduler  Scheduler
	PagePolicy PagePolicy
	// InterleaveBit is iB from Fig. 11: the lowest address bit of the
	// channel/bank interleaving field. 6 = cache-line interleaving,
	// 13 = DRAM-row (8 KB) interleaving.
	InterleaveBit int
	// BatchCap is PAR-BS's per-thread marking cap.
	BatchCap int
	// XORBankHash enables permutation-based interleaving: the bank and
	// μbank index is XORed with low row bits so power-of-two strides do
	// not alias onto a single bank.
	XORBankHash bool
	// BankBudget enables a MemGuard-style per-bank bandwidth regulator
	// (Yun et al.): each thread may be granted at most this many column
	// accesses per (μ)bank per replenishment epoch; further requests
	// from that thread to that bank are held back by the scheduler's
	// admission filter until the next epoch. 0 disables the regulator.
	BankBudget int
	// RegEpoch is the regulator's replenishment epoch in picoseconds;
	// 0 with BankBudget > 0 selects DefaultRegEpoch.
	RegEpoch sim.Time
}

// DefaultRegEpoch is the regulator's replenishment epoch when
// Ctrl.BankBudget is set but Ctrl.RegEpoch is left zero: 1 μs, a few
// bank cycles — long enough to amortize budget bookkeeping, short
// enough that a throttled thread is never stalled perceptibly.
const DefaultRegEpoch = 1000 * sim.Nanosecond

// DefaultCtrl returns the paper's controller defaults: 32-entry queue,
// PAR-BS, open page, row interleaving.
func DefaultCtrl() Ctrl {
	return Ctrl{QueueDepth: 32, Scheduler: SchedPARBS, PagePolicy: OpenPage, InterleaveBit: 13, BatchCap: 5}
}

// Core holds processor core parameters (§VI-A).
type Core struct {
	FreqMHz     int // 2000
	IssueWidth  int // 2
	ROBEntries  int // 32
	CommitWidth int
}

// CacheGeom describes one cache level.
type CacheGeom struct {
	SizeBytes int
	Assoc     int
	LineBytes int
	LatencyCy int // access latency in core cycles
	MSHRs     int
	Banks     int
}

// System is the whole simulated machine.
type System struct {
	Cores      int // populated cores
	CoresPerL2 int // cluster size (4)
	Core       Core
	L1D        CacheGeom
	L1I        CacheGeom
	L2         CacheGeom
	Mem        Mem
	Ctrl       Ctrl
	// NoCHopPS is the per-hop router+link latency; MeshDim the mesh side.
	NoCHopPS sim.Time
	MeshDim  int
	// CoreEnergyPJPerOp is the McPAT-derived core energy (§III-B).
	CoreEnergyPJPerOp float64
}

// CoreClock returns the core clock.
func (s System) CoreClock() sim.Clock {
	return sim.NewClock(sim.Time(1e6 / float64(s.Core.FreqMHz)))
}

// Validate checks the whole system configuration.
func (s System) Validate() error {
	if s.Cores <= 0 || s.CoresPerL2 <= 0 {
		return fmt.Errorf("config: non-positive core counts")
	}
	if s.Core.IssueWidth <= 0 || s.Core.CommitWidth <= 0 || s.Core.ROBEntries <= 0 || s.Core.FreqMHz <= 0 {
		return fmt.Errorf("config: bad core parameters: %+v", s.Core)
	}
	for _, g := range []CacheGeom{s.L1D, s.L1I, s.L2} {
		if g.SizeBytes <= 0 || g.Assoc <= 0 || g.LineBytes <= 0 || g.LatencyCy <= 0 || g.MSHRs <= 0 || g.Banks <= 0 {
			return fmt.Errorf("config: bad cache geometry: %+v", g)
		}
		if g.SizeBytes%(g.Assoc*g.LineBytes) != 0 {
			return fmt.Errorf("config: cache size %d not divisible by assoc*line", g.SizeBytes)
		}
	}
	if s.MeshDim <= 0 {
		return fmt.Errorf("config: non-positive mesh side %d", s.MeshDim)
	}
	if s.Ctrl.QueueDepth <= 0 || s.Ctrl.BatchCap <= 0 {
		return fmt.Errorf("config: non-positive queue depth or batch cap")
	}
	if s.Ctrl.Scheduler < 0 || s.Ctrl.Scheduler > SchedFCFS {
		return fmt.Errorf("config: unknown scheduler %v", s.Ctrl.Scheduler)
	}
	if s.Ctrl.PagePolicy < 0 || s.Ctrl.PagePolicy > PredPerfect {
		return fmt.Errorf("config: unknown page policy %v", s.Ctrl.PagePolicy)
	}
	if s.Ctrl.InterleaveBit < 6 {
		return fmt.Errorf("config: interleave bit %d below cache-line bits", s.Ctrl.InterleaveBit)
	}
	if s.Ctrl.BankBudget < 0 {
		return fmt.Errorf("config: negative bank budget %d", s.Ctrl.BankBudget)
	}
	if s.Ctrl.RegEpoch < 0 {
		return fmt.Errorf("config: negative regulation epoch %d", s.Ctrl.RegEpoch)
	}
	return s.Mem.Validate()
}

// DefaultSystem returns the paper's 64-core CMP (§VI-A) over the given
// memory configuration. Single-threaded experiments populate one core
// and one memory controller via Scale.
func DefaultSystem(mem Mem) System {
	return System{
		Cores:             64,
		CoresPerL2:        4,
		Core:              Core{FreqMHz: 2000, IssueWidth: 2, ROBEntries: 32, CommitWidth: 2},
		L1D:               CacheGeom{SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64, LatencyCy: 2, MSHRs: 8, Banks: 4},
		L1I:               CacheGeom{SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64, LatencyCy: 1, MSHRs: 4, Banks: 4},
		L2:                CacheGeom{SizeBytes: 2 << 20, Assoc: 16, LineBytes: 64, LatencyCy: 12, MSHRs: 32, Banks: 4},
		Mem:               mem,
		Ctrl:              DefaultCtrl(),
		NoCHopPS:          2 * sim.Nanosecond,
		MeshDim:           4,
		CoreEnergyPJPerOp: 200,
	}
}

// SingleCore reduces the system to one populated core and one memory
// controller, the paper's setup for single-threaded SPEC runs ("we
// populated only one memory controller ... to stress the main memory
// bandwidth").
func SingleCore(mem Mem) System {
	s := DefaultSystem(mem)
	s.Cores = 1
	s.Mem.Org.Channels = 1
	return s
}
