package config

import (
	"strings"
	"testing"
	"testing/quick"

	"microbank/internal/sim"
)

func TestInterfaceString(t *testing.T) {
	cases := map[Interface]string{
		DDR3PCB:      "DDR3-PCB",
		DDR3TSI:      "DDR3-TSI",
		LPDDRTSI:     "LPDDR-TSI",
		Interface(9): "Interface(9)",
	}
	for iface, want := range cases {
		if got := iface.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(iface), got, want)
		}
	}
	if len(Interfaces()) != 3 {
		t.Fatalf("Interfaces() = %v", Interfaces())
	}
}

func TestMemPresetTableI(t *testing.T) {
	pcb := MemPreset(DDR3PCB, 1, 1)
	if pcb.Energy.IOPJPerBit != 20 {
		t.Errorf("DDR3-PCB I/O energy = %v pJ/b, want 20 (Table I)", pcb.Energy.IOPJPerBit)
	}
	if pcb.Energy.RDWRPJPerBit != 13 {
		t.Errorf("DDR3-PCB RD/WR energy = %v pJ/b, want 13", pcb.Energy.RDWRPJPerBit)
	}
	if pcb.Timing.TAA != 14*sim.Nanosecond {
		t.Errorf("DDR3 tAA = %v, want 14ns", pcb.Timing.TAA)
	}
	lp := MemPreset(LPDDRTSI, 1, 1)
	if lp.Energy.IOPJPerBit != 4 || lp.Energy.RDWRPJPerBit != 4 {
		t.Errorf("LPDDR-TSI energies = %v/%v pJ/b, want 4/4", lp.Energy.IOPJPerBit, lp.Energy.RDWRPJPerBit)
	}
	if lp.Timing.TAA != 12*sim.Nanosecond {
		t.Errorf("TSI tAA = %v, want 12ns", lp.Timing.TAA)
	}
	if lp.Energy.ActPre8KBPJ != 30000 {
		t.Errorf("ACT+PRE energy = %v pJ, want 30000 (30 nJ)", lp.Energy.ActPre8KBPJ)
	}
	for _, m := range []Mem{pcb, MemPreset(DDR3TSI, 1, 1), lp} {
		if err := m.Validate(); err != nil {
			t.Errorf("%v preset invalid: %v", m.Interface, err)
		}
		if m.Timing.TRCD != 14*sim.Nanosecond || m.Timing.TRAS != 35*sim.Nanosecond || m.Timing.TRP != 14*sim.Nanosecond {
			t.Errorf("%v core timing mismatch with Table I: %+v", m.Interface, m.Timing)
		}
	}
	// The paper keeps DDR3-PCB at 8 controllers (pin limited).
	if pcb.Org.Channels != 8 {
		t.Errorf("DDR3-PCB channels = %d, want 8", pcb.Org.Channels)
	}
	if lp.Org.Channels != 16 {
		t.Errorf("LPDDR-TSI channels = %d, want 16", lp.Org.Channels)
	}
}

func TestMemPresetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown interface did not panic")
		}
	}()
	MemPreset(Interface(42), 1, 1)
}

func TestOrgDerived(t *testing.T) {
	m := MemPreset(LPDDRTSI, 4, 2)
	o := m.Org
	if o.MicrobanksPerBank() != 8 {
		t.Errorf("MicrobanksPerBank = %d, want 8", o.MicrobanksPerBank())
	}
	if o.MicroRowBytes() != 2048 {
		t.Errorf("MicroRowBytes = %d, want 2048 (8KB/4)", o.MicroRowBytes())
	}
	if o.LinesPerRow() != 32 {
		t.Errorf("LinesPerRow = %d, want 32", o.LinesPerRow())
	}
	want := o.Channels * o.RanksPerChan * o.BanksPerRank * 8
	if o.TotalRowBuffers() != want {
		t.Errorf("TotalRowBuffers = %d, want %d", o.TotalRowBuffers(), want)
	}
}

func TestOrgValidateRejectsBadShapes(t *testing.T) {
	base := MemPreset(LPDDRTSI, 1, 1).Org
	mut := func(f func(*Org)) Org { o := base; f(&o); return o }
	bad := []Org{
		mut(func(o *Org) { o.NW = 3 }),
		mut(func(o *Org) { o.NB = 0 }),
		mut(func(o *Org) { o.Channels = 0 }),
		mut(func(o *Org) { o.BanksPerRank = 6 }),
		mut(func(o *Org) { o.RowBytes = 1000 }),
		mut(func(o *Org) { o.NW = 256 }), // μbank row smaller than a line
		mut(func(o *Org) { o.ChannelGBs = 0 }),
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad org %+v", i, o)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base org rejected: %v", err)
	}
}

func TestTimingValidate(t *testing.T) {
	tm := baseTiming(true)
	if err := tm.Validate(); err != nil {
		t.Fatalf("base timing invalid: %v", err)
	}
	if tm.TRC() != 49*sim.Nanosecond {
		t.Errorf("tRC = %v, want 49ns", tm.TRC())
	}
	bad := tm
	bad.TRAS = 10 * sim.Nanosecond // < tRCD
	if err := bad.Validate(); err == nil {
		t.Error("tRAS < tRCD accepted")
	}
	bad = tm
	bad.TRCD = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tRCD accepted")
	}
	bad = tm
	bad.TRFC = 0
	if err := bad.Validate(); err == nil {
		t.Error("refresh without tRFC accepted")
	}
}

func TestLineTransferTime(t *testing.T) {
	m := MemPreset(LPDDRTSI, 1, 1)
	// 64 B at 16 GB/s = 4 ns.
	if got := m.LineTransferTime(); got != 4*sim.Nanosecond {
		t.Errorf("LineTransferTime = %v ps, want 4000", got)
	}
}

func TestPolicyAndSchedulerStrings(t *testing.T) {
	for _, p := range []PagePolicy{OpenPage, ClosePage, MinimalistOpen, PredLocal, PredGlobal, PredTournament, PredPerfect} {
		if s := p.String(); strings.HasPrefix(s, "PagePolicy(") {
			t.Errorf("policy %d missing name", int(p))
		}
	}
	if PagePolicy(99).String() != "PagePolicy(99)" {
		t.Error("unknown policy string")
	}
	for _, s := range []Scheduler{SchedFRFCFS, SchedPARBS, SchedFCFS} {
		if str := s.String(); strings.HasPrefix(str, "Scheduler(") {
			t.Errorf("scheduler %d missing name", int(s))
		}
	}
	if Scheduler(99).String() != "Scheduler(99)" {
		t.Error("unknown scheduler string")
	}
}

func TestDefaultSystemMatchesPaper(t *testing.T) {
	s := DefaultSystem(MemPreset(LPDDRTSI, 2, 8))
	if err := s.Validate(); err != nil {
		t.Fatalf("default system invalid: %v", err)
	}
	if s.Cores != 64 || s.CoresPerL2 != 4 {
		t.Errorf("cores = %d/%d, want 64 clusters of 4", s.Cores, s.CoresPerL2)
	}
	if s.Core.IssueWidth != 2 || s.Core.ROBEntries != 32 || s.Core.FreqMHz != 2000 {
		t.Errorf("core = %+v, want 2-issue 32-ROB 2GHz", s.Core)
	}
	if s.L1D.SizeBytes != 16<<10 || s.L1D.Assoc != 4 {
		t.Errorf("L1D = %+v, want 16KB 4-way", s.L1D)
	}
	if s.L2.SizeBytes != 2<<20 || s.L2.Assoc != 16 {
		t.Errorf("L2 = %+v, want 2MB 16-way", s.L2)
	}
	if s.Ctrl.QueueDepth != 32 || s.Ctrl.Scheduler != SchedPARBS {
		t.Errorf("ctrl = %+v, want 32-entry PAR-BS", s.Ctrl)
	}
	if got := s.CoreClock().Period(); got != 500 {
		t.Errorf("core period = %d ps, want 500", got)
	}
}

func TestSingleCore(t *testing.T) {
	s := SingleCore(MemPreset(LPDDRTSI, 1, 1))
	if s.Cores != 1 || s.Mem.Org.Channels != 1 {
		t.Fatalf("SingleCore = %d cores %d channels, want 1/1", s.Cores, s.Mem.Org.Channels)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("single-core system invalid: %v", err)
	}
}

func TestSystemValidateRejectsBad(t *testing.T) {
	good := DefaultSystem(MemPreset(LPDDRTSI, 1, 1))
	mut := func(f func(*System)) System { s := good; f(&s); return s }
	bad := []System{
		mut(func(s *System) { s.Cores = 0 }),
		mut(func(s *System) { s.Core.IssueWidth = 0 }),
		mut(func(s *System) { s.L2.SizeBytes = 3000 }), // not divisible
		mut(func(s *System) { s.Ctrl.QueueDepth = 0 }),
		mut(func(s *System) { s.Ctrl.InterleaveBit = 3 }),
		mut(func(s *System) { s.Mem.Org.NW = 5 }),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// Property: for every power-of-two partitioning that keeps the μbank
// row at least one cache line, presets validate and derived quantities
// are consistent.
func TestOrgPartitionProperty(t *testing.T) {
	f := func(wExp, bExp uint8) bool {
		nW := 1 << (wExp % 8) // up to 128
		nB := 1 << (bExp % 6) // up to 32
		m := MemPreset(LPDDRTSI, nW, nB)
		err := m.Validate()
		if m.Org.RowBytes/nW < m.Org.CacheLineBytes {
			return err != nil
		}
		if err != nil {
			return false
		}
		return m.Org.MicrobanksPerBank() == nW*nB &&
			m.Org.MicroRowBytes()*nW == m.Org.RowBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEnumText: each enum marshals to its String form and decodes back
// from it; an out-of-range value still marshals, and decoding refuses
// any other name, listing the valid ones.
func TestEnumText(t *testing.T) {
	for _, c := range []struct {
		n       int
		marshal func(int) (string, error)
		parse   func(string) (int, error)
	}{
		{int(HMCSerial) + 1,
			func(i int) (string, error) { b, err := Interface(i).MarshalText(); return string(b), err },
			func(s string) (int, error) { var v Interface; err := v.UnmarshalText([]byte(s)); return int(v), err }},
		{int(PredPerfect) + 1,
			func(i int) (string, error) { b, err := PagePolicy(i).MarshalText(); return string(b), err },
			func(s string) (int, error) { var v PagePolicy; err := v.UnmarshalText([]byte(s)); return int(v), err }},
		{int(SchedFCFS) + 1,
			func(i int) (string, error) { b, err := Scheduler(i).MarshalText(); return string(b), err },
			func(s string) (int, error) { var v Scheduler; err := v.UnmarshalText([]byte(s)); return int(v), err }},
	} {
		for i := 0; i < c.n; i++ {
			name, err := c.marshal(i)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := c.parse(name); err != nil || got != i {
				t.Errorf("%q decodes to %d (%v), want %d", name, got, err, i)
			}
		}
		name, err := c.marshal(c.n)
		if err != nil || !strings.Contains(name, "(") {
			t.Errorf("out-of-range value marshals to %q (%v)", name, err)
		}
		if _, err := c.parse(name); err == nil {
			t.Errorf("out-of-range name %q decoded", name)
		}
		first, _ := c.marshal(0)
		if _, err := c.parse("bogus"); err == nil || !strings.Contains(err.Error(), first) {
			t.Errorf("unknown name: err = %v, want one listing %q", err, first)
		}
	}
}
