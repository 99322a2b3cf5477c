package system

// Spec files: the encoding/json form of a Spec — the same bytes Digest
// hashes — is also how a run is described from outside the program
// (`microbank -exp run -spec FILE`). Validate is the one gate between
// such input and the machine builder, which panics on what it refuses.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"microbank/internal/sim"
)

// Bounds Validate puts on a spec: far beyond any shipped configuration
// (64 cores, 16 channels, 2 MiB L2, 240k instructions, 260 ns tRFC,
// 2 GHz), close enough that a mistyped file fails with a message
// instead of exhausting memory or stalling the simulation.
const (
	maxCores        = 1024
	maxChannels     = 256
	maxCacheBytes   = 256 << 20
	maxInstrPerCore = 1 << 32
	// maxBanks bounds the (μ)banks and subarrays behind one controller,
	// maxEntries every per-structure entry count (ROB, queue, MSHRs,
	// streams).
	maxBanks   = 1 << 16
	maxEntries = 1 << 16
	// The controller catches up overdue refreshes one tREFI at a time
	// within a single event, so the ratio of the longest idle gap to
	// tREFI must stay small: maxDelay bounds the NoC hop and every DRAM
	// timing parameter but tREFI, maxCacheCycles and minCoreMHz the
	// cache latencies, and tREFI lies in [minTREFI, maxTime] (DDR3 and
	// LPDDR use 3.9–7.8 μs). As minTREFI is maxDelay, tRFC <= tREFI:
	// each refresh ends before the next is due.
	maxDelay       = sim.Microsecond
	maxCacheCycles = 1000
	minCoreMHz     = 100
	maxCoreMHz     = 100000 // a clock period of 10 ps
	minTREFI       = maxDelay
	maxTime        = sim.Time(1e12) // one simulated second
)

// Validate checks that the spec describes a run the machine can be
// built for: a valid system and profiles, one profile per core, a
// nonzero budget above the warm-up, and every size and duration within
// the bounds above. Run calls it first.
func (s Spec) Validate() error {
	sys := s.Sys
	if err := sys.Validate(); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if len(s.Profiles) != sys.Cores {
		return fmt.Errorf("system: %d profiles for %d cores", len(s.Profiles), sys.Cores)
	}
	if s.InstrPerCore == 0 {
		return fmt.Errorf("system: zero instruction budget")
	}
	if s.WarmupInstr >= s.InstrPerCore {
		return fmt.Errorf("system: warm-up %d >= budget %d", s.WarmupInstr, s.InstrPerCore)
	}
	org := sys.Mem.Org
	// A negative field converts to a huge uint64, so one upper bound
	// refuses it too.
	for _, c := range []struct {
		what string
		v    uint64
		max  uint64
	}{
		{"cores", uint64(sys.Cores), maxCores},
		{"channels", uint64(org.Channels), maxChannels},
		{"L1D bytes", uint64(sys.L1D.SizeBytes), maxCacheBytes},
		{"L1I bytes", uint64(sys.L1I.SizeBytes), maxCacheBytes},
		{"L2 bytes", uint64(sys.L2.SizeBytes), maxCacheBytes},
		{"instructions per core", s.InstrPerCore, maxInstrPerCore},
		{"ranks per channel", uint64(org.RanksPerChan), maxBanks},
		{"banks per rank", uint64(org.BanksPerRank), maxBanks},
		{"nW", uint64(org.NW), maxBanks},
		{"nB", uint64(org.NB), maxBanks},
		{"row bytes", uint64(org.RowBytes), 1 << 20},
		{"capacity GB", uint64(org.CapacityGB), 1 << 20},
		{"L1D latency", uint64(sys.L1D.LatencyCy), maxCacheCycles},
		{"L1I latency", uint64(sys.L1I.LatencyCy), maxCacheCycles},
		{"L2 latency", uint64(sys.L2.LatencyCy), maxCacheCycles},
		{"ROB entries", uint64(sys.Core.ROBEntries), maxEntries},
		{"queue depth", uint64(sys.Ctrl.QueueDepth), maxEntries},
		{"L1D MSHRs", uint64(sys.L1D.MSHRs), maxEntries},
		{"L2 MSHRs", uint64(sys.L2.MSHRs), maxEntries},
		{"mesh side", uint64(sys.MeshDim), 256},
	} {
		if c.v > c.max {
			return fmt.Errorf("system: %s %d above the limit %d", c.what, c.v, c.max)
		}
	}
	if org.CapacityGB == 0 {
		return fmt.Errorf("system: zero memory capacity")
	}
	if f := sys.Core.FreqMHz; f < minCoreMHz || f > maxCoreMHz {
		return fmt.Errorf("system: core clock %d MHz outside [%d, %d]", f, minCoreMHz, maxCoreMHz)
	}
	// Each factor is at most maxBanks, so the running product cannot
	// overflow before it passes the limit.
	banks := uint64(1)
	for _, n := range []int{org.RanksPerChan, org.BanksPerRank, org.NW, org.NB, org.Subarrays()} {
		if banks *= uint64(n); banks > maxBanks {
			return fmt.Errorf("system: more than %d (μ)banks and subarrays per channel", maxBanks)
		}
	}
	if g := org.ChannelGBs; g < 0.01 || g > 1e4 {
		return fmt.Errorf("system: channel bandwidth %v GB/s outside [0.01, 10000]", g)
	}
	if line := org.CacheLineBytes; sys.L1D.LineBytes != line || sys.L1I.LineBytes != line || sys.L2.LineBytes != line {
		return fmt.Errorf("system: cache line sizes %d/%d/%d differ from the memory's %d B",
			sys.L1D.LineBytes, sys.L1I.LineBytes, sys.L2.LineBytes, line)
	}
	tm := sys.Mem.Timing
	for _, t := range []sim.Time{tm.TRCD, tm.TAA, tm.TRAS, tm.TRP, tm.TBL, tm.TCCD, tm.TRRD, tm.TFAW,
		tm.TRTRS, tm.TWR, tm.TWTR, tm.TRTP, tm.TRFC, sys.NoCHopPS} {
		if t > maxDelay {
			return fmt.Errorf("system: delay %d ps above the limit %d", t, maxDelay)
		}
	}
	if tm.TREFI != 0 && (tm.TREFI < minTREFI || tm.TREFI > maxTime) {
		return fmt.Errorf("system: refresh interval %d ps outside [%d, %d]", tm.TREFI, minTREFI, maxTime)
	}
	if sys.Ctrl.RegEpoch > maxTime {
		return fmt.Errorf("system: regulator epoch %d ps above the limit %d", sys.Ctrl.RegEpoch, maxTime)
	}
	for i, p := range s.Profiles {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("system: core %d: %w", i, err)
		}
		if p.Streams > maxEntries {
			return fmt.Errorf("system: core %d: %d streams above the limit %d", i, p.Streams, maxEntries)
		}
	}
	return nil
}

// DecodeSpec reads one spec in its encoding/json form — what Digest
// hashes and a spec file holds — and validates it. Unknown fields (a
// run control such as GeneratorFor, Obs or Limits among them) and data
// after the spec are refused.
func DecodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("spec: data after the spec")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// ReadSpecFile decodes and validates the spec file at path.
func ReadSpecFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	s, err := DecodeSpec(bytes.NewReader(data))
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
