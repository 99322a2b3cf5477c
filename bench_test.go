// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus microbenchmarks of the core substrates. Each Fig*/
// Table* benchmark runs its experiment at reduced (Quick) fidelity and
// reports the figure's key quantity as a custom metric, so
// `go test -bench=. -benchmem` both exercises the harness and prints
// the reproduced results. Full-fidelity numbers are produced by
// `go run ./cmd/microbank -exp all` and recorded in EXPERIMENTS.md.
package microbank_test

import (
	"context"
	"testing"
	"time"

	"microbank"
	"microbank/internal/addr"
	"microbank/internal/config"
	"microbank/internal/dram"
	"microbank/internal/experiments"
	"microbank/internal/memctrl"
	"microbank/internal/sim"
	"microbank/internal/system"
	"microbank/internal/workload"
)

// benchOpts keeps figure benchmarks fast enough for -bench=.
var benchOpts = experiments.Options{Quick: true, Instr: 16000, Cores: 8, Seed: 42}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2().NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1EnergyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig1(1.0, 8)
		if t.NumRows() != 3 {
			b.Fatal("bad fig1")
		}
	}
}

func BenchmarkFig6aArea(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		g := experiments.Fig6a()
		v = g.At(16, 16)
	}
	b.ReportMetric(v, "relArea(16,16)")
}

func BenchmarkFig6bEnergy(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		g := experiments.Fig6b(1.0)
		v = g.At(16, 1)
	}
	b.ReportMetric(v, "relEnergy(16,1)")
}

func BenchmarkFig8IPCGrid(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		grids, err := experiments.Fig8(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		_, _, best = grids[0].Best()
	}
	b.ReportMetric(best, "mcf-best-relIPC")
}

func BenchmarkFig9EDPGrid(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		grids, err := experiments.Fig9(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		_, _, best = grids[0].Best()
	}
	b.ReportMetric(best, "mcf-best-relInvEDP")
}

func BenchmarkFig10Representative(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "spec-high" && r.NW == 2 && r.NB == 8 {
				rel = r.RelIPC
			}
		}
	}
	b.ReportMetric(rel, "spec-high(2,8)-relIPC")
}

func BenchmarkFig11Interleaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig11().NumRows() != 2 {
			b.Fatal("bad fig11")
		}
	}
}

func BenchmarkFig12PagePolicyXInterleave(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(benchOpts, "spec-high")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.NW == 2 && r.NB == 8 && r.Policy == config.OpenPage && r.IB == 12 {
				rel = r.RelIPC
			}
		}
	}
	b.ReportMetric(rel, "open-iB12-relIPC")
}

func BenchmarkFig13Predictors(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		var open, perf float64
		for _, r := range rows {
			if r.Workload == "429.mcf" && r.NW == 2 && r.NB == 8 {
				switch r.Policy {
				case config.OpenPage:
					open = r.RelIPC
				case config.PredPerfect:
					perf = r.RelIPC
				}
			}
		}
		gap = perf / open
	}
	b.ReportMetric(gap, "perfect/open-mcf(2,8)")
}

func BenchmarkFig14Interfaces(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "RADIX" && r.Interface == config.LPDDRTSI {
				gain = r.RelInvEDP
			}
		}
	}
	b.ReportMetric(gain, "RADIX-LPDDR-relInvEDP")
}

func BenchmarkHeadline(b *testing.B) {
	var h experiments.HeadlineResult
	for i := 0; i < b.N; i++ {
		var err error
		h, err = experiments.Headline(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.IPCGain, "IPCgain")
	b.ReportMetric(h.InvEDPGain, "invEDPgain")
}

// benchHeadline times one multicore headline-class run per iteration
// (the paper's LPDDR-TSI 2×8 configuration under a mixed SPEC profile)
// with the given limits attached, and reports simulated-time-per-wall-
// time so the benchmark reports simulator throughput, not just ns/op.
func benchHeadline(b *testing.B, lim *system.Limits) {
	var simPS sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := config.DefaultSystem(config.MemPreset(config.LPDDRTSI, 2, 8))
		sys.Cores = 16
		profs := make([]workload.Profile, sys.Cores)
		for c := range profs {
			profs[c] = workload.MustGet([]string{"429.mcf", "470.lbm", "433.milc", "462.libquantum"}[c%4])
		}
		spec := system.Spec{Sys: sys, Profiles: profs, InstrPerCore: 8000,
			WarmupInstr: 4000, Seed: 42, Limits: lim}
		res, err := system.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		simPS += res.RuntimePS
	}
	b.StopTimer()
	wall := b.Elapsed().Seconds()
	if wall > 0 {
		b.ReportMetric(float64(simPS)*1e-12/wall, "sim_s/wall_s")
	}
}

// BenchmarkHeadlineRun is the perf-trajectory anchor that
// `make bench-smoke` runs once: one unbounded headline-class run.
func BenchmarkHeadlineRun(b *testing.B) { benchHeadline(b, nil) }

// BenchmarkHeadlineRunLimits is BenchmarkHeadlineRun with the full
// watchdog armed (context, generous deadline, event budget, livelock
// detector): comparing the two proves the armed watchdog costs no
// allocations and under 2% runtime (EXPERIMENTS.md records the
// measured overhead).
func BenchmarkHeadlineRunLimits(b *testing.B) {
	benchHeadline(b, &system.Limits{
		Ctx:          context.Background(),
		WallClock:    time.Hour,
		EventBudget:  1 << 40,
		StallWindows: 4,
	})
}

// --- Sweep benchmarks ---
//
// The BenchmarkSweep family measures sweep throughput in sweep cells
// completed per second; perfbench's fig8_sweep workload is the gated
// measure of Fig. 8 sweep throughput. benchOpts leaves Parallelism at
// zero, so each sweep runs on every CPU.

// benchSweepCells times fn (one whole sweep of `cells` runs) and
// reports cells/sec.
func benchSweepCells(b *testing.B, cells int, fn func() error) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if wall := b.Elapsed().Seconds(); wall > 0 {
		b.ReportMetric(float64(cells*b.N)/wall, "cells/sec")
	}
}

// BenchmarkSweepFig8 runs the quick Fig. 8 population: 5 workloads
// (429.mcf, the 3-member spec-high quick set, TPC-H) × the 25-cell
// (nW,nB) grid.
func BenchmarkSweepFig8(b *testing.B) {
	benchSweepCells(b, 125, func() error {
		_, err := experiments.Fig8(benchOpts)
		return err
	})
}

// BenchmarkSweepQoS runs the QoS matrix population: 3 organizations ×
// 3 policies, each a multicore run.
func BenchmarkSweepQoS(b *testing.B) {
	benchSweepCells(b, 9, func() error {
		_, err := experiments.QoSSweep(benchOpts)
		return err
	})
}

// --- Substrate microbenchmarks ---

func BenchmarkSimEngine(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(eng.Now()+1, func(*sim.Engine) {})
		eng.Step()
	}
}

func BenchmarkAddrMap(b *testing.B) {
	m := addr.MustMapper(config.MemPreset(config.LPDDRTSI, 2, 8).Org, 10)
	var l addr.Loc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l = m.Map(uint64(i) * 64)
	}
	_ = l
}

func BenchmarkDRAMChannelRandom(b *testing.B) {
	mem := config.MemPreset(config.LPDDRTSI, 2, 8)
	mem.Timing.TREFI = 0
	ch := dram.NewChannel(mem)
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := i % ch.NumBanks()
		if open, row := ch.Open(bank); open {
			if row == uint32(i%16) {
				now = ch.EarliestCol(bank, false, now)
				ch.IssueRD(bank, now)
				continue
			}
			now = ch.EarliestPRE(bank, now)
			ch.IssuePRE(bank, now)
		}
		now = ch.EarliestACT(bank, now)
		ch.IssueACT(bank, uint32(i%16), now)
	}
}

func BenchmarkMemControllerStream(b *testing.B) {
	mem := config.MemPreset(config.LPDDRTSI, 2, 8)
	mem.Org.Channels = 1
	eng := sim.NewEngine()
	ctl := memctrl.New(eng, mem, config.DefaultCtrl(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Enqueue(&memctrl.Request{Addr: uint64(i) * 64})
		eng.Run()
	}
}

func BenchmarkFullSystemMcf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := config.SingleCore(config.MemPreset(config.LPDDRTSI, 2, 8))
		spec := system.UniformSpec(sys, workload.MustGet("429.mcf"), 20000, 42)
		spec.WarmupInstr = 5000
		if _, err := system.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublicAPIQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mem := microbank.MemPreset(microbank.LPDDRTSI, 2, 8)
		spec := microbank.UniformSpec(microbank.SingleCore(mem), microbank.Workload("470.lbm"), 15000, 1)
		spec.WarmupInstr = 5000
		res, err := microbank.Run(spec)
		if err != nil || res.IPC <= 0 {
			b.Fatalf("run failed: %v", err)
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelatedWork(b *testing.B) {
	var hmc float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RelatedWork(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		hmc = rows[len(rows)-1].RelInvEDP
	}
	b.ReportMetric(hmc, "HMC-relInvEDP")
}
