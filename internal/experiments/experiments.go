// Package experiments regenerates every table and figure of the
// paper's evaluation (§III-B, §IV-B, §VI): each Fig*/Table* function
// runs the required simulations (or analytic models) and returns both
// structured data and a formatted table matching the paper's layout.
//
// Absolute numbers differ from the paper — the substrate is this
// repository's simulator and synthetic workloads, not McSimA+ with
// SimPoint traces — but the comparisons each figure makes (who wins,
// by roughly what factor, where the crossovers fall) are preserved;
// EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"context"
	"fmt"
	"math"

	"microbank/internal/config"
	"microbank/internal/stats"
	"microbank/internal/system"
	"microbank/internal/workload"
)

// Options sets the fidelity/cost tradeoff for simulation-backed
// experiments.
type Options struct {
	// Ctx, when non-nil, cancels the campaign: sweep workers stop
	// picking up cells, and in-flight cells abort at their next
	// watchdog check (system.Limits.Ctx). The CLI's SIGINT/SIGTERM
	// handler cancels it. Nil means uncancellable.
	Ctx context.Context
	// Instr is the per-core instruction budget (half of it is cache
	// warm-up). Zero selects the default (30k quick, 240k full).
	Instr uint64
	// Cores is the populated core count for multiprogrammed and
	// multithreaded workloads. Zero selects 16 (quick) or 64 (full).
	Cores int
	// Quick selects reduced workload sets (one representative per
	// group) for fast runs such as benchmarks.
	Quick bool
	Seed  int64
	// Parallelism bounds how many simulations run concurrently (-j);
	// zero or negative selects runtime.GOMAXPROCS(0). Output is
	// byte-identical at every width.
	Parallelism int
	// Progress, when non-nil, is called from worker goroutines after
	// each completed cell of a sweep with the count done and the sweep
	// total (the -progress heartbeat). It must not write to stdout.
	Progress func(done, total int)
	// Res is the campaign: its fail mode, limits, fault injection,
	// failure log and result store, and its results — a run spec
	// simulated once replays for every later cell. Nil means one fresh
	// &Resilience{} per top-level call, sharing nothing.
	Res *Resilience
	// Exp names the experiment in the pprof labels (exp, cell,
	// variant) every sweep cell runs under.
	Exp string
}

func (o Options) withDefaults() Options {
	if o.Instr == 0 {
		if o.Quick {
			o.Instr = 30000
		} else {
			o.Instr = 240000
		}
	}
	if o.Cores == 0 {
		if o.Quick {
			o.Cores = 16
		} else {
			o.Cores = 64
		}
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Res == nil {
		o.Res = &Resilience{}
	}
	return o
}

// Axis is the partition-count axis used by Figs. 6, 8, and 9.
var Axis = []int{1, 2, 4, 8, 16}

// RepresentativeConfigs are the <3%-area-overhead (nW,nB) points used
// by Figs. 10, 12, and 13.
var RepresentativeConfigs = [][2]int{{1, 1}, {2, 8}, {4, 4}, {8, 2}}

// specFor builds the run of workload w at pt. A multicore workload
// runs on o.Cores cores over the full channel population — a mix
// assigns its members to cores, a multithreaded benchmark runs on every
// core — with half the per-core budget (at least 4000): wall time
// still grows with the core count, but refresh and warm-up effects stay
// evenly amortized. Any other workload runs on one core and one channel,
// the paper's setup for single-threaded SPEC and DB workloads.
func specFor(w string, pt point, o Options) system.Spec {
	mem := config.MemPreset(pt.iface, pt.nW, pt.nB)
	sys := config.SingleCore(mem)
	if multicore[w] {
		sys = config.DefaultSystem(mem)
		sys.Cores = o.Cores
	}
	if pt.mut != nil {
		pt.mut(&sys)
	}
	if !multicore[w] {
		spec := system.UniformSpec(sys, workload.MustGet(w), o.Instr, o.Seed)
		spec.WarmupInstr = o.Instr / 2
		return spec
	}
	forCore := workload.Mix{Members: []string{w}}.ForCore // w on every core
	switch w {
	case "mix-high":
		forCore = workload.MixHigh().ForCore
	case "mix-blend":
		forCore = workload.MixBlend().ForCore
	}
	profs := make([]workload.Profile, sys.Cores)
	for i := range profs {
		profs[i] = forCore(i)
	}
	instr := max(o.Instr/2, 4000)
	return system.Spec{Sys: sys, Profiles: profs, InstrPerCore: instr,
		WarmupInstr: instr / 2, Seed: o.Seed}
}

// specGroup returns the benchmark names evaluated for a named workload
// set, honoring Quick mode.
func specGroup(set string, quick bool) []string {
	switch set {
	case "spec-high":
		if quick {
			return []string{"429.mcf", "470.lbm", "462.libquantum"}
		}
		return workload.Group(workload.SpecHigh)
	case "spec-all":
		if quick {
			return []string{"429.mcf", "470.lbm", "403.gcc", "453.povray"}
		}
		return workload.SpecAll()
	default:
		return []string{set}
	}
}

// GridData holds one workload's metric over the (nW,nB) grid,
// normalized to the (1,1) cell.
type GridData struct {
	Workload string
	Metric   string // "IPC" or "1/EDP"
	Rel      map[[2]int]float64
	// Missing marks points with no healthy contributor under
	// -fail-mode=collect: for every benchmark, the run at that point or
	// its (1,1) base failed. Nil on healthy sweeps.
	Missing map[[2]int]bool
}

// At returns the normalized value at (nW, nB).
func (g *GridData) At(nW, nB int) float64 { return g.Rel[[2]int{nW, nB}] }

// Best returns the grid point with the highest value. Cells are
// scanned in fixed Axis order, so ties resolve to the smallest
// (nB, nW) deterministically rather than by map iteration order.
func (g *GridData) Best() (nW, nB int, val float64) {
	for _, b := range Axis {
		for _, w := range Axis {
			if v := g.At(w, b); v > val {
				nW, nB, val = w, b, v
			}
		}
	}
	return
}

// Table renders the grid in the paper's layout (nW across, nB down).
func (g *GridData) Table(title string) *stats.Table {
	header := []string{"nB\\nW"}
	for _, w := range Axis {
		header = append(header, fmt.Sprint(w))
	}
	t := stats.NewTable(title, header...)
	for _, b := range Axis {
		row := []any{fmt.Sprint(b)}
		for _, w := range Axis {
			v := g.At(w, b)
			if g.Missing[[2]int{w, b}] {
				v = math.NaN()
			}
			row = append(row, v)
		}
		addRow(t, 0, row...)
	}
	return t
}

// gridPlan is one benchmark's sweep over the full partition grid: 25
// cells keyed by (nW,nB), each normalized to the (1,1) cell, which the
// nB-outer enumeration runs first.
func gridPlan(name string, o Options) plan {
	var p plan
	for _, nB := range Axis {
		for _, nW := range Axis {
			p.addRun([2]int{nW, nB}, name, [2]int{1, 1}, point{iface: config.LPDDRTSI, nW: nW, nB: nB}, o)
		}
	}
	return p
}

// gridsFor computes the relative-IPC and relative-1/EDP grids for a
// workload set, averaging per-benchmark normalized values (the paper's
// per-app-normalize-then-average convention). Each benchmark's grid is
// its own sweep; the panel reduces them together, so a point with no
// healthy contributor is marked Missing.
func gridsFor(set string, o Options) (ipc, invEDP *GridData, err error) {
	var p plan
	for _, name := range specGroup(set, o.Quick) {
		g := gridPlan(name, o)
		if err := mapRuns(o, g); err != nil {
			return nil, nil, err
		}
		p = append(p, g...)
	}
	ipc = &GridData{Workload: set, Metric: "IPC", Rel: map[[2]int]float64{}}
	invEDP = &GridData{Workload: set, Metric: "1/EDP", Rel: map[[2]int]float64{}}
	keys, m := p.mean(relIPC, relInvEDP)
	for _, k := range keys {
		k := k.([2]int)
		if v := m[k]; !math.IsNaN(v[0]) {
			ipc.Rel[k], invEDP.Rel[k] = v[0], v[1]
			continue
		}
		if ipc.Missing == nil {
			ipc.Missing, invEDP.Missing = map[[2]int]bool{}, map[[2]int]bool{}
		}
		ipc.Missing[k], invEDP.Missing[k] = true, true
	}
	return ipc, invEDP, nil
}
