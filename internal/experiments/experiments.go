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
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"

	"microbank/internal/config"
	"microbank/internal/parallel"
	"microbank/internal/stats"
	"microbank/internal/system"
	"microbank/internal/workload"
)

// Options sets the fidelity/cost tradeoff for simulation-backed
// experiments.
type Options struct {
	// Ctx, when non-nil, cancels the campaign: sweep workers stop
	// picking up cells when it is done, and in-flight cells abort at
	// their next watchdog check (system.Limits.Ctx). The CLI wires its
	// SIGINT/SIGTERM handler here so an interrupted campaign exits
	// through the normal error path — the store keeps every completed
	// cell, and artifacts flush marked aborted. Nil means
	// uncancellable, with no watchdog armed on otherwise-unbounded runs.
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
	// Parallelism bounds how many independent simulations run
	// concurrently (the -j flag). Zero or negative selects
	// runtime.GOMAXPROCS(0). Every run takes an explicit seed and
	// results are reduced in job order, so output is byte-identical
	// at every width.
	Parallelism int
	// Progress, when non-nil, is invoked after each completed
	// simulation of a sweep with the number done so far and the sweep
	// total (the -progress heartbeat). It is called from worker
	// goroutines and must be safe for concurrent use; it must not
	// write to stdout, which carries the deterministic tables.
	Progress func(done, total int)
	// Res configures how sweeps survive failures — the fail mode,
	// per-run limits, fault injection, the failure log, and the result
	// store — and holds the campaign's results: a run spec simulated
	// once replays from memory for every later cell of the campaign.
	// Nil means one fresh &Resilience{} per top-level call (one
	// experiment function): fail-fast, no store, no limits beyond Ctx,
	// no injection, and no results shared with any other call. Every
	// sweep isolates panics per cell either way.
	Res *Resilience
	// Exp names the running experiment for profiling: every sweep cell
	// executes under runtime/pprof labels (exp, cell, variant) so CPU
	// profiles of a sweep attribute samples to individual cells.
	Exp string
}

// ctx returns the campaign context, never nil.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
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

// singleSpec builds a single-core, single-channel run (the paper's
// setup for single-threaded SPEC and DB workloads).
func singleSpec(name string, iface config.Interface, nW, nB int,
	mut func(*config.System), o Options) system.Spec {
	sys := config.SingleCore(config.MemPreset(iface, nW, nB))
	if mut != nil {
		mut(&sys)
	}
	spec := system.UniformSpec(sys, workload.MustGet(name), o.Instr, o.Seed)
	spec.WarmupInstr = o.Instr / 2
	return spec
}

// multiSpec builds a multicore run with the full channel population.
func multiSpec(profileFor func(core int) workload.Profile, iface config.Interface,
	nW, nB int, mut func(*config.System), o Options) system.Spec {
	sys := config.DefaultSystem(config.MemPreset(iface, nW, nB))
	sys.Cores = o.Cores
	if mut != nil {
		mut(&sys)
	}
	profs := make([]workload.Profile, sys.Cores)
	for i := range profs {
		profs[i] = profileFor(i)
	}
	// Multicore runs halve the per-core budget (wall time still grows
	// with the core count, but refresh and warm-up effects stay evenly
	// amortized across configurations).
	instr := o.Instr / 2
	if instr < 4000 {
		instr = 4000
	}
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
			if g.Missing[[2]int{w, b}] {
				row = append(row, "FAIL")
			} else {
				row = append(row, g.At(w, b))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// CSV renders the grid as comma-separated values with an nB row header
// and nW column header, for plotting tools.
func (g *GridData) CSV() string {
	var out strings.Builder
	out.WriteString("nB\\nW")
	for _, w := range Axis {
		fmt.Fprintf(&out, ",%d", w)
	}
	out.WriteByte('\n')
	for _, b := range Axis {
		fmt.Fprintf(&out, "%d", b)
		for _, w := range Axis {
			fmt.Fprintf(&out, ",%.4f", g.At(w, b))
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// cellMetrics captures the per-run values grids are built from.
type cellMetrics struct {
	ipc   float64
	edpJs float64
}

// runSpec is how mapRuns simulates a cell: system.Run, which tests
// swap for a counting wrapper to see which cells simulated and which
// replayed.
var runSpec = system.Run

// mapRuns fans independent simulation runs out over o.Parallelism
// workers: build turns each job into its run spec, and mapRuns attaches
// the cell's limits and calls system.Run — the one place sweep cells
// execute. Results come back in job order, so callers reduce them with
// the exact arithmetic order of the serial loops this layer replaced —
// parallel output stays byte-identical to serial. The
// optional Progress callback observes completions (in completion order,
// which is schedule-dependent); it never influences results.
//
// Every cell runs under parallel.MapPolicy with o.Res's settings (a nil
// o.Res is the zero Resilience): panic isolation, per-run limits,
// result lookup/commit (the campaign's memory, then the store) and
// fault injection. Failures are logged as report records. Under
// fail-fast the first failure is returned as a *parallel.TaskError
// wrapping the cell's error; under collect the sweep completes
// with failed cells marked true in the mask (their Result is the zero
// value). The mask is nil when no cell failed.
func mapRuns[J any](o Options, jobs []J, build func(J) system.Spec) ([]system.Result, []bool, error) {
	total := len(jobs)
	var done atomic.Int64
	note := func() {
		if o.Progress != nil {
			o.Progress(int(done.Add(1)), total)
		}
	}
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	r := o.Res
	if r == nil {
		r = &Resilience{}
	}
	base, sweep := r.beginSweep(total)
	pol := parallel.Policy{
		FailFast: !r.Collect,
		Digest: func(i int) string {
			return fmt.Sprintf("sweep %d cell %d/%d: %+v", sweep, i, total, jobs[i])
		},
	}
	results, fails, err := parallel.MapPolicy(o.ctx(), o.Parallelism, idx, pol,
		func(_ context.Context, i int) (system.Result, error) {
			spec := build(jobs[i])
			// The lookup precedes injection: a cell already simulated by
			// this campaign or held by the store is not re-run, so it
			// cannot re-fire an injected fault.
			key, res, ok := r.storeLookup(spec)
			if ok {
				note()
				return res, nil
			}
			g := base + i
			switch r.inject[g] {
			case "panic":
				panic(fmt.Sprintf("injected panic at campaign cell %d", g))
			case "error":
				return system.Result{}, fmt.Errorf("injected error at campaign cell %d", g)
			}
			// Every cell executes under pprof labels so a CPU profile of a
			// sweep attributes samples to individual cells and variants.
			spec.Limits = r.limitsFor(o.Ctx, g)
			var rerr error
			pprof.Do(context.Background(), pprof.Labels(
				"exp", o.Exp, "cell", strconv.Itoa(g), "variant", fmt.Sprintf("%+v", jobs[i])),
				func(context.Context) { res, rerr = runSpec(spec) })
			if rerr != nil {
				return system.Result{}, rerr
			}
			// Only healthy cells are committed; a failed cell's spec
			// simulates again at its next occurrence, in this campaign or
			// on the next run against the store.
			r.storeCommit(key, res)
			note()
			return res, nil
		})
	for _, te := range fails {
		r.Log.add(failureRecord(sweep, te))
	}
	if err != nil {
		return nil, nil, err
	}
	if len(fails) == 0 {
		return results, nil, nil
	}
	failed := make([]bool, total)
	for _, te := range fails {
		failed[te.Index] = true
	}
	return results, failed, nil
}

// gridJob is one cell of a partition-grid sweep. It prints as
// "<bench> (nW,nB)", so a failure record's digest names both.
type gridJob struct {
	name string
	cfg  [2]int
}

func (j gridJob) String() string { return fmt.Sprintf("%s (%d,%d)", j.name, j.cfg[0], j.cfg[1]) }

// runGridCells runs one workload over the full partition grid, fanning
// the 25 independent cells out over the worker pool. Failed cells
// (resilient sweeps under collect) are absent from the map.
func runGridCells(name string, o Options) (map[[2]int]cellMetrics, error) {
	jobs := make([]gridJob, 0, len(Axis)*len(Axis))
	for _, nB := range Axis {
		for _, nW := range Axis {
			jobs = append(jobs, gridJob{name: name, cfg: [2]int{nW, nB}})
		}
	}
	results, failed, err := mapRuns(o, jobs, func(j gridJob) system.Spec {
		return singleSpec(j.name, config.LPDDRTSI, j.cfg[0], j.cfg[1], nil, o)
	})
	if err != nil {
		return nil, err
	}
	cells := make(map[[2]int]cellMetrics, len(jobs))
	for i, j := range jobs {
		if failed == nil || !failed[i] {
			cells[j.cfg] = cellMetrics{ipc: results[i].IPC, edpJs: results[i].Breakdown.EDPJs()}
		}
	}
	return cells, nil
}

// gridsFor computes the relative-IPC and relative-1/EDP grids for a
// workload set, averaging per-benchmark normalized values (the paper's
// per-app-normalize-then-average convention).
//
// Each grid point averages over the benchmarks that measured it: a
// benchmark contributes to a point when both its (1,1) base and that
// point ran healthy, and points with no healthy contributor are marked
// Missing. On a healthy sweep every benchmark contributes everywhere,
// so each point divides by len(names) and Missing stays nil.
func gridsFor(set string, o Options) (ipc, invEDP *GridData, err error) {
	names := specGroup(set, o.Quick)
	ipc = &GridData{Workload: set, Metric: "IPC", Rel: map[[2]int]float64{}}
	invEDP = &GridData{Workload: set, Metric: "1/EDP", Rel: map[[2]int]float64{}}
	all := make([]map[[2]int]cellMetrics, 0, len(names))
	cnt := map[[2]int]int{}
	for _, name := range names {
		cells, cerr := runGridCells(name, o)
		if cerr != nil {
			return nil, nil, cerr
		}
		all = append(all, cells)
		if _, ok := cells[[2]int{1, 1}]; ok {
			for k := range cells {
				cnt[k]++
			}
		}
	}
	for _, cells := range all {
		base, ok := cells[[2]int{1, 1}]
		if !ok {
			continue // base failed: nothing to normalize against
		}
		for k, c := range cells {
			ipc.Rel[k] += c.ipc / base.ipc / float64(cnt[k])
			invEDP.Rel[k] += base.edpJs / c.edpJs / float64(cnt[k])
		}
	}
	for _, b := range Axis {
		for _, w := range Axis {
			if k := [2]int{w, b}; cnt[k] == 0 {
				if ipc.Missing == nil {
					ipc.Missing = map[[2]int]bool{}
					invEDP.Missing = map[[2]int]bool{}
				}
				ipc.Missing[k] = true
				invEDP.Missing[k] = true
			}
		}
	}
	return ipc, invEDP, nil
}
