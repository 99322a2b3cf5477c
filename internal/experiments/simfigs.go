package experiments

// Simulation-backed experiments: Figs. 8, 9, 10, 12, 13, 14 and the
// paper's headline result.

import (
	"fmt"

	"microbank/internal/config"
	"microbank/internal/stats"
	"microbank/internal/system"
	"microbank/internal/workload"
)

// Fig8Workloads are the three panels of Fig. 8/9.
var Fig8Workloads = []string{"429.mcf", "spec-high", "TPC-H"}

// Fig8 computes the relative-IPC grids of Fig. 8 (one GridData per
// panel: 429.mcf, spec-high average, TPC-H).
func Fig8(o Options) ([]*GridData, error) {
	ipc, _, err := Fig8And9(o)
	return ipc, err
}

// Fig9 computes the relative-1/EDP grids of Fig. 9.
func Fig9(o Options) ([]*GridData, error) {
	_, edp, err := Fig8And9(o)
	return edp, err
}

// Fig8And9 runs the shared partition-grid sweep once and returns both
// metric sets.
func Fig8And9(o Options) (ipc, invEDP []*GridData, err error) {
	o = o.withDefaults()
	for _, w := range Fig8Workloads {
		gi, ge, gerr := gridsFor(w, o)
		if gerr != nil {
			return nil, nil, gerr
		}
		ipc = append(ipc, gi)
		invEDP = append(invEDP, ge)
	}
	return ipc, invEDP, nil
}

// Fig10Row is one bar-group of Fig. 10.
type Fig10Row struct {
	Workload   string
	NW, NB     int
	RelIPC     float64
	RelInvEDP  float64
	ProcW      float64
	ActPreW    float64
	StaticW    float64
	RdWrW      float64
	IOW        float64
	RowHitRate float64
}

// Fig10Workloads lists the single-threaded panel then the
// multiprogrammed/multithreaded panel of Fig. 10.
var fig10Single = []string{"429.mcf", "450.soplex", "spec-high", "spec-all"}
var fig10Multi = []string{"mix-high", "mix-blend", "RADIX", "FFT"}

// fig10Job is one simulation of the Fig. 10 sweep: a single-core
// benchmark run when name is set, otherwise a multicore set run.
type fig10Job struct {
	set  string
	name string
	cfg  [2]int
}

// Fig10 evaluates the representative μbank configurations on the
// paper's Fig. 10 workloads, reporting relative IPC/EDP and the power
// breakdown; each workload is normalized to its own (1,1) run. All
// runs fan out over the worker pool; the reduction consumes them in
// enumeration order so the arithmetic matches the serial loops.
func Fig10(o Options) ([]Fig10Row, error) {
	o = o.withDefaults()
	var jobs []fig10Job
	for _, set := range fig10Single {
		for _, name := range specGroup(set, o.Quick) {
			jobs = append(jobs, fig10Job{set: set, name: name, cfg: [2]int{1, 1}})
			for _, cfg := range RepresentativeConfigs {
				if cfg != [2]int{1, 1} {
					jobs = append(jobs, fig10Job{set: set, name: name, cfg: cfg})
				}
			}
		}
	}
	for _, set := range fig10Multi {
		for _, cfg := range RepresentativeConfigs {
			jobs = append(jobs, fig10Job{set: set, cfg: cfg})
		}
	}
	results, failed, err := mapRuns(o, jobs, func(j fig10Job) system.Spec {
		if j.name == "" {
			return multiSpec(multiProfile(j.set), config.LPDDRTSI, j.cfg[0], j.cfg[1], nil, o)
		}
		return singleSpec(j.name, config.LPDDRTSI, j.cfg[0], j.cfg[1], nil, o)
	})
	if err != nil {
		return nil, err
	}
	if err := partialUnsupported("fig10", failed); err != nil {
		return nil, err
	}

	next := 0
	take := func() system.Result { r := results[next]; next++; return r }
	var rows []Fig10Row
	for _, set := range fig10Single {
		names := specGroup(set, o.Quick)
		// Per-config accumulators (normalized per app, then averaged).
		type acc struct {
			ipc, invEDP                         float64
			proc, actpre, static, rdwr, io, hit float64
		}
		sums := map[[2]int]*acc{}
		for _, cfg := range RepresentativeConfigs {
			sums[cfg] = &acc{}
		}
		for range names {
			base := take()
			for _, cfg := range RepresentativeConfigs {
				res := base
				if cfg != [2]int{1, 1} {
					res = take()
				}
				a := sums[cfg]
				n := float64(len(names))
				a.ipc += res.IPC / base.IPC / n
				a.invEDP += base.Breakdown.EDPJs() / res.Breakdown.EDPJs() / n
				a.proc += res.Breakdown.ProcessorW() / n
				a.actpre += res.Breakdown.ActPreW() / n
				a.static += res.Breakdown.DRAMStaticW() / n
				a.rdwr += res.Breakdown.RdWrW() / n
				a.io += res.Breakdown.IOW() / n
				a.hit += res.RowHitRate / n
			}
		}
		for _, cfg := range RepresentativeConfigs {
			a := sums[cfg]
			rows = append(rows, Fig10Row{
				Workload: set, NW: cfg[0], NB: cfg[1],
				RelIPC: a.ipc, RelInvEDP: a.invEDP,
				ProcW: a.proc, ActPreW: a.actpre, StaticW: a.static,
				RdWrW: a.rdwr, IOW: a.io, RowHitRate: a.hit,
			})
		}
	}

	for _, set := range fig10Multi {
		var base system.Result
		for _, cfg := range RepresentativeConfigs {
			res := take()
			if cfg == [2]int{1, 1} {
				base = res
			}
			rows = append(rows, Fig10Row{
				Workload: set, NW: cfg[0], NB: cfg[1],
				RelIPC:     res.IPC / base.IPC,
				RelInvEDP:  base.Breakdown.EDPJs() / res.Breakdown.EDPJs(),
				ProcW:      res.Breakdown.ProcessorW(),
				ActPreW:    res.Breakdown.ActPreW(),
				StaticW:    res.Breakdown.DRAMStaticW(),
				RdWrW:      res.Breakdown.RdWrW(),
				IOW:        res.Breakdown.IOW(),
				RowHitRate: res.RowHitRate,
			})
		}
	}
	return rows, nil
}

// multiProfile maps a multicore workload set to a per-core profile
// assignment.
func multiProfile(set string) func(core int) workload.Profile {
	switch set {
	case "mix-high":
		m := workload.MixHigh()
		return m.ForCore
	case "mix-blend":
		m := workload.MixBlend()
		return m.ForCore
	default: // multithreaded: same profile on every core
		p := workload.MustGet(set)
		return func(int) workload.Profile { return p }
	}
}

// Fig10Table renders Fig10 rows.
func Fig10Table(rows []Fig10Row) *stats.Table {
	t := stats.NewTable("Fig. 10: representative μbank configurations",
		"Workload", "(nW,nB)", "RelIPC", "Rel1/EDP", "Proc(W)", "ACT/PRE(W)", "Static(W)", "RD/WR(W)", "I/O(W)", "RowHit")
	last := ""
	for _, r := range rows {
		if last != "" && r.Workload != last {
			t.AddSeparator()
		}
		last = r.Workload
		t.AddRow(r.Workload, fmt.Sprintf("(%d,%d)", r.NW, r.NB), r.RelIPC, r.RelInvEDP,
			r.ProcW, r.ActPreW, r.StaticW, r.RdWrW, r.IOW, r.RowHitRate)
	}
	return t
}

// Fig12Row is one (config, iB, policy) point of Fig. 12.
type Fig12Row struct {
	Set       string
	NW, NB    int
	IB        int
	Policy    config.PagePolicy
	RelIPC    float64
	RelInvEDP float64
}

// fig12IBs returns the iB sweep for a configuration, matching the
// paper's per-config axes (the top value is the μbank-row boundary).
func fig12IBs(nW, nB int, quick bool) []int {
	maxIB := 13
	for v := nW; v > 1; v >>= 1 {
		maxIB--
	}
	all := []int{}
	for _, iB := range []int{6, 8, 10, 11, 12, 13} {
		if iB < maxIB && (iB == 6 || iB == 8 || iB == 10) {
			all = append(all, iB)
		}
	}
	all = append(all, maxIB)
	if quick {
		return []int{6, maxIB}
	}
	return all
}

// Fig12 sweeps page policy {open, close} × interleaving base bit over
// the representative configurations. Values are normalized to the
// paper's baseline: (1,1), open page, row interleaving (iB=13).
func Fig12(o Options, sets ...string) ([]Fig12Row, error) {
	o = o.withDefaults()
	if len(sets) == 0 {
		sets = []string{"spec-all", "spec-high"}
	}
	// One job per (benchmark, config, iB, policy) point plus one
	// baseline job per benchmark, enumerated in serial-loop order.
	type fig12Job struct {
		name string
		cfg  [2]int
		iB   int
		pol  config.PagePolicy
		base bool
	}
	var jobs []fig12Job
	for _, set := range sets {
		for _, name := range specGroup(set, o.Quick) {
			jobs = append(jobs, fig12Job{name: name, base: true})
			for _, cfg := range RepresentativeConfigs {
				for _, iB := range fig12IBs(cfg[0], cfg[1], o.Quick) {
					for _, pol := range []config.PagePolicy{config.OpenPage, config.ClosePage} {
						jobs = append(jobs, fig12Job{name: name, cfg: cfg, iB: iB, pol: pol})
					}
				}
			}
		}
	}
	results, failed, err := mapRuns(o, jobs, func(j fig12Job) system.Spec {
		if j.base {
			return singleSpec(j.name, config.LPDDRTSI, 1, 1, func(s *config.System) {
				s.Ctrl.PagePolicy = config.OpenPage
				s.Ctrl.InterleaveBit = 13
			}, o)
		}
		return singleSpec(j.name, config.LPDDRTSI, j.cfg[0], j.cfg[1],
			func(s *config.System) {
				s.Ctrl.PagePolicy = j.pol
				s.Ctrl.InterleaveBit = j.iB
			}, o)
	})
	if err != nil {
		return nil, err
	}
	if err := partialUnsupported("fig12", failed); err != nil {
		return nil, err
	}

	next := 0
	take := func() system.Result { r := results[next]; next++; return r }
	var rows []Fig12Row
	for _, set := range sets {
		names := specGroup(set, o.Quick)
		type key struct {
			cfg [2]int
			iB  int
			pol config.PagePolicy
		}
		sums := map[key]*[2]float64{} // {relIPC, relInvEDP}
		for range names {
			base := take()
			for _, cfg := range RepresentativeConfigs {
				for _, iB := range fig12IBs(cfg[0], cfg[1], o.Quick) {
					for _, pol := range []config.PagePolicy{config.OpenPage, config.ClosePage} {
						res := take()
						k := key{cfg, iB, pol}
						if sums[k] == nil {
							sums[k] = &[2]float64{}
						}
						sums[k][0] += res.IPC / base.IPC / float64(len(names))
						sums[k][1] += base.Breakdown.EDPJs() / res.Breakdown.EDPJs() / float64(len(names))
					}
				}
			}
		}
		for _, cfg := range RepresentativeConfigs {
			for _, iB := range fig12IBs(cfg[0], cfg[1], o.Quick) {
				for _, pol := range []config.PagePolicy{config.OpenPage, config.ClosePage} {
					v := sums[key{cfg, iB, pol}]
					rows = append(rows, Fig12Row{
						Set: set, NW: cfg[0], NB: cfg[1], IB: iB, Policy: pol,
						RelIPC: v[0], RelInvEDP: v[1],
					})
				}
			}
		}
	}
	return rows, nil
}

// Fig12Table renders Fig12 rows.
func Fig12Table(rows []Fig12Row) *stats.Table {
	t := stats.NewTable("Fig. 12: page policy × interleaving base bit",
		"Set", "(nW,nB)", "iB", "Policy", "RelIPC", "Rel1/EDP")
	last := ""
	for _, r := range rows {
		k := fmt.Sprintf("%s(%d,%d)", r.Set, r.NW, r.NB)
		if last != "" && k != last {
			t.AddSeparator()
		}
		last = k
		t.AddRow(r.Set, fmt.Sprintf("(%d,%d)", r.NW, r.NB), r.IB, r.Policy.String(), r.RelIPC, r.RelInvEDP)
	}
	return t
}

// Fig13Policies are the page-management schemes compared in Fig. 13:
// close, open, local predictor, tournament predictor, perfect.
var Fig13Policies = []config.PagePolicy{
	config.ClosePage, config.OpenPage, config.PredLocal, config.PredTournament, config.PredPerfect,
}

// Fig13Row is one (workload, config, policy) bar of Fig. 13.
type Fig13Row struct {
	Workload string
	NW, NB   int
	Policy   config.PagePolicy
	RelIPC   float64 // normalized to the close policy at the same config
	HitRate  float64 // predictor hit rate (decision accuracy)
}

// fig13Configs are the partitions shown in Fig. 13.
var fig13Configs = [][2]int{{1, 1}, {2, 8}, {4, 4}}

// Fig13Workloads match the paper's panels (471 = 471.omnetpp,
// 429 = 429.mcf).
func fig13Workloads(quick bool) []string {
	if quick {
		return []string{"429.mcf", "canneal"}
	}
	return []string{"471.omnetpp", "429.mcf", "spec-high", "canneal", "RADIX", "mix-high", "mix-blend"}
}

// Fig13 compares the page-management schemes. Multithreaded and mixed
// workloads run on the multicore system; SPEC sets on a single core.
func Fig13(o Options) ([]Fig13Row, error) {
	o = o.withDefaults()
	// One job per (workload, config, policy) multicore run, or per
	// member benchmark for the single-core SPEC sets.
	type fig13Job struct {
		w    string
		name string // single benchmark; "" selects a multicore run
		cfg  [2]int
		pol  config.PagePolicy
	}
	fig13Multi := func(w string) bool {
		return w == "canneal" || w == "RADIX" || w == "mix-high" || w == "mix-blend"
	}
	var jobs []fig13Job
	for _, w := range fig13Workloads(o.Quick) {
		for _, cfg := range fig13Configs {
			for _, pol := range Fig13Policies {
				if fig13Multi(w) {
					jobs = append(jobs, fig13Job{w: w, cfg: cfg, pol: pol})
					continue
				}
				for _, name := range specGroup(w, o.Quick) {
					jobs = append(jobs, fig13Job{w: w, name: name, cfg: cfg, pol: pol})
				}
			}
		}
	}
	results, failed, err := mapRuns(o, jobs, func(j fig13Job) system.Spec {
		mut := func(s *config.System) { s.Ctrl.PagePolicy = j.pol }
		if j.name == "" {
			return multiSpec(multiProfile(j.w), config.LPDDRTSI, j.cfg[0], j.cfg[1], mut, o)
		}
		return singleSpec(j.name, config.LPDDRTSI, j.cfg[0], j.cfg[1], mut, o)
	})
	if err != nil {
		return nil, err
	}
	if err := partialUnsupported("fig13", failed); err != nil {
		return nil, err
	}

	next := 0
	take := func() system.Result { r := results[next]; next++; return r }
	var rows []Fig13Row
	for _, w := range fig13Workloads(o.Quick) {
		for _, cfg := range fig13Configs {
			var baseIPC float64
			for _, pol := range Fig13Policies {
				var ipc, hit float64
				if fig13Multi(w) {
					res := take()
					ipc, hit = res.IPC, res.PredHitRate
				} else {
					names := specGroup(w, o.Quick)
					for range names {
						res := take()
						ipc += res.IPC / float64(len(names))
						hit += res.PredHitRate / float64(len(names))
					}
				}
				if pol == config.ClosePage {
					baseIPC = ipc
				}
				rows = append(rows, Fig13Row{
					Workload: w, NW: cfg[0], NB: cfg[1], Policy: pol,
					RelIPC: ipc / baseIPC, HitRate: hit,
				})
			}
		}
	}
	return rows, nil
}

// Fig13Table renders Fig13 rows.
func Fig13Table(rows []Fig13Row) *stats.Table {
	t := stats.NewTable("Fig. 13: page-management schemes (IPC relative to close-page)",
		"Workload", "(nW,nB)", "Policy", "RelIPC", "PredHitRate")
	last := ""
	for _, r := range rows {
		k := fmt.Sprintf("%s(%d,%d)", r.Workload, r.NW, r.NB)
		if last != "" && k != last {
			t.AddSeparator()
		}
		last = k
		t.AddRow(r.Workload, fmt.Sprintf("(%d,%d)", r.NW, r.NB), r.Policy.String(), r.RelIPC, r.HitRate)
	}
	return t
}

// Fig14Row is one (workload, interface) group of Fig. 14.
type Fig14Row struct {
	Workload  string
	Interface config.Interface
	IPC       float64
	RelIPC    float64 // vs DDR3-PCB
	RelInvEDP float64 // vs DDR3-PCB
	ProcW     float64
	ActPreW   float64
	StaticW   float64
	RdWrW     float64
	IOW       float64
	// ActPreShare is ACT/PRE power over total memory power (§VI-D).
	ActPreShare float64
}

func fig14Workloads(quick bool) []string {
	if quick {
		return []string{"spec-high", "RADIX"}
	}
	return []string{"spec-high", "mix-high", "mix-blend", "canneal", "FFT", "RADIX"}
}

// Fig14 compares the three processor-memory interfaces without μbanks.
func Fig14(o Options) ([]Fig14Row, error) {
	o = o.withDefaults()
	// One job per (workload, interface) multicore run, or per member
	// benchmark for the single-core spec-high panel.
	type fig14Job struct {
		w     string
		name  string // single benchmark; "" selects a multicore run
		iface config.Interface
	}
	var jobs []fig14Job
	for _, w := range fig14Workloads(o.Quick) {
		for _, iface := range config.Interfaces() {
			if w != "spec-high" {
				jobs = append(jobs, fig14Job{w: w, iface: iface})
				continue
			}
			for _, name := range specGroup(w, o.Quick) {
				jobs = append(jobs, fig14Job{w: w, name: name, iface: iface})
			}
		}
	}
	results, failed, err := mapRuns(o, jobs, func(j fig14Job) system.Spec {
		if j.name == "" {
			return multiSpec(multiProfile(j.w), j.iface, 1, 1, nil, o)
		}
		return singleSpec(j.name, j.iface, 1, 1, nil, o)
	})
	if err != nil {
		return nil, err
	}
	if err := partialUnsupported("fig14", failed); err != nil {
		return nil, err
	}

	next := 0
	take := func() system.Result { r := results[next]; next++; return r }
	var rows []Fig14Row
	for _, w := range fig14Workloads(o.Quick) {
		multi := w != "spec-high"
		var base Fig14Row
		for _, iface := range config.Interfaces() {
			var row Fig14Row
			row.Workload, row.Interface = w, iface
			if multi {
				res := take()
				row.IPC = res.IPC
				row.ProcW, row.ActPreW, row.StaticW, row.RdWrW, row.IOW =
					res.Breakdown.ProcessorW(), res.Breakdown.ActPreW(),
					res.Breakdown.DRAMStaticW(), res.Breakdown.RdWrW(), res.Breakdown.IOW()
				row.ActPreShare = res.Breakdown.ActPreShareOfMemory()
				if iface == config.DDR3PCB {
					base = row
					base.RelInvEDP = res.Breakdown.EDPJs()
				}
				row.RelIPC = row.IPC / base.IPC
				row.RelInvEDP = base.RelInvEDP / res.Breakdown.EDPJs()
			} else {
				names := specGroup(w, o.Quick)
				var edp float64
				for range names {
					res := take()
					n := float64(len(names))
					row.IPC += res.IPC / n
					row.ProcW += res.Breakdown.ProcessorW() / n
					row.ActPreW += res.Breakdown.ActPreW() / n
					row.StaticW += res.Breakdown.DRAMStaticW() / n
					row.RdWrW += res.Breakdown.RdWrW() / n
					row.IOW += res.Breakdown.IOW() / n
					row.ActPreShare += res.Breakdown.ActPreShareOfMemory() / n
					edp += res.Breakdown.EDPJs() / n
				}
				if iface == config.DDR3PCB {
					base = row
					base.RelInvEDP = edp
				}
				row.RelIPC = row.IPC / base.IPC
				row.RelInvEDP = base.RelInvEDP / edp
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig14Table renders Fig14 rows.
func Fig14Table(rows []Fig14Row) *stats.Table {
	t := stats.NewTable("Fig. 14: processor-memory interfaces (no μbanks)",
		"Workload", "Interface", "IPC", "RelIPC", "Rel1/EDP",
		"Proc(W)", "ACT/PRE(W)", "Static(W)", "RD/WR(W)", "I/O(W)", "ACT/PRE mem share")
	last := ""
	for _, r := range rows {
		if last != "" && r.Workload != last {
			t.AddSeparator()
		}
		last = r.Workload
		t.AddRow(r.Workload, r.Interface.String(), r.IPC, r.RelIPC, r.RelInvEDP,
			r.ProcW, r.ActPreW, r.StaticW, r.RdWrW, r.IOW, r.ActPreShare)
	}
	return t
}

// HeadlineResult is the paper's abstract claim: TSI+μbank over
// DDR3-PCB on memory-intensive SPEC.
type HeadlineResult struct {
	IPCGain    float64 // paper: 1.62×
	InvEDPGain float64 // paper: 4.80×
}

// Headline compares DDR3-PCB (1,1) against LPDDR-TSI with the (2,8)
// μbank configuration over the spec-high group.
func Headline(o Options) (HeadlineResult, error) {
	o = o.withDefaults()
	names := specGroup("spec-high", o.Quick)
	// Two jobs per benchmark: the DDR3-PCB baseline and the μbank run.
	type headlineJob struct {
		name  string
		ubank bool
	}
	var jobs []headlineJob
	for _, name := range names {
		jobs = append(jobs, headlineJob{name: name}, headlineJob{name: name, ubank: true})
	}
	results, failed, err := mapRuns(o, jobs, func(j headlineJob) system.Spec {
		if j.ubank {
			return singleSpec(j.name, config.LPDDRTSI, 2, 8, nil, o)
		}
		return singleSpec(j.name, config.DDR3PCB, 1, 1, nil, o)
	})
	var out HeadlineResult
	if err != nil {
		return out, err
	}
	// A pair with either run failed contributes nothing; the gains
	// average over the healthy pairs, which on a healthy sweep are all
	// of them.
	pairOK := func(i int) bool { return failed == nil || !failed[2*i] && !failed[2*i+1] }
	healthy := 0
	for i := range names {
		if pairOK(i) {
			healthy++
		}
	}
	if healthy == 0 {
		return out, fmt.Errorf("headline: every benchmark pair failed (failure records in the report)")
	}
	for i := range names {
		if !pairOK(i) {
			continue
		}
		base, ub := results[2*i], results[2*i+1]
		n := float64(healthy)
		out.IPCGain += ub.IPC / base.IPC / n
		out.InvEDPGain += base.Breakdown.EDPJs() / ub.Breakdown.EDPJs() / n
	}
	return out, nil
}

// HeadlineTable renders the headline comparison.
func HeadlineTable(h HeadlineResult) *stats.Table {
	t := stats.NewTable("Headline: TSI+μbank (2,8) vs DDR3-PCB, spec-high",
		"Metric", "Measured", "Paper")
	t.AddRow("IPC gain", h.IPCGain, 1.62)
	t.AddRow("1/EDP gain", h.InvEDPGain, 4.80)
	return t
}
