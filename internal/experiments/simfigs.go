package experiments

// Simulation-backed experiments: Figs. 8, 9, 10, 12, 13, 14 and the
// paper's headline result.

import (
	"fmt"

	"microbank/internal/config"
	"microbank/internal/stats"
	"microbank/internal/system"
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

// fig10Single and fig10Multi are the single-threaded panel then the
// multiprogrammed/multithreaded panel of Fig. 10.
var fig10Single = []string{"429.mcf", "450.soplex", "spec-high", "spec-all"}
var fig10Multi = []string{"mix-high", "mix-blend", "RADIX", "FFT"}

// Fig10 evaluates the representative μbank configurations on the
// paper's Fig. 10 workloads, reporting relative IPC/EDP (means of
// per-benchmark ratios to the benchmark's own (1,1) run) and the power
// breakdown (plain means).
func Fig10(o Options) ([]Fig10Row, error) {
	o = o.withDefaults()
	var p plan
	for _, set := range append(append([]string(nil), fig10Single...), fig10Multi...) {
		for _, name := range specGroup(set, o.Quick) {
			for _, cfg := range RepresentativeConfigs {
				p.addRun(Fig10Row{Workload: set, NW: cfg[0], NB: cfg[1]}, name, Fig10Row{Workload: set, NW: 1, NB: 1},
					point{iface: config.LPDDRTSI, nW: cfg[0], nB: cfg[1], variant: setOf(name, set)}, o)
			}
		}
	}
	rowHit := plain(func(x *system.Result) float64 { return x.RowHitRate })
	return run(o, p, append([]column{relIPC, relInvEDP, rowHit}, powerCols...),
		func(r *Fig10Row, v []float64, _ map[any][]float64) {
			r.RelIPC, r.RelInvEDP, r.RowHitRate = v[0], v[1], v[2]
			r.ProcW, r.ActPreW, r.StaticW, r.RdWrW, r.IOW = v[3], v[4], v[5], v[6], v[7]
		})
}

// Fig10Table renders Fig10 rows.
func Fig10Table(rows []Fig10Row) *stats.Table {
	t := stats.NewTable("Fig. 10: representative μbank configurations",
		"Workload", "(nW,nB)", "RelIPC", "Rel1/EDP", "Proc(W)", "ACT/PRE(W)", "Static(W)", "RD/WR(W)", "I/O(W)", "RowHit")
	for _, r := range rows {
		addRow(t, 1, r.Workload, formatCfg(r.NW, r.NB), r.RelIPC, r.RelInvEDP,
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
// paper's per-config axes: the top value is the μbank-row boundary,
// 13 - log2(nW).
func fig12IBs(nW int, quick bool) []int {
	maxIB := 13
	for v := nW; v > 1; v >>= 1 {
		maxIB--
	}
	var ibs []int
	for _, iB := range []int{6, 8, 10} {
		if iB < maxIB && (!quick || iB == 6) {
			ibs = append(ibs, iB)
		}
	}
	return append(ibs, maxIB)
}

// Fig12 sweeps page policy {open, close} × interleaving base bit over
// the representative configurations. Values are means of per-benchmark
// ratios to the paper's baseline: (1,1), open page, row interleaving
// (iB=13).
func Fig12(o Options, sets ...string) ([]Fig12Row, error) {
	o = o.withDefaults()
	if len(sets) == 0 {
		sets = []string{"spec-all", "spec-high"}
	}
	page := func(pol config.PagePolicy, iB int) func(*config.System) {
		return func(s *config.System) {
			s.Ctrl.PagePolicy = pol
			s.Ctrl.InterleaveBit = iB
		}
	}
	var p plan
	for _, set := range sets {
		base := "baseline " + set
		for _, name := range specGroup(set, o.Quick) {
			p.addRun(base, name, nil, point{iface: config.LPDDRTSI, nW: 1, nB: 1,
				mut: page(config.OpenPage, 13), variant: "iB=13 open " + setOf(name, set)}, o)
			for _, cfg := range RepresentativeConfigs {
				for _, iB := range fig12IBs(cfg[0], o.Quick) {
					for _, pol := range []config.PagePolicy{config.OpenPage, config.ClosePage} {
						p.addRun(Fig12Row{Set: set, NW: cfg[0], NB: cfg[1], IB: iB, Policy: pol}, name, base,
							point{iface: config.LPDDRTSI, nW: cfg[0], nB: cfg[1], mut: page(pol, iB),
								variant: fmt.Sprintf("iB=%d %s %s", iB, pol, setOf(name, set))}, o)
					}
				}
			}
		}
	}
	return run(o, p, []column{relIPC, relInvEDP}, func(r *Fig12Row, v []float64, _ map[any][]float64) {
		r.RelIPC, r.RelInvEDP = v[0], v[1]
	})
}

// Fig12Table renders Fig12 rows.
func Fig12Table(rows []Fig12Row) *stats.Table {
	t := stats.NewTable("Fig. 12: page policy × interleaving base bit",
		"Set", "(nW,nB)", "iB", "Policy", "RelIPC", "Rel1/EDP")
	for _, r := range rows {
		addRow(t, 2, r.Set, formatCfg(r.NW, r.NB), r.IB, r.Policy.String(), r.RelIPC, r.RelInvEDP)
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
// RelIPC is a ratio of means: a set's mean IPC under the policy over
// its mean IPC under close page.
func Fig13(o Options) ([]Fig13Row, error) {
	o = o.withDefaults()
	var p plan
	for _, w := range fig13Workloads(o.Quick) {
		for _, cfg := range fig13Configs {
			for _, pol := range Fig13Policies {
				for _, name := range specGroup(w, o.Quick) {
					p.addRun(Fig13Row{Workload: w, NW: cfg[0], NB: cfg[1], Policy: pol}, name, nil,
						point{iface: config.LPDDRTSI, nW: cfg[0], nB: cfg[1],
							mut:     func(s *config.System) { s.Ctrl.PagePolicy = pol },
							variant: pol.String() + " " + setOf(name, w)}, o)
				}
			}
		}
	}
	hit := plain(func(x *system.Result) float64 { return x.PredHitRate })
	return run(o, p, []column{ipcCol, hit}, func(r *Fig13Row, v []float64, m map[any][]float64) {
		base := *r
		base.Policy = config.ClosePage
		r.RelIPC, r.HitRate = v[0]/m[base][0], v[1]
	})
}

// Fig13Table renders Fig13 rows.
func Fig13Table(rows []Fig13Row) *stats.Table {
	t := stats.NewTable("Fig. 13: page-management schemes (IPC relative to close-page)",
		"Workload", "(nW,nB)", "Policy", "RelIPC", "PredHitRate")
	for _, r := range rows {
		addRow(t, 2, r.Workload, formatCfg(r.NW, r.NB), r.Policy.String(), r.RelIPC, r.HitRate)
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
// RelIPC and RelInvEDP are ratios of means to DDR3-PCB's.
func Fig14(o Options) ([]Fig14Row, error) {
	o = o.withDefaults()
	var p plan
	for _, w := range fig14Workloads(o.Quick) {
		for _, iface := range config.Interfaces() {
			for _, name := range specGroup(w, o.Quick) {
				p.addRun(Fig14Row{Workload: w, Interface: iface}, name, nil,
					point{iface: iface, nW: 1, nB: 1, variant: iface.String() + " " + setOf(name, w)}, o)
			}
		}
	}
	share := plain(func(x *system.Result) float64 { return x.Breakdown.ActPreShareOfMemory() })
	return run(o, p, append([]column{ipcCol, edpCol, share}, powerCols...),
		func(r *Fig14Row, v []float64, m map[any][]float64) {
			base := m[Fig14Row{Workload: r.Workload, Interface: config.DDR3PCB}]
			r.IPC, r.RelIPC, r.RelInvEDP, r.ActPreShare = v[0], v[0]/base[0], base[1]/v[1], v[2]
			r.ProcW, r.ActPreW, r.StaticW, r.RdWrW, r.IOW = v[3], v[4], v[5], v[6], v[7]
		})
}

// Fig14Table renders Fig14 rows.
func Fig14Table(rows []Fig14Row) *stats.Table {
	t := stats.NewTable("Fig. 14: processor-memory interfaces (no μbanks)",
		"Workload", "Interface", "IPC", "RelIPC", "Rel1/EDP",
		"Proc(W)", "ACT/PRE(W)", "Static(W)", "RD/WR(W)", "I/O(W)", "ACT/PRE mem share")
	for _, r := range rows {
		addRow(t, 1, r.Workload, r.Interface.String(), r.IPC, r.RelIPC, r.RelInvEDP,
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
// μbank configuration over the spec-high group: the gains are means of
// per-benchmark ratios.
func Headline(o Options) (HeadlineResult, error) {
	o = o.withDefaults()
	var p plan
	for _, name := range specGroup("spec-high", o.Quick) {
		p.addRun("DDR3-PCB", name, nil, point{iface: config.DDR3PCB, nW: 1, nB: 1, variant: "DDR3-PCB"}, o)
		p.addRun("ubank", name, "DDR3-PCB", point{iface: config.LPDDRTSI, nW: 2, nB: 8, variant: "LPDDR-TSI"}, o)
	}
	if err := mapRuns(o, p); err != nil {
		return HeadlineResult{}, err
	}
	_, m := p.mean(relIPC, relInvEDP)
	return HeadlineResult{IPCGain: m["ubank"][0], InvEDPGain: m["ubank"][1]}, nil
}

// HeadlineTable renders the headline comparison.
func HeadlineTable(h HeadlineResult) *stats.Table {
	t := stats.NewTable("Headline: TSI+μbank (2,8) vs DDR3-PCB, spec-high",
		"Metric", "Measured", "Paper")
	addRow(t, 0, "IPC gain", h.IPCGain, 1.62)
	addRow(t, 0, "1/EDP gain", h.InvEDPGain, 4.80)
	return t
}
