package experiments

// Ablation studies for the design choices DESIGN.md calls out beyond
// the paper's own figures:
//
//   - scheduler: FCFS vs FR-FCFS vs PAR-BS under multiprogrammed
//     interference (the paper always uses PAR-BS);
//   - queue depth: §V argues μbanks drain the request queue so far
//     that queue-inspecting policies lose their information — this
//     ablation measures average queue occupancy directly;
//   - activation-window scaling: this model widens tRRD/tFAW with nW
//     (activation current ∝ activated bits); the ablation quantifies
//     how much of the nW benefit depends on that assumption;
//   - refresh: all-bank vs LPDDR-style per-bank refresh vs none,
//     with and without μbanks.

import (
	"microbank/internal/config"
	"microbank/internal/stats"
	"microbank/internal/system"
)

// AblationRow is one variant measurement.
type AblationRow struct {
	Study   string
	Variant string
	IPC     float64
	RelIPC  float64 // vs the study's first variant
	Extra   float64 // study-specific metric (see Table header)
}

// study runs one ablation: workload w at every (nW,nB) point of cfgs
// under every variant, mut(s, i) setting the i-th, and reduces it to
// each variant's IPC, its IPC relative to the study's first cell, and
// the study's extra metric. Rows name the variant, prefixed by the
// point when the study has several.
func study(o Options, name, w string, cfgs [][2]int, variants []string,
	mut func(s *config.System, i int), extra func(*system.Result) float64) ([]AblationRow, error) {
	o = o.withDefaults()
	var p plan
	for _, cfg := range cfgs {
		for i, v := range variants {
			row := AblationRow{Study: name, Variant: v}
			if len(cfgs) > 1 {
				row.Variant = formatCfg(cfg[0], cfg[1]) + " " + v
			}
			var base any = row
			if len(p) > 0 {
				base = p[0].key
			}
			p.addRun(row, w, base, point{iface: config.LPDDRTSI, nW: cfg[0], nB: cfg[1], variant: v,
				mut: func(s *config.System) { mut(s, i) }}, o)
		}
	}
	return run(o, p, []column{ipcCol, relIPC, plain(extra)}, func(r *AblationRow, v []float64, _ map[any][]float64) {
		r.IPC, r.RelIPC, r.Extra = v[0], v[1], v[2]
	})
}

func readLatency(x *system.Result) float64 { return x.AvgReadLatencyNS }

// AblationScheduler compares the three memory schedulers on a
// multiprogrammed mix over one busy channel.
func AblationScheduler(o Options) ([]AblationRow, error) {
	scheds := []config.Scheduler{config.SchedFCFS, config.SchedFRFCFS, config.SchedPARBS}
	return study(o, "scheduler", "mix-high", [][2]int{{1, 1}}, []string{"FCFS", "FR-FCFS", "PAR-BS"},
		func(s *config.System, i int) {
			s.Ctrl.Scheduler = scheds[i]
			s.Mem.Org.Channels = 2 // concentrate interference
		}, readLatency)
}

// AblationQueueDepth sweeps the controller queue depth on TPC-H for
// the baseline and a μbank device, reporting mean queue occupancy —
// the §V observation that μbanks starve queue-inspecting policies.
func AblationQueueDepth(o Options) ([]AblationRow, error) {
	return study(o, "queue-depth", "TPC-H", [][2]int{{1, 1}, {2, 8}},
		[]string{"depth=8", "depth=16", "depth=32", "depth=64"},
		func(s *config.System, i int) { s.Ctrl.QueueDepth = 8 << i },
		func(x *system.Result) float64 {
			if x.RuntimePS > 0 {
				return x.Mem.QueueOccIntegral / float64(x.RuntimePS)
			}
			return 0
		})
}

// AblationActWindow quantifies the tRRD/tFAW-scaling assumption at a
// wordline-heavy configuration on 429.mcf.
func AblationActWindow(o Options) ([]AblationRow, error) {
	return study(o, "act-window", "429.mcf", [][2]int{{16, 1}},
		[]string{"tRRD/tFAW scaled by nW (default)", "unscaled activation windows"},
		func(s *config.System, i int) { s.Mem.Timing.NoActWindowScaling = i == 1 }, readLatency)
}

// AblationBankHash measures XOR bank hashing (permutation-based
// interleaving) on a stream-heavy workload: power-of-two array strides
// that alias onto one bank under plain row interleaving spread out
// under the hash.
func AblationBankHash(o Options) ([]AblationRow, error) {
	return study(o, "bank-hash", "TPC-H", [][2]int{{1, 1}, {2, 8}}, []string{"xor=false", "xor=true"},
		func(s *config.System, i int) { s.Ctrl.XORBankHash = i == 1 },
		func(x *system.Result) float64 { return x.RowHitRate })
}

// AblationRefresh measures the refresh overhead with and without
// μbanks.
func AblationRefresh(o Options) ([]AblationRow, error) {
	return study(o, "refresh", "470.lbm", [][2]int{{1, 1}, {4, 4}},
		[]string{"refresh=all-bank", "refresh=per-bank", "refresh=off"},
		func(s *config.System, i int) {
			switch i {
			case 1:
				s.Mem.Timing.PerBankRefresh = true
			case 2:
				s.Mem.Timing.TREFI = 0
				s.Mem.Timing.TRFC = 0
			}
		}, func(x *system.Result) float64 { return float64(x.Mem.Energy.Refreshes) })
}

// Ablations runs every ablation study and renders one table.
func Ablations(o Options) (*stats.Table, error) {
	t := stats.NewTable("Ablations (DESIGN.md §6)",
		"Study", "Variant", "IPC", "RelIPC", "Extra (lat ns / occupancy / refreshes)")
	studies := []func(Options) ([]AblationRow, error){
		AblationScheduler, AblationQueueDepth, AblationActWindow,
		AblationBankHash, AblationRefresh,
	}
	for _, f := range studies {
		rows, err := f(o)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			addRow(t, 1, r.Study, r.Variant, r.IPC, r.RelIPC, r.Extra)
		}
	}
	return t, nil
}
