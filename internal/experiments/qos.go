package experiments

// QoS & scheduling sweep: tail latency and fairness across the three
// ways this model can multiply row buffers or police them —
//
//   - SALP-style subarray parallelism (Kim et al., ISCA 2012; see
//     PAPERS.md), which splits each bank into pseudo-banks that share
//     the bank's I/O but keep private row buffers;
//   - the paper's μbank partitioning, which genuinely multiplies
//     banks (and pays the area/energy for it);
//   - a MemGuard-style per-(thread, bank) bandwidth regulator
//     (Yun et al., 2013/2014; see PAPERS.md) composed under the
//     scheduler.
//
// Where the paper's figures report throughput means, this sweep
// reports the distribution tail: p50/p95/p99/max request latency,
// worst-thread slowdown, and Jain's fairness index, on the
// multiprogrammed high-MAPKI mix over two busy channels. The
// analytic worst-case counterpart to the regulated rows lives in
// internal/qos.

import (
	"fmt"
	"math"
	"strings"

	"microbank/internal/config"
	"microbank/internal/stats"
	"microbank/internal/system"
)

// QoSRow is one (organization, policy) measurement.
type QoSRow struct {
	Org    string
	Policy string
	IPC    float64
	// Whole-run request-latency quantiles in nanoseconds (histograms
	// cannot be warm-subtracted, so unlike IPC these include warm-up).
	P50NS, P95NS, P99NS, MaxNS float64
	MaxSlowdown                float64
	Fairness                   float64
}

// QoSSweep measures the organization × policy matrix: conventional,
// SALP-16 (same row-buffer count as the μbank point, none of its bank
// parallelism), and the (2,8) μbank device, each under FR-FCFS,
// PAR-BS, and PAR-BS with the bandwidth regulator.
func QoSSweep(o Options) ([]QoSRow, error) {
	o = o.withDefaults()
	orgs := []struct {
		name   string
		nw, nb int
		subs   int
	}{
		{"conventional (1,1)", 1, 1, 0},
		{"SALP-16 (1,1)", 1, 1, 16},
		{"ubank (2,8)", 2, 8, 0},
	}
	policies := []struct {
		name   string
		sched  config.Scheduler
		budget int
	}{
		{"FR-FCFS", config.SchedFRFCFS, 0},
		{"PAR-BS", config.SchedPARBS, 0},
		{"PAR-BS+reg", config.SchedPARBS, 4},
	}
	var p plan
	for _, org := range orgs {
		for _, pol := range policies {
			p.addRun(QoSRow{Org: org.name, Policy: pol.name}, "mix-high", nil,
				point{iface: config.LPDDRTSI, nW: org.nw, nB: org.nb,
					variant: strings.Fields(org.name)[0] + " " + pol.name,
					mut: func(s *config.System) {
						s.Mem.Org.Channels = 2 // concentrate interference
						s.Mem.Org.SubarraysPerBank = org.subs
						s.Ctrl.Scheduler = pol.sched
						s.Ctrl.BankBudget = pol.budget
					}}, o)
		}
	}
	return run(o, p, []column{ipcCol,
		plain(func(x *system.Result) float64 { return x.LatP50NS }),
		plain(func(x *system.Result) float64 { return x.LatP95NS }),
		plain(func(x *system.Result) float64 { return x.LatP99NS }),
		plain(func(x *system.Result) float64 { return x.LatMaxNS }),
		plain(func(x *system.Result) float64 { return x.MaxSlowdown }),
		plain(func(x *system.Result) float64 { return x.FairnessIndex })},
		func(r *QoSRow, v []float64, _ map[any][]float64) {
			r.IPC, r.P50NS, r.P95NS, r.P99NS, r.MaxNS, r.MaxSlowdown, r.Fairness = v[0], v[1], v[2], v[3], v[4], v[5], v[6]
		})
}

// QoSTable renders the sweep with separators between organizations.
func QoSTable(rows []QoSRow) *stats.Table {
	// Latencies print to 0.1 ns; a missing one stays NaN for addRow.
	f1 := func(v float64) any {
		if math.IsNaN(v) {
			return v
		}
		return fmt.Sprintf("%.1f", v)
	}
	t := stats.NewTable("QoS & scheduling: tail latency and fairness (mix-high, 2 channels)",
		"Organization", "Policy", "IPC", "p50 ns", "p95 ns", "p99 ns", "max ns", "MaxSlowdown", "Fairness")
	for _, r := range rows {
		addRow(t, 1, r.Org, r.Policy, r.IPC, f1(r.P50NS), f1(r.P95NS), f1(r.P99NS), f1(r.MaxNS),
			r.MaxSlowdown, r.Fairness)
	}
	return t
}
