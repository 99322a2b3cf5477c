package experiments

// Related-work comparisons (§VII):
//
//   - SALP (Kim et al., ISCA'12) exposes subarray-level parallelism:
//     more independent row buffers per bank without shrinking the row —
//     the μbank design subsumes it as a bitline-only partitioning
//     (nW=1, nB>1).
//   - Half-DRAM (Zhang et al., ISCA'14) halves the activated row —
//     subsumed as a wordline-only partitioning (nW=2, nB=1).
//   - Rank subsetting (mini-rank / Multicore-DIMM / BOOM) activates a
//     subset of the chips in a rank: the activated row shrinks like a
//     wordline partition, but each transfer needs proportionally more
//     bus beats — subsumed as nW-partitioning plus a longer burst.
//   - HMC (Pawlowski, Hot Chips'11) reaches a DRAM stack over serial
//     links; the paper argues (and leaves as future work to quantify)
//     that its SerDes latency and static power make it less
//     energy-efficient than TSI at single-socket scale.
//
// RelatedWork measures all of them against the μbank configuration on
// the same workload set.

import (
	"fmt"

	"microbank/internal/config"
	"microbank/internal/dramarea"
	"microbank/internal/sim"
	"microbank/internal/stats"
	"microbank/internal/system"
)

// RelatedRow is one design point of the related-work comparison.
type RelatedRow struct {
	Design    string
	Interface config.Interface
	NW, NB    int
	RelIPC    float64 // vs the conventional LPDDR-TSI baseline
	RelInvEDP float64
	AreaOver  float64 // die-area overhead of the partitioning
	// rankSubset > 1 models mini-rank-style chip subsetting: the burst
	// occupies the bus rankSubset× longer (narrower effective datapath).
	rankSubset int
}

// RelatedWork compares SALP-like, Half-DRAM-like, μbank, and HMC-serial
// design points over the spec-high group (single-core runs, per the
// paper's single-threaded methodology).
func RelatedWork(o Options) ([]RelatedRow, error) {
	o = o.withDefaults()
	points := []RelatedRow{
		{Design: "conventional (baseline)", Interface: config.LPDDRTSI, NW: 1, NB: 1},
		{Design: "SALP-like (subarray parallelism)", Interface: config.LPDDRTSI, NW: 1, NB: 8},
		{Design: "Half-DRAM-like (half row)", Interface: config.LPDDRTSI, NW: 2, NB: 1},
		{Design: "rank-subset-like (1/4 rank)", Interface: config.LPDDRTSI, NW: 4, NB: 1, rankSubset: 4},
		{Design: "ubank (2,8)", Interface: config.LPDDRTSI, NW: 2, NB: 8},
		{Design: "HMC-serial (1,1)", Interface: config.HMCSerial, NW: 1, NB: 1},
	}
	names := specGroup("spec-high", o.Quick)
	// One job per (benchmark, design point), enumerated benchmark-outer
	// to match the serial reduction order.
	type job struct {
		name string
		pt   RelatedRow
	}
	var jobs []job
	for _, name := range names {
		for _, pt := range points {
			jobs = append(jobs, job{name, pt})
		}
	}
	results, failed, err := mapRuns(o, jobs, func(j job) system.Spec {
		mut := func(*config.System) {}
		if k := j.pt.rankSubset; k > 1 {
			mut = func(s *config.System) {
				s.Mem.Timing.TBL *= sim.Time(k)
				s.Mem.Timing.TCCD *= sim.Time(k)
			}
		}
		return singleSpec(j.name, j.pt.Interface, j.pt.NW, j.pt.NB, mut, o)
	})
	if err != nil {
		return nil, err
	}
	if err := partialUnsupported("related-work", failed); err != nil {
		return nil, err
	}
	type agg struct{ ipc, edp float64 }
	sums := make([]agg, len(points))
	for ni := range names {
		var base agg
		for i := range points {
			res := results[ni*len(points)+i]
			if i == 0 {
				base = agg{ipc: res.IPC, edp: res.Breakdown.EDPJs()}
			}
			sums[i].ipc += res.IPC / base.ipc / float64(len(names))
			sums[i].edp += base.edp / res.Breakdown.EDPJs() / float64(len(names))
		}
	}
	out := make([]RelatedRow, len(points))
	for i, pt := range points {
		pt.RelIPC = sums[i].ipc
		pt.RelInvEDP = sums[i].edp
		pt.AreaOver = dramarea.RelativeArea(pt.NW, pt.NB) - 1
		out[i] = pt
	}
	return out, nil
}

// RelatedWorkTable renders the comparison.
func RelatedWorkTable(rows []RelatedRow) *stats.Table {
	t := stats.NewTable("Related work mapped onto the μbank design space (spec-high)",
		"Design", "Interface", "(nW,nB)", "RelIPC", "Rel1/EDP", "Area overhead")
	for _, r := range rows {
		t.AddRow(r.Design, r.Interface.String(),
			formatCfg(r.NW, r.NB), r.RelIPC, r.RelInvEDP, r.AreaOver)
	}
	return t
}

func formatCfg(nW, nB int) string { return fmt.Sprintf("(%d,%d)", nW, nB) }
