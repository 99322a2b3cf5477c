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
	"strings"

	"microbank/internal/config"
	"microbank/internal/dramarea"
	"microbank/internal/sim"
	"microbank/internal/stats"
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
	var p plan
	for _, name := range specGroup("spec-high", o.Quick) {
		for _, pt := range points {
			var mut func(*config.System)
			if k := pt.rankSubset; k > 1 {
				mut = func(s *config.System) {
					s.Mem.Timing.TBL *= sim.Time(k)
					s.Mem.Timing.TCCD *= sim.Time(k)
				}
			}
			p.addRun(pt, name, points[0], point{iface: pt.Interface, nW: pt.NW, nB: pt.NB, mut: mut, variant: strings.Fields(pt.Design)[0]}, o)
		}
	}
	return run(o, p, []column{relIPC, relInvEDP}, func(r *RelatedRow, v []float64, _ map[any][]float64) {
		r.RelIPC, r.RelInvEDP = v[0], v[1]
		r.AreaOver = dramarea.RelativeArea(r.NW, r.NB) - 1
	})
}

// RelatedWorkTable renders the comparison.
func RelatedWorkTable(rows []RelatedRow) *stats.Table {
	t := stats.NewTable("Related work mapped onto the μbank design space (spec-high)",
		"Design", "Interface", "(nW,nB)", "RelIPC", "Rel1/EDP", "Area overhead")
	for _, r := range rows {
		addRow(t, 0, r.Design, r.Interface.String(),
			formatCfg(r.NW, r.NB), r.RelIPC, r.RelInvEDP, r.AreaOver)
	}
	return t
}

func formatCfg(nW, nB int) string { return fmt.Sprintf("(%d,%d)", nW, nB) }
