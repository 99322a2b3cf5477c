package experiments

import (
	"strings"
	"testing"

	"microbank/internal/config"
)

// qo is the reduced-fidelity option set used throughout these tests.
var qo = Options{Quick: true, Instr: 24000, Cores: 16, Seed: 42}

func TestTable1ContainsAnchors(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"20pJ/b", "4pJ/b", "30nJ", "14ns", "12ns", "35ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ListsGroups(t *testing.T) {
	out := Table2().String()
	for _, want := range []string{"spec-high", "spec-med", "spec-low", "429.mcf"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestFig1Ordering(t *testing.T) {
	tb := Fig1(1.0, 8)
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Totals must strictly decrease: PCB > TSI > TSI+μbank.
	get := func(r int) string { return tb.Cell(r, 4) }
	if !(get(0) > get(1) && get(1) > get(2)) { // lexicographic works: 91.x > 66.x > 15.x
		t.Fatalf("Fig. 1 totals not decreasing: %s %s %s", get(0), get(1), get(2))
	}
}

func TestFig6Grids(t *testing.T) {
	a := Fig6a()
	if v := a.At(1, 1); v != 1.0 {
		t.Fatalf("area baseline = %v", v)
	}
	if v := a.At(16, 16); v < 1.25 || v > 1.29 {
		t.Fatalf("area(16,16) = %v, want ~1.268", v)
	}
	b1 := Fig6b(1.0)
	b01 := Fig6b(0.1)
	if b1.At(16, 1) >= b1.At(1, 1) {
		t.Fatal("energy should fall with nW")
	}
	// β=1 saving exceeds β=0.1 saving.
	if (1 - b1.At(16, 1)) <= (1 - b01.At(16, 1)) {
		t.Fatal("β sensitivity inverted")
	}
	if !strings.Contains(a.Table("x").String(), "1.000") {
		t.Fatal("table render")
	}
}

func TestFig11Layouts(t *testing.T) {
	out := Fig11().String()
	for _, want := range []string{"ubank", "chan", "row"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 11 missing %q:\n%s", want, out)
		}
	}
}

func TestFig8And9Shapes(t *testing.T) {
	ipc, edp, err := Fig8And9(qo)
	if err != nil {
		t.Fatal(err)
	}
	if len(ipc) != 3 || len(edp) != 3 {
		t.Fatalf("panels = %d/%d", len(ipc), len(edp))
	}
	byName := map[string]*GridData{}
	for _, g := range ipc {
		byName[g.Workload] = g
	}
	mcf, high, tpch := byName["429.mcf"], byName["spec-high"], byName["TPC-H"]

	// Every grid is normalized at (1,1) and improves with partitioning.
	for _, g := range append(ipc, edp...) {
		if g.At(1, 1) != 1.0 {
			t.Errorf("%s %s: baseline cell = %v", g.Workload, g.Metric, g.At(1, 1))
		}
		if _, _, best := g.Best(); best <= 1.05 {
			t.Errorf("%s %s: μbanks gave no benefit (best %v)", g.Workload, g.Metric, best)
		}
	}
	// mcf gains substantially at full partitioning (§VI-B: +54.8%).
	if mcf.At(16, 16) < 1.2 {
		t.Errorf("mcf (16,16) = %v, want > 1.2", mcf.At(16, 16))
	}
	// TPC-H is more sensitive to nB than nW (§VI-B).
	if tpch.At(1, 16) <= tpch.At(16, 1) {
		t.Errorf("TPC-H nB sensitivity inverted: (1,16)=%v (16,1)=%v",
			tpch.At(1, 16), tpch.At(16, 1))
	}
	// spec-high gains are more modest than mcf's at (16,16).
	if high.At(16, 16) >= mcf.At(16, 16)+0.15 {
		t.Errorf("spec-high (16,16)=%v should not far exceed mcf %v",
			high.At(16, 16), mcf.At(16, 16))
	}
	// 1/EDP gains exceed IPC gains (energy also falls).
	for i := range ipc {
		_, _, bi := ipc[i].Best()
		_, _, be := edp[i].Best()
		if be <= bi {
			t.Errorf("%s: EDP best %v <= IPC best %v", ipc[i].Workload, be, bi)
		}
	}
}

func TestFig10Rows(t *testing.T) {
	rows, err := Fig10(qo)
	if err != nil {
		t.Fatal(err)
	}
	want := (len(fig10Single) + len(fig10Multi)) * len(RepresentativeConfigs)
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.NW == 1 && r.NB == 1 {
			if r.RelIPC != 1 || r.RelInvEDP != 1 {
				t.Errorf("%s baseline not normalized: %+v", r.Workload, r)
			}
			continue
		}
		if r.RelIPC < 0.9 {
			t.Errorf("%s (%d,%d): relIPC %v", r.Workload, r.NW, r.NB, r.RelIPC)
		}
	}
	// Wordline-heavy config (8,2) must dissipate less ACT/PRE power
	// than (1,1) for a memory-bound set (§VI-B).
	var base, w8 Fig10Row
	for _, r := range rows {
		if r.Workload == "spec-high" && r.NW == 1 && r.NB == 1 {
			base = r
		}
		if r.Workload == "spec-high" && r.NW == 8 && r.NB == 2 {
			w8 = r
		}
	}
	if w8.ActPreW >= base.ActPreW {
		t.Errorf("(8,2) ACT/PRE power %v not below (1,1) %v", w8.ActPreW, base.ActPreW)
	}
	if !strings.Contains(Fig10Table(rows).String(), "spec-high") {
		t.Fatal("table render")
	}
}

func TestFig12OpenPageWinsWithMicrobanks(t *testing.T) {
	rows, err := Fig12(qo, "spec-high")
	if err != nil {
		t.Fatal(err)
	}
	// Find (2,8): open-page at max iB vs close-page at iB=6.
	var openRow, closeRow, openLine Fig12Row
	for _, r := range rows {
		if r.NW == 2 && r.NB == 8 {
			if r.Policy == config.OpenPage && r.IB == 12 {
				openRow = r
			}
			if r.Policy == config.ClosePage && r.IB == 6 {
				closeRow = r
			}
			if r.Policy == config.OpenPage && r.IB == 6 {
				openLine = r
			}
		}
	}
	if openRow.RelIPC == 0 || closeRow.RelIPC == 0 {
		t.Fatalf("missing rows: %+v %+v", openRow, closeRow)
	}
	// §VI-C: with many active rows, open-page + page interleaving
	// clearly outperforms close-page.
	if openRow.RelIPC <= closeRow.RelIPC {
		t.Errorf("open@iB=12 (%v) not above close@iB=6 (%v)", openRow.RelIPC, closeRow.RelIPC)
	}
	// Page interleaving beats cache-line interleaving under open page.
	if openRow.RelIPC <= openLine.RelIPC*0.98 {
		t.Errorf("row interleaving (%v) worse than line interleaving (%v)",
			openRow.RelIPC, openLine.RelIPC)
	}
	if !strings.Contains(Fig12Table(rows).String(), "open") {
		t.Fatal("table render")
	}
}

func TestFig13PerfectAndOpen(t *testing.T) {
	rows, err := Fig13(qo)
	if err != nil {
		t.Fatal(err)
	}
	get := func(w string, nw, nb int, p config.PagePolicy) Fig13Row {
		for _, r := range rows {
			if r.Workload == w && r.NW == nw && r.NB == nb && r.Policy == p {
				return r
			}
		}
		t.Fatalf("row %s (%d,%d) %v missing", w, nw, nb, p)
		return Fig13Row{}
	}
	// The perfect predictor's hit rate is 1 by construction.
	for _, cfg := range fig13Configs {
		r := get("429.mcf", cfg[0], cfg[1], config.PredPerfect)
		if r.HitRate < 0.999 {
			t.Errorf("perfect hit rate at (%d,%d) = %v", cfg[0], cfg[1], r.HitRate)
		}
	}
	// §VI-C: 429.mcf is the outlier where prediction helps most (the
	// paper reports up to 11.2%% at (2,8)); the gap must exist but stay
	// bounded.
	open := get("429.mcf", 2, 8, config.OpenPage)
	perf := get("429.mcf", 2, 8, config.PredPerfect)
	if open.RelIPC < perf.RelIPC*0.75 {
		t.Errorf("open-page %v more than 25%% behind perfect %v at (2,8)",
			open.RelIPC, perf.RelIPC)
	}
	// On a high-spatial-locality workload open-page tracks the oracle
	// closely (the paper's "simple open-page is sufficient" claim).
	openC := get("canneal", 2, 8, config.OpenPage)
	perfC := get("canneal", 2, 8, config.PredPerfect)
	if openC.RelIPC < perfC.RelIPC*0.90 {
		t.Errorf("canneal: open %v more than 10%% behind perfect %v",
			openC.RelIPC, perfC.RelIPC)
	}
	if !strings.Contains(Fig13Table(rows).String(), "perfect") {
		t.Fatal("table render")
	}
}

func TestFig14InterfaceOrdering(t *testing.T) {
	rows, err := Fig14(qo)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig14Row{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Interface.String()] = r
	}
	for _, w := range fig14Workloads(true) {
		pcb := byKey[w+"/DDR3-PCB"]
		lpddr := byKey[w+"/LPDDR-TSI"]
		// At quick fidelity the test asks only that LPDDR-TSI stay
		// near PCB's IPC (RelIPC > 0.9) and win on energy (1/EDP gain
		// > 1.2); it does not check Fig. 14's IPC gap.
		if lpddr.RelIPC <= 0.9 {
			t.Errorf("%s: LPDDR-TSI relIPC = %v, want near or above PCB", w, lpddr.RelIPC)
		}
		if lpddr.RelInvEDP <= 1.2 {
			t.Errorf("%s: LPDDR-TSI 1/EDP gain = %v, want > 1.2", w, lpddr.RelInvEDP)
		}
		// §VI-D: ACT/PRE share of memory power grows under LPDDR-TSI.
		if lpddr.ActPreShare <= pcb.ActPreShare {
			t.Errorf("%s: ACT/PRE share did not grow: %v vs %v",
				w, lpddr.ActPreShare, pcb.ActPreShare)
		}
	}
	if !strings.Contains(Fig14Table(rows).String(), "LPDDR-TSI") {
		t.Fatal("table render")
	}
}

func TestHeadlineGains(t *testing.T) {
	h, err := Headline(qo)
	if err != nil {
		t.Fatal(err)
	}
	if h.IPCGain <= 1.1 {
		t.Errorf("IPC gain = %v, want well above 1 (paper: 1.62)", h.IPCGain)
	}
	if h.InvEDPGain <= h.IPCGain {
		t.Errorf("EDP gain %v should exceed IPC gain %v (paper: 4.80 vs 1.62)",
			h.InvEDPGain, h.IPCGain)
	}
	if !strings.Contains(HeadlineTable(h).String(), "1.62") {
		t.Fatal("table render")
	}
}

func TestOptionsDefaults(t *testing.T) {
	full := Options{}.withDefaults()
	if full.Instr != 240000 || full.Cores != 64 || full.Seed != 42 {
		t.Fatalf("full defaults = %+v", full)
	}
	quick := Options{Quick: true}.withDefaults()
	if quick.Instr != 30000 || quick.Cores != 16 {
		t.Fatalf("quick defaults = %+v", quick)
	}
}

func TestSpecGroupSelection(t *testing.T) {
	if len(specGroup("spec-high", false)) != 9 {
		t.Fatal("full spec-high")
	}
	if len(specGroup("spec-high", true)) >= 9 {
		t.Fatal("quick spec-high not reduced")
	}
	if got := specGroup("429.mcf", false); len(got) != 1 || got[0] != "429.mcf" {
		t.Fatalf("single workload = %v", got)
	}
}

func TestGridCSV(t *testing.T) {
	csv := Fig6a().CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 6 {
		t.Fatalf("csv lines = %d, want 6", len(lines))
	}
	if !strings.HasPrefix(lines[0], "nB\\nW,1,2,4,8,16") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "1.0000") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestGridSVG(t *testing.T) {
	svg := Fig6a().SVG("Fig. 6a <area>")
	for _, want := range []string{"<svg", "</svg>", "&lt;area&gt;", "1.267", "rect"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if n := strings.Count(svg, "<rect"); n != 25 {
		t.Errorf("cells = %d, want 25", n)
	}
	// Degenerate grid (all equal) must not divide by zero.
	g := &GridData{Metric: "x", Rel: map[[2]int]float64{}}
	for _, b := range Axis {
		for _, w := range Axis {
			g.Rel[[2]int{w, b}] = 1.0
		}
	}
	if out := g.SVG("flat"); !strings.Contains(out, "1.000") {
		t.Error("flat grid render")
	}
}
