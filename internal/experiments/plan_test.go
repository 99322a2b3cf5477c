package experiments

// Tests for sweep plans: a repeated spec within a sweep simulates once
// at every width, failure records name their cells, and every
// experiment's reduction degrades under collect — failed entries read
// NaN (FAIL in tables) and entries that lost no run stay bitwise equal
// to the healthy sweep's.

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microbank/internal/config"
	"microbank/internal/system"
)

// degradeOpts is the small campaign these tests run: quick fidelity at
// 4000 instructions per core.
func degradeOpts(width int, inject string, t *testing.T) (Options, *Resilience) {
	t.Helper()
	r := &Resilience{Collect: true}
	if err := r.SetInject(inject); err != nil {
		t.Fatal(err)
	}
	return Options{Quick: true, Instr: 4000, Parallelism: width, Res: r}, r
}

// TestSweepRepeatsWaitForEarlierCell: quick Fig. 10 runs 429.mcf at
// (1,1) as cells 0, 8 and 20 of one sweep. A repeat waits for the
// earlier cell with its spec and replays it, so at -j 4 the same specs
// simulate as at -j 1, and an injected error at cell 8 never fires:
// cell 8 replays cell 0. The first simulation of that spec is slowed
// so that without the wait cell 8 would start while cell 0 still runs.
func TestSweepRepeatsWaitForEarlierCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick Fig. 10 sweep four times")
	}
	o, _ := degradeOpts(1, "", t)
	mcf, err := specFor("429.mcf", point{iface: config.LPDDRTSI, nW: 1, nB: 1}, o.withDefaults()).Digest()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sims map[string]int
	runSpec = func(spec system.Spec) (system.Result, error) {
		d, _ := spec.Digest()
		mu.Lock()
		sims[d]++
		first := d == mcf && sims[d] == 1
		mu.Unlock()
		if first {
			time.Sleep(200 * time.Millisecond)
		}
		return system.Run(spec)
	}
	defer func() { runSpec = system.Run }()
	fig10 := func(width int, inject string) (map[string]int, int) {
		t.Helper()
		sims = map[string]int{}
		o, r := degradeOpts(width, inject, t)
		var progress atomic.Int64
		o.Progress = func(int, int) { progress.Add(1) }
		if _, err := Fig10(o); err != nil {
			t.Fatalf("-j %d -inject %q: %v", width, inject, err)
		}
		if n := r.Log.Len(); n != 0 {
			t.Fatalf("-j %d -inject %q: %d failure(s) %+v; cell 8 must replay cell 0", width, inject, n, r.Log.Failures())
		}
		return sims, int(progress.Load())
	}
	serial, done := fig10(1, "")
	if serial[mcf] != 1 || done != 52 || len(serial) != 40 {
		t.Fatalf("-j 1: 429.mcf (1,1) simulated %d times, %d distinct specs, %d cells done; want 1, 40, 52",
			serial[mcf], len(serial), done)
	}
	for _, inject := range []string{"", "error:8"} {
		if wide, done := fig10(4, inject); !reflect.DeepEqual(wide, serial) || done != 52 {
			t.Fatalf("-j 4 -inject %q: 429.mcf (1,1) simulated %d times, %d runs of %d specs, %d cells done; want 1, 40, 40, 52",
				inject, wide[mcf], sweepTally{sims: wide}.simulated(), len(wide), done)
		}
	}
}

// TestFailureDigestsNameCells: a failure record names its cell as
// "<workload> (nW,nB) <variant>".
func TestFailureDigestsNameCells(t *testing.T) {
	for _, tc := range []struct {
		name, inject, digest string
		run                  func(Options) error
	}{
		{"qos", "error:1", "sweep 0 cell 1/9: mix-high (1,1) conventional PAR-BS",
			func(o Options) error { _, err := QoSSweep(o); return err }},
		{"fig10", "error:13", "sweep 0 cell 13/52: 470.lbm (2,8) spec-high",
			func(o Options) error { _, err := Fig10(o); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, r := degradeOpts(2, tc.inject, t)
			if err := tc.run(o); err != nil {
				t.Fatal(err)
			}
			if fails := r.Log.Failures(); len(fails) != 1 || fails[0].Digest != tc.digest {
				t.Fatalf("failure records = %+v, want one with digest %q", fails, tc.digest)
			}
		})
	}
}

// TestDegradedFig10DropsFailedBase: cell 12, 470.lbm's (1,1) base in
// spec-high, fails. Every row outside spec-high is bitwise the healthy
// one — spec-all's 470.lbm base, the same spec, simulates itself. In
// spec-high the relative columns average 429.mcf and 462.libquantum,
// the (1,1) power columns too, and the other points' power columns
// still average all three benchmarks.
func TestDegradedFig10DropsFailedBase(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick Fig. 10 sweep twice")
	}
	healthy, err := Fig10(Options{Quick: true, Instr: 4000, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	o, r := degradeOpts(2, "error:12", t)
	got, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	if fails := r.Log.Failures(); len(fails) != 1 || fails[0].Digest != "sweep 0 cell 12/52: 470.lbm (1,1) spec-high" {
		t.Fatalf("failure records = %+v, want 470.lbm's spec-high base", fails)
	}
	lib := gridPlan("462.libquantum", o.withDefaults())
	if err := mapRuns(Options{Parallelism: 2}, lib); err != nil {
		t.Fatal(err)
	}
	at := func(nW, nB int) *system.Result {
		for _, c := range lib {
			if c.key == [2]int{nW, nB} {
				return c.res
			}
		}
		return nil
	}
	for i, row := range got {
		want := healthy[i]
		if row.Workload == "spec-high" {
			mcf, x, b := healthy[i%len(RepresentativeConfigs)], at(row.NW, row.NB), at(1, 1)
			want.RelIPC = mcf.RelIPC/2 + x.IPC/b.IPC/2
			want.RelInvEDP = mcf.RelInvEDP/2 + b.Breakdown.EDPJs()/x.Breakdown.EDPJs()/2
			if row.NW == 1 && row.NB == 1 {
				want.ProcW = mcf.ProcW/2 + x.Breakdown.ProcessorW()/2
				want.ActPreW = mcf.ActPreW/2 + x.Breakdown.ActPreW()/2
				want.StaticW = mcf.StaticW/2 + x.Breakdown.DRAMStaticW()/2
				want.RdWrW = mcf.RdWrW/2 + x.Breakdown.RdWrW()/2
				want.IOW = mcf.IOW/2 + x.Breakdown.IOW()/2
				want.RowHitRate = mcf.RowHitRate/2 + x.RowHitRate/2
			}
		}
		if row != want {
			t.Fatalf("row %d = %+v, want %+v", i, row, want)
		}
	}
}

// TestDegradedFig14RatioOfMeans: Fig. 14's ratios are ratios of means.
// Cell 1 (470.lbm on DDR3-PCB) fails: spec-high's DDR3-PCB means drop
// to 429.mcf and 462.libquantum, its other interfaces keep their
// absolute values and divide by the smaller base. Cell 9 (RADIX on
// DDR3-PCB) fails: that row reads NaN throughout, and RADIX's other
// rows keep their absolute values while every ratio reads NaN.
func TestDegradedFig14RatioOfMeans(t *testing.T) {
	healthy, err := Fig14(Options{Quick: true, Instr: 4000, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := degradeOpts(2, "error:1,error:9", t)
	got, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range got {
		want, base := healthy[i], got[i-i%3]
		switch {
		case row.Interface == config.DDR3PCB && row.Workload == "RADIX":
			if !math.IsNaN(row.IPC) || !math.IsNaN(row.ProcW) || !math.IsNaN(row.RelIPC) {
				t.Fatalf("RADIX DDR3-PCB = %+v, want NaN throughout", row)
			}
			continue
		case row.Interface == config.DDR3PCB:
			if row.IPC == want.IPC || row.RelIPC != 1 {
				t.Fatalf("spec-high DDR3-PCB = %+v, want a two-benchmark mean normalized to 1", row)
			}
			want = row
		case row.Workload == "RADIX":
			if !math.IsNaN(row.RelIPC) || !math.IsNaN(row.RelInvEDP) {
				t.Fatalf("RADIX %v ratios = %v, %v; want NaN", row.Interface, row.RelIPC, row.RelInvEDP)
			}
			row.RelIPC, row.RelInvEDP = want.RelIPC, want.RelInvEDP // NaN != NaN
		default:
			want.RelIPC = row.IPC / base.IPC
			want.RelInvEDP = row.RelInvEDP
			if row.RelIPC == healthy[i].RelIPC {
				t.Fatalf("spec-high %v RelIPC did not move with its base", row.Interface)
			}
		}
		if !reflect.DeepEqual(row, want) {
			t.Fatalf("row %d = %+v, want %+v", i, row, want)
		}
	}
}

// TestDegradedAblationKeepsIPC: when a study's first variant fails,
// the other variants' IPC and extra metric stay, and every RelIPC —
// which needs the first variant — renders FAIL.
func TestDegradedAblationKeepsIPC(t *testing.T) {
	healthy, err := AblationActWindow(Options{Quick: true, Instr: 4000, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := degradeOpts(2, "error:0", t)
	got, err := AblationActWindow(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !math.IsNaN(got[0].IPC) || !math.IsNaN(got[0].RelIPC) || !math.IsNaN(got[1].RelIPC) ||
		got[1].IPC != healthy[1].IPC || got[1].Extra != healthy[1].Extra {
		t.Fatalf("degraded rows = %+v, healthy %+v", got, healthy)
	}
	o, _ = degradeOpts(2, "error:0", t) // the scheduler study's FCFS run
	tab, err := Ablations(o)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Cell(0, 2) != "FAIL" || tab.Cell(1, 2) == "FAIL" || tab.Cell(1, 3) != "FAIL" {
		t.Fatalf("degraded ablation table:\n%s", tab)
	}
}

// TestEveryExperimentDegrades: under collect, every simulation-backed
// experiment completes with an injected failure and renders it as FAIL.
func TestEveryExperimentDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick experiment")
	}
	for _, tc := range []struct {
		name, inject string
		table        func(Options) (string, error)
	}{
		{"fig8", "error:0", func(o Options) (string, error) {
			g, err := Fig8(o)
			if err != nil {
				return "", err
			}
			return g[0].Table("").String(), nil
		}},
		{"fig10", "error:0", func(o Options) (string, error) {
			rows, err := Fig10(o)
			return Fig10Table(rows).String(), err
		}},
		{"fig12", "error:0", func(o Options) (string, error) {
			rows, err := Fig12(o, "429.mcf")
			return Fig12Table(rows).String(), err
		}},
		{"fig13", "error:0", func(o Options) (string, error) {
			rows, err := Fig13(o)
			return Fig13Table(rows).String(), err
		}},
		{"fig14", "error:9", func(o Options) (string, error) {
			rows, err := Fig14(o)
			return Fig14Table(rows).String(), err
		}},
		{"headline", "error:0,error:2,error:4", func(o Options) (string, error) {
			h, err := Headline(o)
			return HeadlineTable(h).String(), err
		}},
		{"ablations", "error:0", func(o Options) (string, error) {
			tab, err := Ablations(o)
			if err != nil {
				return "", err
			}
			return tab.String(), nil
		}},
		{"qos", "error:0", func(o Options) (string, error) {
			rows, err := QoSSweep(o)
			return QoSTable(rows).String(), err
		}},
		{"related", "error:0,error:6,error:12", func(o Options) (string, error) {
			rows, err := RelatedWork(o)
			return RelatedWorkTable(rows).String(), err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, r := degradeOpts(2, tc.inject, t)
			tab, err := tc.table(o)
			if err != nil {
				t.Fatalf("degraded %s: %v", tc.name, err)
			}
			if !strings.Contains(tab, "FAIL") || r.Err() == nil {
				t.Fatalf("degraded %s: verdict %v, table\n%s", tc.name, r.Err(), tab)
			}
		})
	}
}
