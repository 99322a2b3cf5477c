package golden_test

// Golden regression fixtures over the machine-readable run reports:
// one fixture per shipped memory configuration, one for the headline
// experiment at quick fidelity, and one Fig. 10 representative
// configuration. Each fixture pins the exact report bytes — metrics at
// full float precision plus the rendered summary table — so any change
// to simulation results, energy accounting, or report formatting shows
// up as a reviewed diff instead of silent drift. Runs execute under
// the fatal protocol checker, so the fixtures double as a protocol
// gate; byte-stability across -j widths and observed/unobserved runs
// is asserted explicitly.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"microbank/internal/check"
	"microbank/internal/check/golden"
	"microbank/internal/config"
	"microbank/internal/experiments"
	"microbank/internal/obs"
	"microbank/internal/stats"
	"microbank/internal/system"
	"microbank/internal/workload"
)

// goldenInstr is the fixture budget: small enough that the whole
// matrix runs in about a second, large enough to exercise refresh
// (the 30 k-instruction runs span several tREFI).
const goldenInstr = 30000

// runShipped simulates one shipped configuration and returns its
// result. With observed, the run additionally carries a fatal protocol
// checker, a Chrome tracer, and an epoch sampler — all read-only, so
// results must be bit-identical either way.
func runShipped(t *testing.T, sc experiments.ShippedConfig, observed bool) system.Result {
	t.Helper()
	sys := config.SingleCore(sc.Mem())
	spec := system.UniformSpec(sys, workload.MustGet("429.mcf"), goldenInstr, 42)
	spec.WarmupInstr = goldenInstr / 2
	if observed {
		o := obs.NewObserver()
		o.AddTracer(check.New(sys.Mem, check.ModeFatal))
		o.EnableChromeTrace()
		o.EnableSampling(sys.CoreClock().Period() * 2500)
		spec.Obs = o
	}
	res, err := system.Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name(), err)
	}
	return res
}

// reportBytes renders the canonical run report for one result: the
// same summary table and metric set `microbank -exp run -report` emits.
func reportBytes(t *testing.T, title string, res system.Result) []byte {
	t.Helper()
	r := experiments.NewReport("golden", experiments.Options{Quick: true, Seed: 42, Instr: goldenInstr})
	tb := stats.NewTable(title, "Metric", "Value")
	tb.AddRow("IPC", res.IPC)
	tb.AddRow("MAPKI", res.MAPKI)
	tb.AddRow("Row-buffer hit rate", res.RowHitRate)
	tb.AddRow("Avg read latency (ns)", res.AvgReadLatencyNS)
	tb.AddRow("EDP (J·s)", fmt.Sprintf("%.3e", res.Breakdown.EDPJs()))
	r.AddTable(tb)
	r.SetMetric("ipc", res.IPC)
	r.SetMetric("mapki", res.MAPKI)
	r.SetMetric("row_hit_rate", res.RowHitRate)
	r.SetMetric("avg_read_latency_ns", res.AvgReadLatencyNS)
	r.SetMetric("pred_hit_rate", res.PredHitRate)
	r.SetMetric("edp_js", res.Breakdown.EDPJs())
	b, err := r.JSON()
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	return b
}

// TestGoldenShippedRunReports pins one run report per shipped
// configuration. The runs execute under the fatal checker, so a
// timing-protocol regression fails here even before the diff.
func TestGoldenShippedRunReports(t *testing.T) {
	for _, sc := range experiments.ShippedConfigs() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			res := runShipped(t, sc, true)
			got := reportBytes(t, "golden run: "+sc.Name(), res)
			golden.Check(t, "testdata/run_"+sc.Name()+".json", got)
		})
	}
}

// TestGoldenObservedMatchesUnobserved asserts the observability layer
// (checker included) never perturbs results: the report bytes of an
// observed and an unobserved run are identical.
func TestGoldenObservedMatchesUnobserved(t *testing.T) {
	t.Parallel()
	sc := experiments.ShippedConfig{Interface: config.LPDDRTSI, NW: 2, NB: 8}
	plain := reportBytes(t, "golden run: "+sc.Name(), runShipped(t, sc, false))
	observed := reportBytes(t, "golden run: "+sc.Name(), runShipped(t, sc, true))
	if !bytes.Equal(plain, observed) {
		t.Fatalf("observed run drifted from unobserved run:\n%s", golden.Diff(plain, observed))
	}
}

// TestGoldenUnobservedRunReports asserts every shipped configuration
// reproduces its committed fixture without the checker, tracer and
// sampler attached too. TestGoldenShippedRunReports pins the observed
// runs; together they prove observation never moves any fixture, not
// just the one configuration TestGoldenObservedMatchesUnobserved
// compares directly.
func TestGoldenUnobservedRunReports(t *testing.T) {
	for _, sc := range experiments.ShippedConfigs() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			res := runShipped(t, sc, false)
			got := reportBytes(t, "golden run: "+sc.Name(), res)
			golden.Check(t, "testdata/run_"+sc.Name()+".json", got)
		})
	}
}

// TestGoldenQoSPolicies pins run reports for the QoS scenario pack:
// SALP pseudo-banks, the bandwidth regulator, and their composition on
// a multiprogrammed 4-core mix, each under the fatal protocol checker
// (which shadows the row-to-subarray mapping). The reports carry the
// tail-latency and fairness metrics, so a change to the subarray
// model, the regulator's admission, or the histogram plumbing shows up
// here as a reviewed diff. The pre-existing fixtures must NOT move:
// these scenarios are additive and the S=1/budget=0 paths stay
// byte-identical.
func TestGoldenQoSPolicies(t *testing.T) {
	cases := []struct {
		name   string
		sched  config.Scheduler
		salp   int
		budget int
	}{
		{"frfcfs_salp4", config.SchedFRFCFS, 4, 0},
		{"parbs_reg", config.SchedPARBS, 0, 2},
		{"fcfs_salp4_reg", config.SchedFCFS, 4, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := config.DefaultSystem(config.MemPreset(config.LPDDRTSI, 2, 8))
			sys.Cores = 4
			sys.Mem.Org.SubarraysPerBank = tc.salp
			sys.Ctrl.Scheduler = tc.sched
			sys.Ctrl.BankBudget = tc.budget
			spec := system.MixSpec(sys, workload.MixHigh(), 8000, 42)
			spec.WarmupInstr = 4000
			obsv := obs.NewObserver()
			obsv.AddTracer(check.New(sys.Mem, check.ModeFatal))
			spec.Obs = obsv
			res, err := system.Run(spec)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			o := experiments.Options{Quick: true, Seed: 42, Instr: 8000}
			r := experiments.NewReport("qos", o)
			tb := stats.NewTable("golden QoS run: "+tc.name, "Metric", "Value")
			tb.AddRow("IPC", res.IPC)
			tb.AddRow("p50 latency (ns)", res.LatP50NS)
			tb.AddRow("p99 latency (ns)", res.LatP99NS)
			tb.AddRow("Max latency (ns)", res.LatMaxNS)
			tb.AddRow("Max slowdown", res.MaxSlowdown)
			tb.AddRow("Fairness index", res.FairnessIndex)
			r.AddTable(tb)
			r.SetMetric("ipc", res.IPC)
			r.SetMetric("lat_p50_ns", res.LatP50NS)
			r.SetMetric("lat_p99_ns", res.LatP99NS)
			r.SetMetric("lat_max_ns", res.LatMaxNS)
			r.SetMetric("max_slowdown", res.MaxSlowdown)
			r.SetMetric("fairness_index", res.FairnessIndex)
			b, err := r.JSON()
			if err != nil {
				t.Fatalf("report: %v", err)
			}
			golden.Check(t, "testdata/qos_"+tc.name+".json", b)
		})
	}
}

// TestGoldenCoherence pins 16-core runs with shared data, the paths the
// single-program fixtures never reach: directory invalidations and
// downgrades (RADIX, FFT), and an L2 evicting a line an L1 of its
// cluster holds dirty, whose write-back re-enters the L2 mid-eviction.
// RADIX runs on the paper's machine. FFT and the mix-high mix reach
// that eviction path on the paper's 2 MB L2 only after some 64k and
// 100k+ instructions per core, so they run on a 256 KB L2, which
// reaches it within their short budget.
func TestGoldenCoherence(t *testing.T) {
	pcb := config.MemPreset(config.DDR3PCB, 1, 1)
	tsi := config.MemPreset(config.LPDDRTSI, 2, 8)
	cases := []struct {
		name  string
		mem   config.Mem
		prog  string // a SPLASH-2 program on every core, or "" for mix-high
		l2KB  int    // L2 size, 0 for the paper's
		instr uint64
	}{
		{"radix_ddr3-pcb_1x1", pcb, "RADIX", 0, 16000},
		{"radix_lpddr-tsi_2x8", tsi, "RADIX", 0, 16000},
		{"fft_ddr3-pcb_1x1_l2-256k", pcb, "FFT", 256, 8000},
		{"fft_lpddr-tsi_2x8_l2-256k", tsi, "FFT", 256, 8000},
		{"mixhigh_lpddr-tsi_2x8_l2-256k", tsi, "", 256, 10000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := config.DefaultSystem(tc.mem)
			sys.Cores = 16
			if tc.l2KB > 0 {
				sys.L2.SizeBytes = tc.l2KB << 10
			}
			var spec system.Spec
			if tc.prog != "" {
				spec = system.UniformSpec(sys, workload.MustGet(tc.prog), tc.instr, 42)
			} else {
				spec = system.MixSpec(sys, workload.MixHigh(), tc.instr, 42)
			}
			spec.WarmupInstr = tc.instr / 2
			res, err := system.Run(spec)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			o := experiments.Options{Quick: true, Seed: 42, Instr: tc.instr}
			r := experiments.NewReport("coherence", o)
			tb := stats.NewTable("golden coherence run: "+tc.name, "Metric", "Value")
			tb.AddRow("IPC", res.IPC)
			tb.AddRow("MAPKI", res.MAPKI)
			tb.AddRow("L1 hit rate", res.L1HitRate)
			tb.AddRow("L2 hit rate", res.L2HitRate)
			tb.AddRow("Row-buffer hit rate", res.RowHitRate)
			tb.AddRow("Avg read latency (ns)", res.AvgReadLatencyNS)
			tb.AddRow("EDP (J·s)", fmt.Sprintf("%.3e", res.Breakdown.EDPJs()))
			r.AddTable(tb)
			r.SetMetric("ipc", res.IPC)
			r.SetMetric("mapki", res.MAPKI)
			r.SetMetric("l1_hit_rate", res.L1HitRate)
			r.SetMetric("l2_hit_rate", res.L2HitRate)
			r.SetMetric("row_hit_rate", res.RowHitRate)
			r.SetMetric("avg_read_latency_ns", res.AvgReadLatencyNS)
			r.SetMetric("noc_avg_hops", res.NoCAvgHops)
			r.SetMetric("lat_p99_ns", res.LatP99NS)
			r.SetMetric("mem_writes", float64(res.Mem.Writes))
			r.SetMetric("edp_js", res.Breakdown.EDPJs())
			b, err := r.JSON()
			if err != nil {
				t.Fatalf("report: %v", err)
			}
			golden.Check(t, "testdata/coh_"+tc.name+".json", b)
		})
	}
}

// headlineReport runs the headline experiment at the given parallelism
// and renders its report with the parallelism echo normalized, so the
// bytes are comparable across -j widths.
func headlineReport(t *testing.T, jobs int) []byte {
	t.Helper()
	o := experiments.Options{Quick: true, Seed: 42, Parallelism: jobs}
	h, err := experiments.Headline(o)
	if err != nil {
		t.Fatalf("headline: %v", err)
	}
	r := experiments.NewReport("headline", o)
	r.Parallelism = 0 // normalize the echo: results are -j-invariant
	r.AddTable(experiments.HeadlineTable(h))
	b, err := r.JSON()
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	return b
}

// TestGoldenHeadlineQuick pins `-exp headline -quick` and proves the
// harness is byte-stable at any -j.
func TestGoldenHeadlineQuick(t *testing.T) {
	t.Parallel()
	serial := headlineReport(t, 1)
	wide := headlineReport(t, runtime.GOMAXPROCS(0))
	if !bytes.Equal(serial, wide) {
		t.Fatalf("headline report differs between -j1 and -j%d:\n%s",
			runtime.GOMAXPROCS(0), golden.Diff(serial, wide))
	}
	golden.Check(t, "testdata/headline_quick.json", serial)
}

// TestGoldenFig10Config pins one Fig. 10 representative configuration:
// 450.soplex on LPDDR-TSI (2,8) normalized to its own (1,1) baseline,
// the per-workload convention of the figure.
func TestGoldenFig10Config(t *testing.T) {
	t.Parallel()
	run := func(nW, nB int) system.Result {
		return runShipped(t, experiments.ShippedConfig{Interface: config.LPDDRTSI, NW: nW, NB: nB}, true)
	}
	o := experiments.Options{Quick: true, Seed: 42, Instr: goldenInstr}
	base, err := system.Run(fig10Spec(o, 1, 1))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ub, err := system.Run(fig10Spec(o, 2, 8))
	if err != nil {
		t.Fatalf("ubank: %v", err)
	}
	_ = run // runShipped covers the absolute fixtures; here we pin ratios
	r := experiments.NewReport("fig10", o)
	tb := stats.NewTable("golden Fig. 10 point: 450.soplex, LPDDR-TSI (2,8) vs (1,1)",
		"Metric", "Value")
	tb.AddRow("RelIPC", ub.IPC/base.IPC)
	tb.AddRow("Rel1/EDP", base.Breakdown.EDPJs()/ub.Breakdown.EDPJs())
	tb.AddRow("RowHit", ub.RowHitRate)
	tb.AddRow("ACT/PRE (W)", ub.Breakdown.ActPreW())
	r.AddTable(tb)
	r.SetMetric("rel_ipc", ub.IPC/base.IPC)
	r.SetMetric("rel_inv_edp", base.Breakdown.EDPJs()/ub.Breakdown.EDPJs())
	r.SetMetric("row_hit_rate", ub.RowHitRate)
	b, err := r.JSON()
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	golden.Check(t, "testdata/fig10_lpddr-tsi_2x8_450.soplex.json", b)
}

// fig10Spec builds the Fig. 10 single-core spec for 450.soplex with a
// fatal checker attached.
func fig10Spec(o experiments.Options, nW, nB int) system.Spec {
	sys := config.SingleCore(config.MemPreset(config.LPDDRTSI, nW, nB))
	spec := system.UniformSpec(sys, workload.MustGet("450.soplex"), o.Instr, o.Seed)
	spec.WarmupInstr = o.Instr / 2
	obsv := obs.NewObserver()
	obsv.AddTracer(check.New(sys.Mem, check.ModeFatal))
	spec.Obs = obsv
	return spec
}

// TestModelFingerprint pins system.ModelFingerprint to the fixtures:
// SHA-256 over every fixture in name order, each as name, length and
// bytes. A change that moves any simulated result regenerates a fixture
// and fails here until the constant is bumped, which retires every
// stored result of the old model. It runs last, so under
// UPDATE_GOLDEN=1 it sees the regenerated files.
func TestModelFingerprint(t *testing.T) {
	names, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, path := range names {
		if strings.HasSuffix(path, ".got.json") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.Base(path), len(data))
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != system.ModelFingerprint {
		t.Fatalf("fixtures fingerprint to %s, not system.ModelFingerprint %s: "+
			"the model's results changed, so set the constant to the new value", got, system.ModelFingerprint)
	}
}
