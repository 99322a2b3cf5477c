// Command microbank regenerates the paper's tables and figures and
// runs ad-hoc simulations of the μbank memory system.
//
// Usage:
//
//	microbank -exp fig8                 # regenerate Fig. 8 (relative IPC grids)
//	microbank -exp all -quick           # every experiment, reduced fidelity
//	microbank -exp run -workload 429.mcf -nw 2 -nb 8 -policy open
//	microbank -exp run -workload 429.mcf -trace out.trace.json -metrics-out out.csv
//	microbank -exp run -workload 429.mcf -check collect   # DRAM timing-protocol sanitizer
//	microbank -exp list                 # list experiments and workloads
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"microbank/internal/check"
	"microbank/internal/config"
	"microbank/internal/experiments"
	"microbank/internal/obs"
	"microbank/internal/sim"
	"microbank/internal/stats"
	"microbank/internal/store"
	"microbank/internal/system"
	"microbank/internal/workload"
)

func main() {
	var (
		exp    = flag.String("exp", "list", "experiment id: fig1 table1 fig6a fig6b fig8 fig9 fig10 fig11 fig12 fig13 fig14 table2 headline ablations qos related all run list")
		instr  = flag.Uint64("instr", 0, "per-core instruction budget (0 = default)")
		cores  = flag.Int("cores", 0, "cores for multicore workloads (0 = default)")
		quick  = flag.Bool("quick", false, "reduced workload sets and budgets")
		seed   = flag.Int64("seed", 42, "simulation seed")
		jobs   = flag.Int("j", 0, "parallel simulations per sweep (0 = all cores); output is identical at any -j")
		beta   = flag.Float64("beta", 1.0, "activates per column access for fig1/fig6b")
		wl     = flag.String("workload", "429.mcf", "workload for -exp run")
		nw     = flag.Int("nw", 1, "wordline partitions for -exp run")
		nb     = flag.Int("nb", 1, "bitline partitions for -exp run")
		iface  = flag.String("interface", "LPDDR-TSI", "DDR3-PCB | DDR3-TSI | LPDDR-TSI")
		policy = flag.String("policy", "open", "page policy: open close minimalist local global tournament perfect")
		ibit   = flag.Int("ib", 13, "interleave base bit (6 = cache line, 13 = row)")
		sched  = flag.String("sched", "parbs", "memory scheduler for -exp run: frfcfs parbs fcfs")
		salp   = flag.Int("salp", 0, "SALP subarrays per bank for -exp run (0 = off, power of two)")
		budget = flag.Int("bank-budget", 0, "per-(thread,bank) column-access budget per regulator epoch for -exp run (0 = regulator off)")
		svgOut = flag.String("svg", "", "also write grid experiments (fig6a/fig6b/fig8/fig9) as SVG heatmaps with this filename prefix")

		checkFlag  = flag.String("check", "off", "timing-protocol sanitizer for -exp run: off | collect | fatal")
		traceOut   = flag.String("trace", "", "write DRAM commands of -exp run as Chrome trace-event JSON (open in Perfetto)")
		metricsOut = flag.String("metrics-out", "", "write epoch time-series metrics of -exp run to this file (.json, or CSV otherwise)")
		epochCyc   = flag.Uint64("epoch", 2500, "epoch length for -metrics-out sampling, in core cycles")
		pprofOut   = flag.String("pprof", "", "write a CPU profile of the whole invocation to this file")
		reportOut  = flag.String("report", "", "write a machine-readable JSON run report to this file")
		progress   = flag.Bool("progress", false, "print a sweep progress heartbeat to stderr")

		timeout     = flag.Duration("timeout", 0, "per-run wall-clock deadline (0 = none); exceeded runs fail with a diagnostic snapshot")
		eventBudget = flag.Uint64("event-budget", 0, "per-run simulation event budget (0 = none)")
		failMode    = flag.String("fail-mode", "fail-fast", "sweep reaction to a failed cell: fail-fast | collect (run every cell, report the failures, exit nonzero)")
		storeDir    = flag.String("store", "", "content-addressed result store directory: completed sweep cells are committed to it (checksummed, atomic) keyed by model and run spec, and replayed byte-identically by any later run — rerunning against the same store resumes a campaign")
		injectSpec  = flag.String("inject", "", "deterministic fault injection for testing, e.g. panic:1,timeout:3 (kinds: panic error timeout budget)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlagScope(*exp, set); err != nil {
		fmt.Fprintln(os.Stderr, "microbank:", err)
		os.Exit(2)
	}

	o := experiments.Options{Instr: *instr, Cores: *cores, Quick: *quick, Seed: *seed,
		Parallelism: *jobs, Exp: *exp}
	if *progress {
		o.Progress = heartbeat()
	}
	svgPrefix = *svgOut

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the campaign
	// context — sweep workers stop taking cells, in-flight runs abort at
	// their next watchdog check, and the run exits through the normal
	// error path (the store keeps every completed cell; report/
	// trace/metrics artifacts flush as valid JSON marked aborted). A
	// second signal force-quits.
	ctx, stopRun := context.WithCancel(context.Background())
	o.Ctx = ctx
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "microbank: %s: checkpointing and flushing aborted artifacts (signal again to force quit)\n", s)
		stopRun()
		s = <-sigc
		fmt.Fprintf(os.Stderr, "microbank: %s: forced exit\n", s)
		os.Exit(130)
	}()

	res, err := buildResilience(*failMode, *timeout, *eventBudget, *storeDir, *injectSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "microbank:", err)
		os.Exit(1)
	}
	o.Res = res

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "microbank:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "microbank:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var report *experiments.Report
	if *reportOut != "" {
		report = experiments.NewReport(*exp, o)
	}
	oflags := obsFlags{trace: *traceOut, metrics: *metricsOut, epochCycles: *epochCyc, check: *checkFlag}
	rflags := runFlags{wl: *wl, nw: *nw, nb: *nb, iface: *iface, policy: *policy,
		ibit: *ibit, sched: *sched, salp: *salp, budget: *budget}

	start := time.Now()
	err = dispatch(*exp, o, report, oflags, *beta, rflags)
	if report != nil {
		report.AddFailures(res.Log)
	}
	summarizeFailures(res)
	if res.Store != nil {
		st := res.Store.Stats()
		fmt.Fprintf(os.Stderr, "microbank: store: %d hit(s), %d miss(es), %d new entr(y/ies), %d quarantined\n",
			st.Hits, st.Misses, st.Puts, st.Quarantined)
	}
	if report != nil {
		// A failed run still flushes its report as valid JSON, marked
		// aborted, so post-mortems can load partial results. Collect-mode
		// cell failures are not an abort: that run completed with partial
		// results and its report carries Failures instead.
		if err != nil {
			report.Aborted = err.Error()
		}
		if werr := report.WriteFile(*reportOut); werr != nil {
			if err == nil {
				err = werr
			}
		} else if err == nil {
			fmt.Println("wrote", *reportOut)
		} else {
			// stdout carries only deterministic output; abort notices go
			// to stderr.
			fmt.Fprintf(os.Stderr, "microbank: wrote %s (aborted)\n", *reportOut)
		}
	}
	if err == nil {
		err = res.Err() // collect mode: failures mean a nonzero exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "microbank:", err)
		if *pprofOut != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
	fmt.Printf("(elapsed %s)\n", time.Since(start).Round(time.Millisecond))
}

// buildResilience turns the resilience flags into the process's one
// *experiments.Resilience: every experiment of the invocation (all of
// them under -exp all) is one campaign, so a run spec simulated by one
// experiment replays from memory in the next.
func buildResilience(failMode string, timeout time.Duration,
	eventBudget uint64, storeDir, inject string) (*experiments.Resilience, error) {
	res := &experiments.Resilience{Timeout: timeout, EventBudget: eventBudget}
	switch failMode {
	case "fail-fast":
	case "collect":
		res.Collect = true
	default:
		hint := "fail-fast | collect"
		if failMode == "degrade" {
			hint = "use collect: it writes the same report and exits nonzero"
		}
		return nil, fmt.Errorf("unknown fail mode %q (%s)", failMode, hint)
	}
	if err := res.SetInject(inject); err != nil {
		return nil, err
	}
	if storeDir != "" {
		s, err := store.Open(storeDir, nil)
		if err != nil {
			return nil, err
		}
		res.Store = s
		if st := s.Stats(); st.Quarantined > 0 {
			fmt.Fprintf(os.Stderr, "microbank: store: recovery quarantined %d corrupt entr(y/ies); they will be re-simulated\n",
				st.Quarantined)
		}
	}
	return res, nil
}

// runOnly names the flags only -exp run reads; sweepOnly the flags only
// the simulating sweeps read; simOnly the flags every simulation reads,
// sweep or -exp run; figureOnly the flags only some of the other
// experiments read. analytic names the experiments that simulate
// nothing.
var (
	runOnly = []string{"workload", "nw", "nb", "interface", "policy", "ib", "sched", "salp",
		"bank-budget", "check", "trace", "metrics-out", "epoch"}
	sweepOnly  = []string{"quick", "cores", "j", "progress", "fail-mode", "store", "inject"}
	simOnly    = []string{"instr", "seed", "timeout", "event-budget"}
	figureOnly = []string{"svg", "beta"}
	analytic   = map[string]bool{"table1": true, "table2": true, "fig1": true, "fig6a": true,
		"fig6b": true, "fig11": true, "list": true}
)

// checkFlagScope refuses a flag set on the command line that the chosen
// experiment never reads, so a misplaced flag fails loudly instead of
// silently doing nothing. set holds the names of the flags given. It
// runs before any flag takes effect, so a refused -store creates no
// directory.
func checkFlagScope(exp string, set map[string]bool) error {
	refused := [][]string{runOnly}
	switch {
	case exp == "run":
		refused = [][]string{sweepOnly, figureOnly}
	case analytic[exp]:
		refused = append(refused, sweepOnly, simOnly)
	}
	for _, names := range refused {
		for _, name := range names {
			if set[name] {
				return fmt.Errorf("-%s does not apply to -exp %s", name, exp)
			}
		}
	}
	return nil
}

// summarizeFailures prints the campaign's failure records to stderr
// (stdout stays reserved for the deterministic tables).
func summarizeFailures(res *experiments.Resilience) {
	if res.Log == nil {
		return
	}
	fails := res.Log.Failures()
	if len(fails) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "microbank: %d sweep cell(s) failed:\n", len(fails))
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "microbank:   sweep %d cell %d [%s] %s: %s\n",
			f.Sweep, f.Cell, f.Kind, f.Digest, f.Error)
	}
}

// heartbeat returns a Progress callback that prints a rate-limited
// completion count to stderr (stdout stays reserved for tables). The
// ~10 Hz cap keeps large fast sweeps from emitting thousands of lines;
// each sweep's final 100% line always prints.
func heartbeat() func(done, total int) {
	return experiments.ThrottleProgress(100*time.Millisecond, func(done, total int) {
		fmt.Fprintf(os.Stderr, "microbank: %d/%d runs\n", done, total)
	})
}

// obsFlags carries the -exp run observability options.
type obsFlags struct {
	trace       string
	metrics     string
	epochCycles uint64
	check       string
}

// runFlags carries the -exp run configuration options.
type runFlags struct {
	wl     string
	nw, nb int
	iface  string
	policy string
	ibit   int
	sched  string // frfcfs | parbs | fcfs
	salp   int    // SALP subarrays per bank (0 = off)
	budget int    // regulator per-(thread,bank) budget (0 = off)
}

// svgPrefix, when set, makes grid experiments also emit SVG heatmaps.
var svgPrefix string

// emit prints a table and mirrors it into the report when one is open.
func emit(report *experiments.Report, t *stats.Table) {
	fmt.Println(t)
	if report != nil {
		report.AddTable(t)
	}
}

// emitGrid prints a grid table, mirrors grid and table into the report,
// and optionally writes the SVG heatmap.
func emitGrid(report *experiments.Report, g *experiments.GridData, name, title string) error {
	emit(report, g.Table(title))
	if report != nil {
		report.AddGrid(g)
	}
	if svgPrefix == "" {
		return nil
	}
	path := svgPrefix + name + ".svg"
	if err := os.WriteFile(path, []byte(g.SVG(title)), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if report != nil {
		report.Artifact("svg:"+name, path)
	}
	return nil
}

func dispatch(exp string, o experiments.Options, report *experiments.Report, of obsFlags,
	beta float64, rf runFlags) error {
	switch exp {
	case "list":
		fmt.Println("experiments: fig1 table1 fig6a fig6b fig8 fig9 fig10 fig11 fig12 fig13 fig14 table2 headline ablations qos related all run")
		fmt.Println("workloads:", strings.Join(workload.Names(), " "))
		fmt.Println("workload sets: spec-high spec-all mix-high mix-blend")
		return nil
	case "table1":
		emit(report, experiments.Table1())
	case "table2":
		emit(report, experiments.Table2())
	case "fig1":
		emit(report, experiments.Fig1(beta, 8))
	case "fig6a":
		if err := emitGrid(report, experiments.Fig6a(), "fig6a", "Fig. 6a: relative DRAM die area"); err != nil {
			return err
		}
	case "fig6b":
		emit(report, experiments.Fig6b(beta).Table(fmt.Sprintf("Fig. 6b: relative energy per read, beta=%.1f", beta)))
		emit(report, experiments.Fig6b(0.1).Table("Fig. 6b: relative energy per read, beta=0.1"))
	case "fig8", "fig9":
		ipc, edp, err := experiments.Fig8And9(o)
		if err != nil {
			return err
		}
		for i := range ipc {
			if exp == "fig8" {
				if err := emitGrid(report, ipc[i], "fig8-"+ipc[i].Workload, "Fig. 8: relative IPC, "+ipc[i].Workload); err != nil {
					return err
				}
			} else {
				if err := emitGrid(report, edp[i], "fig9-"+edp[i].Workload, "Fig. 9: relative 1/EDP, "+edp[i].Workload); err != nil {
					return err
				}
			}
		}
	case "fig10":
		rows, err := experiments.Fig10(o)
		if err != nil {
			return err
		}
		emit(report, experiments.Fig10Table(rows))
	case "fig11":
		emit(report, experiments.Fig11())
	case "fig12":
		rows, err := experiments.Fig12(o)
		if err != nil {
			return err
		}
		emit(report, experiments.Fig12Table(rows))
	case "fig13":
		rows, err := experiments.Fig13(o)
		if err != nil {
			return err
		}
		emit(report, experiments.Fig13Table(rows))
	case "fig14":
		rows, err := experiments.Fig14(o)
		if err != nil {
			return err
		}
		emit(report, experiments.Fig14Table(rows))
	case "headline":
		h, err := experiments.Headline(o)
		if err != nil {
			return err
		}
		emit(report, experiments.HeadlineTable(h))
	case "ablations":
		tb, err := experiments.Ablations(o)
		if err != nil {
			return err
		}
		emit(report, tb)
	case "qos":
		rows, err := experiments.QoSSweep(o)
		if err != nil {
			return err
		}
		emit(report, experiments.QoSTable(rows))
	case "related":
		rows, err := experiments.RelatedWork(o)
		if err != nil {
			return err
		}
		emit(report, experiments.RelatedWorkTable(rows))
	case "all":
		for _, id := range []string{"table1", "table2", "fig1", "fig6a", "fig6b", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "headline", "ablations", "qos", "related"} {
			if err := dispatch(id, o, report, of, beta, rf); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
	case "run":
		return runCustom(o, report, of, rf)
	default:
		return fmt.Errorf("unknown experiment %q (try -exp list)", exp)
	}
	return nil
}

// runGuarded converts the sanitizer's fatal-mode panic into the typed
// error it carries, so a timing violation under -check fatal reports
// cleanly and exits through main's single error path. Any other panic
// propagates — a crash of the simulator itself should still dump its
// stack.
func runGuarded(spec system.Spec) (res system.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			fv, ok := r.(*check.FatalViolation)
			if !ok {
				panic(r)
			}
			err = fv
		}
	}()
	return system.Run(spec)
}

// runCustom executes one ad-hoc configuration and prints a summary,
// attaching the observability layer when -trace / -metrics-out ask
// for it.
func runCustom(o experiments.Options, report *experiments.Report, of obsFlags, rf runFlags) error {
	var iface config.Interface
	switch rf.iface {
	case "DDR3-PCB":
		iface = config.DDR3PCB
	case "DDR3-TSI":
		iface = config.DDR3TSI
	case "LPDDR-TSI":
		iface = config.LPDDRTSI
	default:
		return fmt.Errorf("unknown interface %q", rf.iface)
	}
	policies := map[string]config.PagePolicy{
		"open": config.OpenPage, "close": config.ClosePage, "minimalist": config.MinimalistOpen,
		"local": config.PredLocal, "global": config.PredGlobal,
		"tournament": config.PredTournament, "perfect": config.PredPerfect,
	}
	pol, ok := policies[rf.policy]
	if !ok {
		return fmt.Errorf("unknown policy %q", rf.policy)
	}
	scheds := map[string]config.Scheduler{
		"frfcfs": config.SchedFRFCFS, "parbs": config.SchedPARBS, "fcfs": config.SchedFCFS,
	}
	schedVal, ok := scheds[rf.sched]
	if !ok {
		return fmt.Errorf("unknown scheduler %q (frfcfs | parbs | fcfs)", rf.sched)
	}
	prof, err := workload.Get(rf.wl)
	if err != nil {
		return err
	}
	if o.Instr == 0 {
		o.Instr = 240000
	}
	sys := config.SingleCore(config.MemPreset(iface, rf.nw, rf.nb))
	sys.Ctrl.PagePolicy = pol
	sys.Ctrl.InterleaveBit = rf.ibit
	sys.Ctrl.Scheduler = schedVal
	sys.Ctrl.BankBudget = rf.budget
	sys.Mem.Org.SubarraysPerBank = rf.salp
	if err := sys.Validate(); err != nil {
		return err
	}
	spec := system.UniformSpec(sys, prof, o.Instr, o.Seed)
	spec.WarmupInstr = o.Instr / 2
	spec.Limits = o.Res.RunLimits(o.Ctx)

	var (
		observer *obs.Observer
		sampler  *obs.Sampler
		tracer   *obs.ChromeTracer
		checker  *check.Checker
	)
	if of.trace != "" || of.metrics != "" || of.check != "off" {
		observer = obs.NewObserver()
		if of.metrics != "" {
			if of.epochCycles == 0 {
				return fmt.Errorf("-epoch must be positive")
			}
			sampler = observer.EnableSampling(sim.Time(of.epochCycles) * sys.CoreClock().Period())
		}
		if of.trace != "" {
			tracer = observer.EnableChromeTrace()
		}
		switch of.check {
		case "off":
		case "collect":
			checker = check.New(sys.Mem, check.ModeCollect)
			observer.AddTracer(checker)
		case "fatal":
			checker = check.New(sys.Mem, check.ModeFatal)
			observer.AddTracer(checker)
		default:
			return fmt.Errorf("unknown -check mode %q (off | collect | fatal)", of.check)
		}
		spec.Obs = observer
	}

	res, err := runGuarded(spec)
	if err != nil {
		flushAborted(err, tracer, sampler, of, report)
		return err
	}
	t := stats.NewTable(fmt.Sprintf("%s on %s (%d,%d), %s page, iB=%d",
		rf.wl, rf.iface, rf.nw, rf.nb, rf.policy, rf.ibit), "Metric", "Value")
	t.AddRow("IPC", res.IPC)
	t.AddRow("MAPKI", res.MAPKI)
	t.AddRow("Row-buffer hit rate", res.RowHitRate)
	t.AddRow("Avg read latency (ns)", res.AvgReadLatencyNS)
	t.AddRow("L1 / L2 hit rate", fmt.Sprintf("%.3f / %.3f", res.L1HitRate, res.L2HitRate))
	t.AddRow("Predictor hit rate", res.PredHitRate)
	t.AddRow("Processor power (W)", res.Breakdown.ProcessorW())
	t.AddRow("ACT/PRE power (W)", res.Breakdown.ActPreW())
	t.AddRow("DRAM static power (W)", res.Breakdown.DRAMStaticW())
	t.AddRow("RD/WR power (W)", res.Breakdown.RdWrW())
	t.AddRow("I/O power (W)", res.Breakdown.IOW())
	t.AddRow("EDP (J·s)", fmt.Sprintf("%.3e", res.Breakdown.EDPJs()))
	// QoS rows only when a QoS knob is active, so default output is
	// unchanged.
	if rf.salp > 0 || rf.budget > 0 {
		t.AddRow("p99 latency (ns, whole run)", res.LatP99NS)
		t.AddRow("Max latency (ns, whole run)", res.LatMaxNS)
	}
	emit(report, t)

	if report != nil {
		report.SetMetric("ipc", res.IPC)
		report.SetMetric("mapki", res.MAPKI)
		report.SetMetric("row_hit_rate", res.RowHitRate)
		report.SetMetric("avg_read_latency_ns", res.AvgReadLatencyNS)
		report.SetMetric("pred_hit_rate", res.PredHitRate)
		report.SetMetric("edp_js", res.Breakdown.EDPJs())
	}

	if tracer != nil {
		n, werr := writeTrace(tracer, of.trace, report)
		if werr != nil {
			return werr
		}
		fmt.Printf("wrote %s (%d DRAM commands, %d bytes)\n", of.trace, tracer.Len(), n)
	}
	if sampler != nil {
		if werr := writeMetricsFile(sampler, of.metrics, report); werr != nil {
			return werr
		}
		fmt.Printf("wrote %s (%d epochs, %d series)\n", of.metrics, sampler.Epochs(), len(sampler.Names()))
	}
	// Checker results go to the console only, never into the report:
	// reports must stay byte-identical with and without observability.
	if checker != nil {
		if err := checker.Err(); err != nil {
			for _, v := range checker.Violations() {
				fmt.Fprintln(os.Stderr, "microbank:", v)
			}
			return err
		}
		fmt.Printf("protocol check: %d DRAM commands, 0 violations\n", checker.Commands())
	}
	return nil
}

// writeTrace writes the Chrome trace artifact and records it in the
// report, returning the byte count for the caller's status line.
func writeTrace(tracer *obs.ChromeTracer, path string, report *experiments.Report) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, werr := tracer.WriteTo(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return n, fmt.Errorf("writing %s: %w", path, werr)
	}
	if report != nil {
		report.Artifact("trace", path)
	}
	return n, nil
}

// writeMetricsFile writes the sampler's epoch time series (.json, or
// CSV otherwise) and records it in the report.
func writeMetricsFile(sampler *obs.Sampler, path string, report *experiments.Report) error {
	var data []byte
	if strings.HasSuffix(path, ".json") {
		b, err := sampler.JSON()
		if err != nil {
			return err
		}
		data = b
	} else {
		data = []byte(sampler.CSV())
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if report != nil {
		report.Artifact("metrics", path)
	}
	return nil
}

// flushAborted finalizes the partial artifacts of a run killed by a
// panic, tripped limit, or fatal protocol violation: the Chrome trace
// and epoch metrics collected so far are still written — the trace as
// valid JSON carrying an "aborted" marker. Notices go to stderr; stdout
// stays reserved for the output of completed runs.
func flushAborted(err error, tracer *obs.ChromeTracer, sampler *obs.Sampler,
	of obsFlags, report *experiments.Report) {
	if tracer != nil {
		tracer.Aborted = err.Error()
		if _, werr := writeTrace(tracer, of.trace, report); werr != nil {
			fmt.Fprintln(os.Stderr, "microbank:", werr)
		} else {
			fmt.Fprintf(os.Stderr, "microbank: wrote %s (aborted, %d events)\n",
				of.trace, tracer.Len())
		}
	}
	if sampler != nil {
		if werr := writeMetricsFile(sampler, of.metrics, report); werr != nil {
			fmt.Fprintln(os.Stderr, "microbank:", werr)
		} else {
			fmt.Fprintf(os.Stderr, "microbank: wrote %s (aborted, %d epochs)\n",
				of.metrics, sampler.Epochs())
		}
	}
}
