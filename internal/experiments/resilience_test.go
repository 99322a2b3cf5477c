package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"microbank/internal/check"
	"microbank/internal/check/golden"
	"microbank/internal/config"
	"microbank/internal/obs"
	"microbank/internal/parallel"
	"microbank/internal/system"
)

// resOpts is the small, fast campaign all resilience tests use: the
// quick headline sweep (3 benchmarks × 2 runs = 6 cells).
func resOpts(r *Resilience) Options {
	return Options{Quick: true, Instr: 6000, Parallelism: 2, Res: r}
}

// headlineReport runs the headline experiment and renders the report
// the CLI would write, failures included.
func headlineReport(t *testing.T, o Options) []byte {
	t.Helper()
	h, err := Headline(o)
	if err != nil {
		t.Fatalf("Headline: %v", err)
	}
	rep := NewReport("headline", o)
	rep.SetMetric("ipc_gain", h.IPCGain)
	rep.SetMetric("inv_edp_gain", h.InvEDPGain)
	if o.Res != nil {
		rep.AddFailures(o.Res.Log)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepWidthResilience drives the fault-injection sweep at several
// sweep widths while an injected limit trips. The degraded report —
// healthy gains plus the failure record with its diagnostic snapshot —
// must be byte-identical at every width: cells carry explicit seeds,
// results reduce in job order, and the trip point depends only on
// simulation state. Under -race this is the sweep pool's concurrency
// exercise on the resilient path.
func TestSweepWidthResilience(t *testing.T) {
	mk := func(width int) []byte {
		res := &Resilience{Collect: true}
		if err := res.SetInject("timeout:3"); err != nil {
			t.Fatal(err)
		}
		o := resOpts(res)
		o.Parallelism = width
		h, err := Headline(o)
		if err != nil {
			t.Fatalf("width %d: Headline: %v", width, err)
		}
		// The report header records the width; render every run under
		// the same header so only the results are compared.
		rep := NewReport("headline", resOpts(res))
		rep.SetMetric("ipc_gain", h.IPCGain)
		rep.SetMetric("inv_edp_gain", h.InvEDPGain)
		rep.AddFailures(res.Log)
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := mk(1)
	if !bytes.Contains(want, []byte(`"kind": "deadline"`)) {
		t.Fatalf("injected timeout left no deadline failure in the report:\n%s", want)
	}
	for _, w := range []int{4, runtime.NumCPU() + 1} {
		if got := mk(w); !bytes.Equal(got, want) {
			t.Fatalf("sweep width %d report drifted from width 1:\n%s", w, golden.Diff(want, got))
		}
	}
}

// TestDegradedSweepAcceptance is the issue's acceptance scenario: a
// sweep with one injected panicking cell and one deadline-exceeding
// cell completes under collect, returns the healthy results, and
// records both failures with their diagnostics.
func TestDegradedSweepAcceptance(t *testing.T) {
	res := &Resilience{Collect: true}
	if err := res.SetInject("panic:1,timeout:3"); err != nil {
		t.Fatal(err)
	}
	o := resOpts(res)
	h, err := Headline(o)
	if err != nil {
		t.Fatalf("degraded sweep did not complete: %v", err)
	}
	if h.IPCGain <= 0 || h.InvEDPGain <= 0 {
		t.Fatalf("healthy pair produced no result: %+v", h)
	}
	fails := res.Log.Failures()
	if len(fails) != 2 {
		t.Fatalf("recorded %d failures, want 2: %+v", len(fails), fails)
	}
	pan, dl := fails[0], fails[1]
	if pan.Kind != FailKindPanic || pan.Cell != 1 {
		t.Fatalf("failure 0 = %+v, want panic at cell 1", pan)
	}
	if pan.Stack == "" || strings.Contains(pan.Stack, " +0x") || strings.Contains(pan.Stack, "goroutine ") {
		t.Fatalf("panic stack missing or not cleaned:\n%s", pan.Stack)
	}
	if dl.Kind != system.LimitDeadline || dl.Cell != 3 {
		t.Fatalf("failure 1 = %+v, want deadline at cell 3", dl)
	}
	if dl.Diag == nil || dl.Diag.Events == 0 {
		t.Fatalf("deadline failure carries no diagnostic snapshot: %+v", dl)
	}
	if pan.Digest == "" || dl.Digest == "" {
		t.Fatalf("failures missing config digests: %+v", fails)
	}
}

// TestResumeByteIdenticalReport interrupts a store-backed campaign
// (deleting some of its committed entries, as a kill before their
// commit would have left it), then reruns it against the same store:
// the final report — gains, failure records, everything — must be
// byte-identical to the uninterrupted run's. The surviving entries are
// served, and the injected cells, never committed, fail again.
func TestResumeByteIdenticalReport(t *testing.T) {
	dir := t.TempDir()
	newRes := func() *Resilience {
		r := storeRes(t, dir, nil, nil)
		if err := r.SetInject("panic:1,timeout:3"); err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := headlineReport(t, resOpts(newRes()))
	entries, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("store holds %d entries, want the 4 healthy cells", len(entries))
	}
	for _, p := range entries[:2] {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	rerun := newRes()
	got := headlineReport(t, resOpts(rerun))
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%s", golden.Diff(want, got))
	}
	st := rerun.Store.Stats()
	if st.Hits != 2 || st.Misses != 4 || st.Puts != 2 {
		t.Fatalf("rerun store stats = %+v, want 2 hits (the surviving entries), 4 misses, 2 puts", st)
	}
	fails := rerun.Log.Failures()
	if len(fails) != 2 || fails[0].Kind != FailKindPanic || fails[1].Kind != system.LimitDeadline {
		t.Fatalf("rerun failures = %+v, want the injected panic and deadline again", fails)
	}
}

// TestGridFailureNamesCell: a failed partition-grid cell's record
// names the benchmark and the (nW,nB) configuration it ran, and the
// cell is the only one left without a result.
func TestGridFailureNamesCell(t *testing.T) {
	res := &Resilience{Collect: true}
	if err := res.SetInject("error:3"); err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Instr: 4000, Parallelism: 2, Res: res}.withDefaults()
	p := gridPlan("429.mcf", o)
	if err := mapRuns(o, p); err != nil {
		t.Fatal(err)
	}
	for i, c := range p {
		if (c.res == nil) != (i == 3) || i == 3 && c.key != [2]int{8, 1} {
			t.Fatalf("cell %d %v: result %v, want only cell 3 (8,1) failed", i, c.key, c.res)
		}
	}
	fails := res.Log.Failures()
	if len(fails) != 1 || !strings.Contains(fails[0].Digest, "429.mcf (8,1)") {
		t.Fatalf("failure records = %+v, want one whose digest names 429.mcf (8,1)", fails)
	}
}

// TestDegradedFig8AveragesHealthyBenchmarks: a degraded spec-high
// panel averages each point over the benchmarks that measured it. Cell
// 56 (470.lbm at (2,2)) and cell 75 (462.libquantum's (1,1) base) fail:
// libquantum then contributes nowhere, (2,2) is 429.mcf alone, every
// other point is the mean of 429.mcf and 470.lbm, and the panels that
// lost nothing are bitwise the healthy ones.
func TestDegradedFig8AveragesHealthyBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick Fig. 8 sweep twice")
	}
	o := Options{Quick: true, Instr: 4000, Parallelism: 2}
	healthy, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	r := &Resilience{Collect: true}
	if err := r.SetInject("error:56,error:75"); err != nil {
		t.Fatal(err)
	}
	o.Res = r
	got, err := Fig8(o)
	if err != nil {
		t.Fatalf("degraded Fig8: %v", err)
	}
	fails := r.Log.Failures()
	if len(fails) != 2 || fails[0].Sweep != 2 || fails[0].Cell != 6 || fails[1].Sweep != 3 || fails[1].Cell != 0 {
		t.Fatalf("failures = %+v, want sweep 2 cell 6 and sweep 3 cell 0", fails)
	}
	for _, i := range []int{0, 2} {
		if !reflect.DeepEqual(got[i], healthy[i]) {
			t.Fatalf("%s panel lost no cell but differs from the healthy sweep:\ngot  %v\nwant %v",
				Fig8Workloads[i], got[i], healthy[i])
		}
	}
	lbm := gridPlan("470.lbm", o.withDefaults())
	if err := mapRuns(Options{Parallelism: 2}, lbm); err != nil {
		t.Fatal(err)
	}
	mcf, high := healthy[0].Rel, got[1]
	if high.Missing != nil {
		t.Fatalf("spec-high marks %v missing; every point kept a contributor", high.Missing)
	}
	base := lbm[0].res.IPC
	for _, c := range lbm {
		k := c.key.([2]int)
		v, want := high.Rel[k], mcf[k]
		if k != [2]int{2, 2} {
			want = (mcf[k] + c.res.IPC/base) / 2
		}
		if math.Abs(v-want) > 1e-12*math.Abs(want) {
			t.Fatalf("spec-high %v = %v, want %v", k, v, want)
		}
	}
	if len(high.Rel) != len(Axis)*len(Axis) || high.Rel[[2]int{2, 2}] != mcf[[2]int{2, 2}] {
		t.Fatalf("spec-high (2,2) = %v over %d points, want 429.mcf's %v over all 25",
			high.Rel[[2]int{2, 2}], len(high.Rel), mcf[[2]int{2, 2}])
	}
}

// TestProtocolViolationIsolated runs a sweep where one cell panics with
// the sanitizer's fatal-mode violation: siblings must complete and the
// failure must be classified as a protocol violation.
func TestProtocolViolationIsolated(t *testing.T) {
	res := &Resilience{Collect: true}
	o := resOpts(res)
	var p plan
	for j := 0; j < 4; j++ {
		p = append(p, cell{key: j, spec: func() system.Spec {
			if j == 2 {
				panic(&check.FatalViolation{V: check.Violation{
					Rule: check.RuleTRCD, Cmd: obs.CmdRD, At: 100, Earliest: 200}})
			}
			return specFor("429.mcf", point{iface: config.LPDDRTSI, nW: 1, nB: 1}, o.withDefaults())
		}})
	}
	if err := mapRuns(o, p); err != nil {
		t.Fatalf("degraded sweep errored: %v", err)
	}
	for i, c := range p {
		if (c.res == nil) != (i == 2) || c.res != nil && c.res.IPC <= 0 {
			t.Fatalf("cell %d: result %+v, want only cell 2 failed and its siblings healthy", i, c.res)
		}
	}
	fails := res.Log.Failures()
	if len(fails) != 1 || fails[0].Kind != FailKindProtocol {
		t.Fatalf("failures = %+v, want one protocol violation", fails)
	}
	if !strings.Contains(fails[0].Error, "tRCD") {
		t.Fatalf("protocol failure lost the violation text: %q", fails[0].Error)
	}
}

// TestCollectModeFailsCampaign: collect runs everything and reduces
// the partial results, but the campaign-level verdict is an error; a
// collect campaign without failures has none.
func TestCollectModeFailsCampaign(t *testing.T) {
	res := &Resilience{Collect: true}
	if err := res.SetInject("error:0"); err != nil {
		t.Fatal(err)
	}
	o := resOpts(res)
	if _, err := Headline(o); err != nil {
		t.Fatalf("collect-mode sweep must still complete: %v", err)
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "1 cell(s) failed") {
		t.Fatalf("campaign verdict = %v, want collect-mode failure", err)
	}
	res2 := &Resilience{Collect: true}
	if _, err := Headline(resOpts(res2)); err != nil {
		t.Fatal(err)
	}
	if err := res2.Err(); err != nil {
		t.Fatalf("healthy collect-mode verdict = %v, want nil", err)
	}
}

func TestSetInjectErrors(t *testing.T) {
	for _, bad := range []string{"panic", "frob:1", "panic:-1", "panic:x", "panic:1,",
		"panic:1,error:1", "flaky:0"} {
		r := &Resilience{}
		if err := r.SetInject(bad); err == nil {
			t.Errorf("SetInject(%q) accepted", bad)
		}
	}
	r := &Resilience{}
	if err := r.SetInject("panic:1,timeout:3"); err != nil {
		t.Fatalf("SetInject rejected a valid spec: %v", err)
	}
	if r.inject[3] != "timeout" || r.inject[2] != "" {
		t.Fatalf("inject map wrong: %+v", r.inject)
	}
}

// TestResilientHealthySweepByteIdentical: arming resilience (with
// generous limits) must not change a healthy campaign's results.
func TestResilientHealthySweepByteIdentical(t *testing.T) {
	plain := headlineReport(t, resOpts(nil))
	res := &Resilience{Collect: true,
		Timeout: time.Hour, EventBudget: 1 << 40}
	armed := headlineReport(t, resOpts(res))
	// The reports echo identical options either way; only the failures
	// section could differ, and a healthy run must not have one.
	var a, b map[string]json.RawMessage
	if err := json.Unmarshal(plain, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(armed, &b); err != nil {
		t.Fatal(err)
	}
	if _, ok := b["failures"]; ok {
		t.Fatal("healthy armed run emitted a failures section")
	}
	if string(plain) != string(armed) {
		t.Fatalf("resilience perturbed a healthy campaign:\n--- plain\n%s\n--- armed\n%s", plain, armed)
	}
}

// TestMapRunsNilResFailFast: with no Resilience, a sweep runs
// fail-fast under MapPolicy. A failing cell comes back as a
// *parallel.TaskError naming the cell, and errors.As/Is still reach
// the run's own error through it — here a spec system.Run refuses, and
// a run whose context is cancelled as it starts, which trips the
// watchdog with a *system.LimitError.
func TestMapRunsNilResFailFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		mutate func(*system.Spec)
		check  func(error) bool
	}{
		{"invalid spec", nil, func(s *system.Spec) { s.Profiles = nil },
			func(err error) bool { return strings.Contains(err.Error(), "0 profiles for 1 cores") }},
		{"cancelled run", ctx, func(*system.Spec) { cancel() },
			func(err error) bool {
				var le *system.LimitError
				return errors.As(err, &le) && le.Kind == system.LimitCancelled &&
					errors.Is(err, context.Canceled)
			}},
	} {
		o := Options{Quick: true, Instr: 40000, Parallelism: 1, Ctx: tc.ctx}
		p := plan{{key: 0, spec: func() system.Spec {
			spec := tinySpec(1)
			spec.InstrPerCore = o.Instr
			tc.mutate(&spec)
			return spec
		}}}
		err := mapRuns(o, p)
		var te *parallel.TaskError
		if !errors.As(err, &te) || te.Index != 0 || te.Panicked {
			t.Fatalf("%s: err = %v (%T), want a *parallel.TaskError for cell 0", tc.name, err, err)
		}
		if !tc.check(err) {
			t.Fatalf("%s: err = %v does not reach the run's error", tc.name, err)
		}
		if p[0].res != nil {
			t.Fatalf("%s: fail-fast sweep returned result %+v", tc.name, p[0].res)
		}
	}
}
