package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
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
		res := &Resilience{Mode: parallel.FailDegrade}
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
// cell completes under degrade, returns the healthy results, and
// records both failures with their diagnostics.
func TestDegradedSweepAcceptance(t *testing.T) {
	res := &Resilience{Mode: parallel.FailDegrade}
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
// names the benchmark and the (nW,nB) configuration it ran.
func TestGridFailureNamesCell(t *testing.T) {
	res := &Resilience{Mode: parallel.FailDegrade}
	if err := res.SetInject("error:3"); err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Instr: 4000, Parallelism: 2, Res: res}.withDefaults()
	_, failed, err := runGridCells("429.mcf", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || !failed[[2]int{8, 1}] {
		t.Fatalf("failed cells = %v, want only (8,1)", failed)
	}
	fails := res.Log.Failures()
	if len(fails) != 1 || !strings.Contains(fails[0].Digest, "429.mcf (8,1)") {
		t.Fatalf("failure records = %+v, want one whose digest names 429.mcf (8,1)", fails)
	}
}

// TestProtocolViolationIsolated runs a sweep where one cell panics with
// the sanitizer's fatal-mode violation: siblings must complete and the
// failure must be classified as a protocol violation.
func TestProtocolViolationIsolated(t *testing.T) {
	res := &Resilience{Mode: parallel.FailDegrade}
	o := resOpts(res)
	jobs := []int{0, 1, 2, 3}
	results, failed, err := mapRuns(o, jobs, func(j int) system.Spec {
		if j == 2 {
			panic(&check.FatalViolation{V: check.Violation{
				Rule: check.RuleTRCD, Cmd: obs.CmdRD, At: 100, Earliest: 200}})
		}
		return singleSpec("429.mcf", config.LPDDRTSI, 1, 1, nil, o.withDefaults())
	})
	if err != nil {
		t.Fatalf("degraded sweep errored: %v", err)
	}
	for i, r := range results {
		if i != 2 && r.IPC <= 0 {
			t.Fatalf("sibling %d lost its result: %+v", i, r)
		}
	}
	if !failed[2] || failed[0] || failed[1] || failed[3] {
		t.Fatalf("failed mask = %v, want only cell 2", failed)
	}
	fails := res.Log.Failures()
	if len(fails) != 1 || fails[0].Kind != FailKindProtocol {
		t.Fatalf("failures = %+v, want one protocol violation", fails)
	}
	if !strings.Contains(fails[0].Error, "tRCD") {
		t.Fatalf("protocol failure lost the violation text: %q", fails[0].Error)
	}
}

// TestCollectModeFailsCampaign: collect runs everything like degrade
// but the campaign-level verdict is an error.
func TestCollectModeFailsCampaign(t *testing.T) {
	res := &Resilience{Mode: parallel.FailCollect}
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
	res2 := &Resilience{Mode: parallel.FailDegrade}
	if err := res2.SetInject("error:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := Headline(resOpts(res2)); err != nil {
		t.Fatal(err)
	}
	if err := res2.Err(); err != nil {
		t.Fatalf("degrade-mode verdict = %v, want nil", err)
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
	res := &Resilience{Mode: parallel.FailDegrade,
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
		results, failed, err := mapRuns(o, []int64{1}, func(seed int64) system.Spec {
			spec := tinySpec(seed)
			spec.InstrPerCore = o.Instr
			tc.mutate(&spec)
			return spec
		})
		var te *parallel.TaskError
		if !errors.As(err, &te) || te.Index != 0 || te.Panicked {
			t.Fatalf("%s: err = %v (%T), want a *parallel.TaskError for cell 0", tc.name, err, err)
		}
		if !tc.check(err) {
			t.Fatalf("%s: err = %v does not reach the run's error", tc.name, err)
		}
		if results != nil || failed != nil {
			t.Fatalf("%s: fail-fast sweep returned results %v, mask %v", tc.name, results, failed)
		}
	}
}
