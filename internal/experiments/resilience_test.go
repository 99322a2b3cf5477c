package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"microbank/internal/check"
	"microbank/internal/check/golden"
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

// TestResumeByteIdenticalReport interrupts a journaled campaign
// (truncating the journal to a prefix plus a torn trailing line), then
// resumes it and requires the final report — gains, failure records,
// everything — to be byte-identical to an uninterrupted run's.
func TestResumeByteIdenticalReport(t *testing.T) {
	dir := t.TempDir()
	inject := "panic:1,timeout:3"
	newRes := func(j *Journal) *Resilience {
		r := &Resilience{Mode: parallel.FailDegrade, Journal: j}
		if err := r.SetInject(inject); err != nil {
			t.Fatal(err)
		}
		return r
	}
	key := CampaignKey("headline", resOpts(nil))

	// Reference: uninterrupted journaled run.
	jA, err := OpenJournal(filepath.Join(dir, "a.journal"), key, false)
	if err != nil {
		t.Fatal(err)
	}
	want := headlineReport(t, resOpts(newRes(jA)))
	if err := jA.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: complete once, then cut the journal down to the
	// header plus two cells and a torn half-written line.
	pathB := filepath.Join(dir, "b.journal")
	jB, err := OpenJournal(pathB, key, false)
	if err != nil {
		t.Fatal(err)
	}
	headlineReport(t, resOpts(newRes(jB)))
	if err := jB.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	cut := strings.Join(lines[:3], "") + `{"sweep":0,"cel`
	if err := os.WriteFile(pathB, []byte(cut), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume from the truncated journal.
	jB2, err := OpenJournal(pathB, key, true)
	if err != nil {
		t.Fatal(err)
	}
	if jB2.Cells() != 2 {
		t.Fatalf("resumed journal holds %d cells, want the 2 surviving ones", jB2.Cells())
	}
	got := headlineReport(t, resOpts(newRes(jB2)))
	if jB2.Hits() != 2 {
		t.Fatalf("resume served %d cells from the journal, want 2", jB2.Hits())
	}
	if err := jB2.Close(); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%s", golden.Diff(want, got))
	}
}

// TestProtocolViolationIsolated runs a sweep where one cell panics with
// the sanitizer's fatal-mode violation: siblings must complete and the
// failure must be classified as a protocol violation.
func TestProtocolViolationIsolated(t *testing.T) {
	res := &Resilience{Mode: parallel.FailDegrade}
	o := resOpts(res)
	jobs := []int{0, 1, 2, 3}
	results, failed, err := mapRuns(o, jobs, func(_ runEnv, j int) (system.Result, error) {
		if j == 2 {
			panic(&check.FatalViolation{V: check.Violation{
				Rule: check.RuleTRCD, Cmd: obs.CmdRD, At: 100, Earliest: 200}})
		}
		return system.Result{IPC: float64(j) + 1}, nil
	})
	if err != nil {
		t.Fatalf("degraded sweep errored: %v", err)
	}
	for i, r := range results {
		if i != 2 && r.IPC != float64(i)+1 {
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

// TestFlakyCellRetries injects a transient first-attempt failure and
// verifies the retry budget absorbs it.
func TestFlakyCellRetries(t *testing.T) {
	res := &Resilience{Mode: parallel.FailDegrade, Retries: 1}
	if err := res.SetInject("flaky:0"); err != nil {
		t.Fatal(err)
	}
	o := resOpts(res)
	if _, err := Headline(o); err != nil {
		t.Fatalf("Headline: %v", err)
	}
	if n := res.Log.Len(); n != 0 {
		t.Fatalf("flaky cell recorded %d failures despite retry budget", n)
	}
	if res.Log.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", res.Log.Retries())
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
	for _, bad := range []string{"panic", "frob:1", "panic:-1", "panic:x", "panic:1,"} {
		r := &Resilience{}
		if err := r.SetInject(bad); err == nil {
			t.Errorf("SetInject(%q) accepted", bad)
		}
	}
	r := &Resilience{}
	if err := r.SetInject("panic:1,timeout:3,flaky:0"); err != nil {
		t.Fatalf("SetInject rejected a valid spec: %v", err)
	}
	if r.injectionAt(3) != "timeout" || r.injectionAt(2) != "" {
		t.Fatalf("inject map wrong: %+v", r.inject)
	}
}

func TestCampaignKey(t *testing.T) {
	a := CampaignKey("headline", Options{Quick: true, Instr: 6000, Parallelism: 2})
	b := CampaignKey("headline", Options{Quick: true, Instr: 6000, Parallelism: 8})
	if a != b {
		t.Fatalf("parallelism leaked into the campaign key: %q vs %q", a, b)
	}
	c := CampaignKey("headline", Options{Quick: true, Instr: 7000, Parallelism: 2})
	if a == c {
		t.Fatalf("instruction budget not in the campaign key: %q", a)
	}
	want := "headline|schema=1|quick=true|instr=6000|cores=16|seed=42"
	if a != want {
		t.Fatalf("CampaignKey = %q, want %q", a, want)
	}
}

func TestJournalKeyMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := OpenJournal(path, "campaign-a", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record(0, 0, system.Result{IPC: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, "campaign-b", true); err == nil ||
		!strings.Contains(err.Error(), "campaign-a") {
		t.Fatalf("resume with wrong key = %v, want key-mismatch error", err)
	}
	// The right key resumes fine.
	j2, err := OpenJournal(path, "campaign-a", true)
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := j2.lookup(0, 0); !ok || res.IPC != 1 {
		t.Fatalf("resumed cell = %+v/%v, want the recorded result", res, ok)
	}
	j2.Close()
}

func TestJournalNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, "k", true); err == nil {
		t.Fatal("resume from a non-journal file succeeded")
	}
}

func TestJournalResumeFresh(t *testing.T) {
	// -resume with no existing journal starts a fresh campaign.
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := OpenJournal(path, "k", true)
	if err != nil {
		t.Fatal(err)
	}
	if j.Cells() != 0 {
		t.Fatalf("fresh journal holds %d cells", j.Cells())
	}
	j.Close()
}

// TestResilientHealthySweepByteIdentical: arming resilience (with
// generous limits) must not change a healthy campaign's results.
func TestResilientHealthySweepByteIdentical(t *testing.T) {
	plain := headlineReport(t, resOpts(nil))
	res := &Resilience{Mode: parallel.FailDegrade, Retries: 2,
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
