package system

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"microbank/internal/obs"
)

func limitErr(t *testing.T, err error, kind string) *LimitError {
	t.Helper()
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v (%T), want *LimitError", err, err)
	}
	if le.Kind != kind {
		t.Fatalf("limit kind = %q, want %q: %v", le.Kind, kind, le)
	}
	return le
}

func TestEventBudgetTripsDeterministically(t *testing.T) {
	run := func() *LimitError {
		spec := singleSpec("429.mcf", 1, 1, 20000)
		spec.Limits = &Limits{EventBudget: 5000, CheckEvents: 256}
		_, err := Run(spec)
		return limitErr(t, err, LimitEventBudget)
	}
	a, b := run(), run()
	// The budget trips at a watchdog check, so the snapshot is pure
	// simulation state — identical across runs, which is what lets a
	// rerun reproduce a budget failure's record byte-for-byte.
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("budget-trip errors differ:\n%s\n%s", aj, bj)
	}
	if a.Diag.Events < 5000 || a.Diag.Events >= 5000+256 {
		t.Fatalf("tripped at %d events, want within one 256-event window past 5000", a.Diag.Events)
	}
	if a.Diag.Cores != 1 || a.Diag.CoresFinished != 0 || len(a.Diag.CtrlQueueLens) == 0 {
		t.Fatalf("diagnostic snapshot incomplete: %+v", a.Diag)
	}
	if len(a.Diag.CoreRetired) != 1 {
		t.Fatalf("per-core retired counts missing: %+v", a.Diag)
	}
}

func TestWallClockDeadlineTrips(t *testing.T) {
	spec := singleSpec("429.mcf", 1, 1, 20000)
	// A 1ns deadline is already past at the first check, so the trip
	// point (and therefore the whole error) is deterministic.
	spec.Limits = &Limits{WallClock: time.Nanosecond, CheckEvents: 256}
	_, err := Run(spec)
	le := limitErr(t, err, LimitDeadline)
	if le.Diag.Events != 256 {
		t.Fatalf("deadline tripped at %d events, want the first check at 256", le.Diag.Events)
	}
	if le.Msg != "wall-clock deadline 1ns exceeded" {
		t.Fatalf("nondeterministic or unexpected message: %q", le.Msg)
	}
}

func TestContextCancellationStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := singleSpec("429.mcf", 1, 1, 20000)
	spec.Limits = &Limits{Ctx: ctx, CheckEvents: 256}
	_, err := Run(spec)
	limitErr(t, err, LimitCancelled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled LimitError does not match context.Canceled: %v", err)
	}
}

func TestLimitsDoNotPerturbResults(t *testing.T) {
	spec := singleSpec("429.mcf", 1, 1, 8000)
	base, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Generous limits that never trip: the run must complete with
	// bit-identical results (the watchdog only observes).
	bounded := singleSpec("429.mcf", 1, 1, 8000)
	bounded.Limits = &Limits{
		Ctx:         context.Background(),
		WallClock:   time.Hour,
		EventBudget: 1 << 40,
		CheckEvents: 1024,
	}
	got, err := Run(bounded)
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := json.Marshal(base)
	gj, _ := json.Marshal(got)
	if string(bj) != string(gj) {
		t.Fatalf("limits perturbed the run:\nbase %s\nwith %s", bj, gj)
	}
}

func TestLivelockDetectorIgnoresProgress(t *testing.T) {
	// A healthy run advances its clock constantly; the livelock
	// detector armed alone must never trip on it.
	spec := singleSpec("429.mcf", 1, 1, 8000)
	spec.Limits = &Limits{StallWindows: 2, CheckEvents: 64}
	if _, err := Run(spec); err != nil {
		t.Fatalf("livelock detector tripped on a healthy run: %v", err)
	}
}

func TestLimitErrorRendering(t *testing.T) {
	le := &LimitError{Kind: LimitEventBudget, Msg: "event budget 100 exhausted",
		Diag: Diag{NowPS: 1234, Events: 128, QueueDepth: 7, CoresFinished: 0, Cores: 4,
			CtrlQueueLens: []int{3, 0}, CoreRetired: []uint64{10, 20, 15, 12}}}
	want := "system: event budget 100 exhausted (sim=1234ps events=128 queue=7 cores=0/4 ctrlq=[3 0] retired=[10..20])"
	if got := le.Error(); got != want {
		t.Fatalf("Error() = %q\nwant      %q", got, want)
	}
}

// TestOnDiagOnlyLeavesMetricsAlone: arming only Limits.OnDiag (the
// diagnostic feed perfbench's traced op reads) must not register the
// watchdog's own gauge or change any gathered value — the metric stream
// of a watched run is byte-identical to an unwatched one.
func TestOnDiagOnlyLeavesMetricsAlone(t *testing.T) {
	plain := singleSpec("429.mcf", 2, 8, 4000)
	plain.Obs = &obs.Observer{Registry: obs.NewRegistry()}
	resPlain, err := Run(plain)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	snapPlain := plain.Obs.Registry.Gather()

	diags := 0
	watched := singleSpec("429.mcf", 2, 8, 4000)
	watched.Obs = &obs.Observer{Registry: obs.NewRegistry()}
	// The short test run fires fewer events than the default check
	// cadence, so tighten it; CheckEvents alone never trips a limit.
	watched.Limits = &Limits{CheckEvents: 1024, OnDiag: func(Diag) { diags++ }}
	resWatched, err := Run(watched)
	if err != nil {
		t.Fatalf("watched run: %v", err)
	}
	if diags == 0 {
		t.Error("OnDiag never invoked")
	}
	if !reflect.DeepEqual(resWatched, resPlain) {
		t.Errorf("OnDiag-only run diverged\n got: %+v\nwant: %+v", resWatched, resPlain)
	}
	snapWatched := watched.Obs.Registry.Gather()
	if !reflect.DeepEqual(snapWatched, snapPlain) {
		t.Errorf("OnDiag-only metric stream diverged\n got: %v\nwant: %v", snapWatched, snapPlain)
	}
	for _, s := range snapWatched {
		if s.Name == "sys.watchdog_checks" {
			t.Error("OnDiag-only run registered sys.watchdog_checks")
		}
	}
}
