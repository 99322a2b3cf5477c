package experiments

// Sweep resilience: Options.Res configures how mapRuns survives
// failures — the fail mode of its parallel.MapPolicy executor (which
// isolates panics per cell), per-run limits (system.Limits), injected
// faults, a structured failure log that flows into the Report's
// failures section, and the two-tier result cache. A Resilience is one
// campaign: its memory tier serves any run spec the campaign already
// simulated, and the optional content-addressed store extends that
// across processes, so an interrupted or partially failed campaign
// resumes by rerunning against the same store. There are no in-process
// retries: cells are deterministic, and a rerun against the store
// re-simulates exactly the cells that failed. Cached cells are keyed
// by what they simulate — the run spec's digest, which folds in
// system.ModelFingerprint — so identical runs are shared across sweeps
// and experiments, and an entry never outlives the model or spec that
// produced it. Failure records address cells as (sweep, cell):
// experiments begin their sweeps serially in deterministic order, so
// that addressing is stable across runs and across -j widths.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"microbank/internal/check"
	"microbank/internal/obs"
	"microbank/internal/parallel"
	"microbank/internal/store"
	"microbank/internal/system"
)

// Failure kinds beyond the limit taxonomy of system.LimitError (whose
// Kind strings — deadline, event-budget, livelock, cancelled, stall —
// are reported verbatim).
const (
	FailKindPanic    = "panic"    // cell panicked (stack recorded)
	FailKindProtocol = "protocol" // DRAM timing sanitizer fatal violation
	FailKindError    = "error"    // ordinary error return
)

// injectCheckEvents is the watchdog period used for injected limit
// faults: small enough that the injected limit trips at the very first
// check, making the trip point — and the whole failure record —
// deterministic.
const injectCheckEvents = 256

// Resilience configures sweep survival for one experiment campaign and
// holds the campaign's results. The zero value of each field is the
// conservative default, and a nil *Resilience in Options becomes a
// fresh zero value per top-level call: fail-fast, no store, no limits
// beyond the campaign context, no injection.
type Resilience struct {
	// Mode decides what a failed cell does to the campaign: FailFast
	// aborts at the first failure; FailCollect and FailDegrade both run
	// every cell and report failures in the log (collect additionally
	// makes Err() non-nil so the CLI exits nonzero).
	Mode parallel.FailMode
	// Timeout and EventBudget bound every run of the campaign
	// (system.Limits.WallClock / EventBudget).
	Timeout     time.Duration
	EventBudget uint64
	// Store, when non-nil, is the content-addressed result store behind
	// the campaign's memory tier: completed cells are committed to it
	// under (ModelFingerprint, spec digest) and looked up before
	// simulating, so an identical run is never simulated twice across
	// resumes, across processes and across experiments sharing the
	// directory. Within one campaign, repeats replay from memory with
	// or without a store.
	Store *store.Store
	// OnDegrade, when non-nil, receives the one-line warning emitted
	// when store writes fail mid-campaign. Nil prints to stderr. It
	// warns at most once; the campaign itself never fails because its
	// results cannot persist.
	OnDegrade func(msg string)
	// Log accumulates structured failure records across the campaign's
	// sweeps (created on first use if nil).
	Log *FailureLog

	inject map[int]string // campaign cell index -> injected fault kind

	storeWarn sync.Once

	mu     sync.Mutex
	sweeps int
	cells  int
	memo   map[string][]byte // spec digest -> encoded Result of a healthy cell
}

// SetInject arms deterministic fault injection from a CLI spec like
// "panic:1,timeout:3": a comma-separated list of kind:cell pairs,
// where cell counts campaign cells (across sweeps, in enumeration
// order) and kind is one of panic, error, timeout, budget. A cell may
// be named once.
func (r *Resilience) SetInject(spec string) error {
	if spec == "" {
		return nil
	}
	r.inject = map[int]string{}
	for _, part := range strings.Split(spec, ",") {
		kind, cellStr, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("bad inject spec %q (want kind:cell)", part)
		}
		cell, err := strconv.Atoi(cellStr)
		if err != nil || cell < 0 {
			return fmt.Errorf("bad inject cell in %q", part)
		}
		switch kind {
		case "panic", "error", "timeout", "budget":
		default:
			return fmt.Errorf("unknown inject kind %q (panic | error | timeout | budget)", kind)
		}
		if prev, dup := r.inject[cell]; dup {
			return fmt.Errorf("inject cell %d named twice (%s, %s)", cell, prev, kind)
		}
		r.inject[cell] = kind
	}
	return nil
}

// beginSweep assigns the next sweep id and the campaign-cell base
// index for a sweep of the given size. Sweeps begin serially (each
// mapRuns call completes before the next starts), so ids and bases are
// deterministic.
func (r *Resilience) beginSweep(total int) (base, sweep int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Log == nil {
		r.Log = &FailureLog{}
	}
	base, sweep = r.cells, r.sweeps
	r.sweeps++
	r.cells += total
	return base, sweep
}

// storeLookup returns a cell's cache address — its spec's digest, or
// "" (simulate, do not cache) when the spec has no digest (a custom
// generator) — and the cached result when the campaign's memory or the
// store holds one. Memory is checked first; a store hit is remembered
// for the rest of the campaign. The store verifies checksums on read
// and quarantines anything invalid, so a payload is exactly the bytes
// a completed run produced, and JSON round-trips float64 exactly, so
// the decoded Result is bit-identical to the original and shares no
// memory with any earlier replay. A payload that does not re-encode to
// the same bytes was written by a build whose Result had other fields
// (a decode would silently zero or drop them); it is a miss, and the
// re-simulated cell overwrites it.
func (r *Resilience) storeLookup(spec system.Spec) (key string, res system.Result, ok bool) {
	key, err := spec.Digest()
	if err != nil {
		return "", res, false
	}
	r.mu.Lock()
	data, inMemo := r.memo[key]
	r.mu.Unlock()
	if !inMemo {
		if r.Store == nil {
			return key, res, false
		}
		if data, ok = r.Store.Get(system.ModelFingerprint, key); !ok {
			return key, res, false
		}
	}
	if json.Unmarshal(data, &res) != nil {
		return key, system.Result{}, false
	}
	if again, err := json.Marshal(res); err != nil || !bytes.Equal(again, data) {
		return key, system.Result{}, false
	}
	if !inMemo {
		r.remember(key, data)
	}
	return key, res, true
}

// storeCommit records a freshly simulated healthy cell in the
// campaign's memory and, when a store is attached, commits it there.
// A commit that cannot persist degrades — the store's sticky write
// disable plus one warning — and never fails the healthy cell.
func (r *Resilience) storeCommit(key string, res system.Result) {
	if key == "" {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	r.remember(key, payload)
	if r.Store == nil {
		return
	}
	if err := r.Store.Put(system.ModelFingerprint, key, payload); err != nil {
		r.storeWarn.Do(func() {
			if r.OnDegrade != nil {
				r.OnDegrade("warning: " + err.Error())
			} else {
				fmt.Fprintln(os.Stderr, "microbank: warning: "+err.Error())
			}
		})
	}
}

// remember adds an encoded healthy result to the campaign's memory.
func (r *Resilience) remember(key string, payload []byte) {
	r.mu.Lock()
	if r.memo == nil {
		r.memo = map[string][]byte{}
	}
	r.memo[key] = payload
	r.mu.Unlock()
}

// Err returns the campaign-level verdict once every sweep has run:
// non-nil in collect mode when failures were recorded. Degrade mode
// returns nil — partial results are the contract — and fail-fast
// campaigns never reach this point with failures.
func (r *Resilience) Err() error {
	if r.Log == nil {
		return nil
	}
	if n := r.Log.Len(); n > 0 && r.Mode == parallel.FailCollect {
		return fmt.Errorf("sweep: %d cell(s) failed (failure records in the report)", n)
	}
	return nil
}

// RegisterMetrics exports the campaign's failure count into an obs
// registry as the sweep.failures gauge, plus the store counters when a
// store is attached.
func (r *Resilience) RegisterMetrics(reg *obs.Registry) {
	r.mu.Lock()
	if r.Log == nil {
		r.Log = &FailureLog{}
	}
	log := r.Log
	r.mu.Unlock()
	reg.GaugeFunc("sweep.failures", func() float64 { return float64(log.Len()) })
	if s := r.Store; s != nil {
		reg.GaugeFunc("store.hits", func() float64 { return float64(s.Stats().Hits) })
		reg.GaugeFunc("store.misses", func() float64 { return float64(s.Stats().Misses) })
		reg.GaugeFunc("store.quarantined", func() float64 { return float64(s.Stats().Quarantined) })
	}
}

// limitsFor builds the per-run limits for campaign cell g: an injected
// limit fault that deterministically trips at the first watchdog
// check, or the campaign's RunLimits.
func (r *Resilience) limitsFor(ctx context.Context, g int) *system.Limits {
	switch r.inject[g] {
	case "timeout":
		return &system.Limits{WallClock: time.Nanosecond, CheckEvents: injectCheckEvents}
	case "budget":
		return &system.Limits{EventBudget: 1, CheckEvents: injectCheckEvents}
	}
	return r.RunLimits(ctx)
}

// RunLimits returns the limits every run inherits from the campaign
// flags: the wall-clock deadline and event budget, or nil when
// unbounded. ctx (which may be nil) threads the caller's cancellation —
// the CLI's signal handler — into the run's watchdog, so an interrupt
// cancels in-flight runs at their next watchdog check; the armed
// watchdog is read-only and never perturbs results. A campaign with
// neither bound yields only the cancellation.
func (r *Resilience) RunLimits(ctx context.Context) *system.Limits {
	if r.Timeout <= 0 && r.EventBudget == 0 {
		if ctx != nil {
			return &system.Limits{Ctx: ctx}
		}
		return nil
	}
	return &system.Limits{Ctx: ctx, WallClock: r.Timeout, EventBudget: r.EventBudget}
}

// FailureLog accumulates structured failure records across every
// sweep of a campaign. Safe for concurrent use.
type FailureLog struct {
	mu    sync.Mutex
	fails []ReportFailure
}

func (l *FailureLog) add(f ReportFailure) {
	l.mu.Lock()
	l.fails = append(l.fails, f)
	l.mu.Unlock()
}

// Len returns the number of recorded failures.
func (l *FailureLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.fails)
}

// Failures returns a copy of the recorded failures, in (sweep, cell)
// order of recording (sweeps are serial; within a sweep, records are
// added sorted by cell).
func (l *FailureLog) Failures() []ReportFailure {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ReportFailure(nil), l.fails...)
}

// failureRecord converts a task failure into its report form,
// classifying the error: protocol (sanitizer fatal violation), a limit
// kind (deadline/event-budget/livelock/cancelled/stall, with the
// machine diagnostic attached), panic (cleaned stack attached), or
// plain error. Elapsed time is deliberately dropped — failure records
// must be byte-identical across reruns against the same store.
func failureRecord(sweep int, te *parallel.TaskError) ReportFailure {
	f := ReportFailure{
		Sweep:  sweep,
		Cell:   te.Index,
		Kind:   FailKindError,
		Digest: te.Digest,
		Error:  te.Err.Error(),
	}
	var fv *check.FatalViolation
	var le *system.LimitError
	switch {
	case errors.As(te.Err, &fv):
		f.Kind = FailKindProtocol
	case errors.As(te.Err, &le):
		f.Kind = le.Kind
		d := le.Diag
		f.Diag = &d
	case te.Panicked:
		f.Kind = FailKindPanic
	}
	if te.Panicked {
		f.Stack = te.CleanStack()
	}
	return f
}

// partialUnsupported is the error an experiment returns when cells
// failed under collect/degrade but its reduction has no degraded form.
func partialUnsupported(exp string, failed []bool) error {
	n := 0
	for _, f := range failed {
		if f {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d cell(s) failed and this experiment's reduction has no degraded form; fix the failures and rerun against the same -store, or rerun with -fail-mode=fail-fast", exp, n)
}
