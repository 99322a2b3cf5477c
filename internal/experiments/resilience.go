package experiments

// Sweep resilience: a Resilience is one campaign — its fail mode,
// per-run limits, injected faults, failure log, and its results, held
// in memory and optionally in a content-addressed store keyed by what
// a cell simulates (the run spec's digest, which folds in
// system.ModelFingerprint). Nothing is retried in process: cells are
// deterministic, and a rerun against the store resumes a campaign by
// re-simulating exactly the cells that failed. Failure records address
// cells as (sweep, cell); sweeps begin serially in deterministic order,
// so that addressing is stable across runs and -j widths.

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
	// Collect decides what a failed cell does to the campaign: false
	// (fail-fast) aborts at the first failure; true runs every cell,
	// reduces the healthy results (failed entries render as FAIL),
	// records the failures in the log and makes Err() non-nil so the CLI
	// exits nonzero.
	Collect bool
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

// storeLookup returns the cached result of the run spec whose digest
// is key from the campaign's memory, else from the store (a store hit
// is remembered); key "" — a spec without a digest — is never cached.
// The store checksums what it serves and JSON round-trips float64
// exactly, so the decoded Result is bit-identical to the original and
// shares no memory with any earlier replay. A payload that does not
// re-encode to the same bytes came from a build whose Result had other
// fields; it is a miss, and the re-simulated cell overwrites it.
func (r *Resilience) storeLookup(key string) (res system.Result, ok bool) {
	if key == "" {
		return res, false
	}
	r.mu.Lock()
	data, inMemo := r.memo[key]
	r.mu.Unlock()
	if !inMemo {
		if r.Store == nil {
			return res, false
		}
		if data, ok = r.Store.Get(system.ModelFingerprint, key); !ok {
			return res, false
		}
	}
	if json.Unmarshal(data, &res) != nil {
		return system.Result{}, false
	}
	if again, err := json.Marshal(res); err != nil || !bytes.Equal(again, data) {
		return system.Result{}, false
	}
	if !inMemo {
		r.remember(key, data)
	}
	return res, true
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
// non-nil in collect mode when failures were recorded. Fail-fast
// campaigns never reach this point with failures.
func (r *Resilience) Err() error {
	if r.Log == nil {
		return nil
	}
	if n := r.Log.Len(); n > 0 && r.Collect {
		return fmt.Errorf("sweep: %d cell(s) failed (failure records in the report)", n)
	}
	return nil
}

// limitsFor fires campaign cell g's injected fault and returns the
// cell's run limits: a panic or error fault fires here, a timeout or
// budget fault is limits that trip at the first watchdog check, and
// every other cell gets the campaign's RunLimits.
func (r *Resilience) limitsFor(ctx context.Context, g int) (*system.Limits, error) {
	switch r.inject[g] {
	case "panic":
		panic(fmt.Sprintf("injected panic at campaign cell %d", g))
	case "error":
		return nil, fmt.Errorf("injected error at campaign cell %d", g)
	case "timeout":
		return &system.Limits{WallClock: time.Nanosecond, CheckEvents: injectCheckEvents}, nil
	case "budget":
		return &system.Limits{EventBudget: 1, CheckEvents: injectCheckEvents}, nil
	}
	return r.RunLimits(ctx), nil
}

// RunLimits returns the limits every run inherits from the campaign:
// the wall-clock deadline and event budget, plus ctx (which may be nil)
// so a cancellation aborts in-flight runs at their next watchdog check;
// nil when there is nothing to enforce. The watchdog never perturbs
// results.
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
