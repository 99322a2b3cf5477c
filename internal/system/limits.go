package system

// Run limits and the progress watchdog: a Spec may carry Limits, which
// arm the sim engine's control hook (sim.Engine.SetControl) so a run
// is checked every CheckEvents events against a wall-clock deadline,
// an event budget, caller cancellation, and a no-progress livelock
// detector. A tripped limit stops the run and surfaces as a typed
// *LimitError carrying a diagnostic snapshot of the machine, so a
// sweep supervisor can record exactly where the run was stuck instead
// of hanging a worker forever or tearing the campaign down.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"microbank/internal/sim"
)

// Limit-error kinds, also the failure taxonomy the experiment layer
// reports.
const (
	LimitDeadline    = "deadline"     // wall-clock deadline exceeded
	LimitEventBudget = "event-budget" // fired-event budget exhausted
	LimitLivelock    = "livelock"     // events firing but sim clock frozen
	LimitCancelled   = "cancelled"    // caller's context cancelled
	LimitStall       = "stall"        // event queue drained with cores unfinished
)

// defaultCheckEvents spaces watchdog checks far enough apart that the
// armed hook costs well under a percent of headline-run time.
const defaultCheckEvents = 1 << 14

// defaultStallWindows is how many consecutive watchdog windows the sim
// clock may stay frozen before the run is declared livelocked. At the
// default check interval that is ~64k events at one instant — far past
// any legitimate same-cycle burst.
const defaultStallWindows = 4

// Limits bounds one simulation run. The zero value (or a nil *Limits)
// disarms every check and leaves the engine's hot path untouched.
type Limits struct {
	// Ctx, when non-nil, cancels the run when the context is done.
	Ctx context.Context
	// WallClock, when positive, aborts the run after this much host
	// time. The check happens at watchdog granularity, so enforcement
	// is approximate by up to one CheckEvents window.
	WallClock time.Duration
	// EventBudget, when positive, aborts the run once the engine has
	// fired this many events.
	EventBudget uint64
	// CheckEvents is the watchdog period in fired events (default
	// defaultCheckEvents).
	CheckEvents uint64
	// StallWindows is the livelock threshold in consecutive watchdog
	// windows with a frozen sim clock (default defaultStallWindows).
	StallWindows int
	// OnDiag, when non-nil, receives a fresh machine diagnostic snapshot
	// at every watchdog check; perfbench's traced op samples the event
	// queue depth and controller queue lengths through it. It runs on
	// the simulation goroutine and must not block or mutate anything.
	// OnDiag alone arms only the reporting cadence: it never trips a
	// limit, so a run bounded by nothing else cannot fail because it is
	// being watched.
	OnDiag func(Diag)
}

// armed reports whether the watchdog hook must run (any enforced check,
// or diagnostic reporting).
func (l *Limits) armed() bool {
	return l.enforced() || (l != nil && l.OnDiag != nil)
}

// enforced reports whether any limit can actually trip. The livelock
// detector counts as enforcement support: it is active exactly when
// some limit is, so an OnDiag-only watchdog adds no failure modes.
func (l *Limits) enforced() bool {
	return l != nil && (l.Ctx != nil || l.WallClock > 0 || l.EventBudget > 0 || l.StallWindows > 0)
}

// Diag is a snapshot of the machine at the moment a limit tripped —
// the livelock/deadline diagnostic the error carries. Everything in it
// derives from simulation state, so for a deterministic trip (event
// budget, injected deadline) the snapshot is bit-identical across runs.
type Diag struct {
	NowPS         sim.Time `json:"now_ps"`
	Events        uint64   `json:"events"`
	QueueDepth    int      `json:"queue_depth"`
	CoresFinished int      `json:"cores_finished"`
	Cores         int      `json:"cores"`
	// CtrlQueueLens is the outstanding-request count per controller.
	CtrlQueueLens []int `json:"ctrl_queue_lens"`
	// CoreRetired is the per-core retired-instruction count.
	CoreRetired []uint64 `json:"core_retired"`
}

// String renders the snapshot compactly for error text and logs.
func (d Diag) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim=%dps events=%d queue=%d cores=%d/%d ctrlq=%v",
		d.NowPS, d.Events, d.QueueDepth, d.CoresFinished, d.Cores, d.CtrlQueueLens)
	var min, max uint64
	for i, r := range d.CoreRetired {
		if i == 0 || r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	fmt.Fprintf(&b, " retired=[%d..%d]", min, max)
	return b.String()
}

// LimitError is the typed failure of a bounded run: which limit
// tripped, a human-readable cause, and the machine snapshot at the
// trip. It deliberately contains no host-time measurements — the
// message and diagnostic depend only on configuration and simulation
// state, so identical runs fail with identical errors.
type LimitError struct {
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
	Diag Diag   `json:"diag"`
}

// Error renders the failure with its diagnostic snapshot.
func (e *LimitError) Error() string {
	return fmt.Sprintf("system: %s (%s)", e.Msg, e.Diag)
}

// Is makes errors.Is(err, context.Canceled) work for cancelled runs.
func (e *LimitError) Is(target error) bool {
	return e.Kind == LimitCancelled &&
		(target == context.Canceled || target == context.DeadlineExceeded)
}

// diag snapshots the machine for a limit error.
func (m *machine) diag() Diag {
	d := Diag{
		NowPS:         m.eng.Now(),
		Events:        m.eng.Fired(),
		QueueDepth:    m.eng.Pending(),
		CoresFinished: m.finished,
		Cores:         len(m.cores),
	}
	for _, ctl := range m.ctrls {
		d.CtrlQueueLens = append(d.CtrlQueueLens, ctl.QueueLen())
	}
	for _, c := range m.cores {
		d.CoreRetired = append(d.CoreRetired, c.Stats().Instructions)
	}
	return d
}

// armWatchdog wires the spec's limits into the engine's control hook.
// The hook runs once per CheckEvents fired events; between checks the
// engine pays only its single-compare control test, so the hot path
// stays allocation-free and within noise of an unbounded run (the
// BenchmarkHeadlineRunLimits comparison guards this).
func (m *machine) armWatchdog(l *Limits) {
	check := l.CheckEvents
	if check == 0 {
		check = defaultCheckEvents
	}
	windows := l.StallWindows
	if windows <= 0 {
		windows = defaultStallWindows
	}
	var deadline time.Time
	if l.WallClock > 0 {
		deadline = time.Now().Add(l.WallClock)
	}
	enforce := l.enforced()
	var lastNow sim.Time
	frozen := 0
	m.eng.SetControl(check, func(e *sim.Engine) error {
		m.wdChecks++
		if l.OnDiag != nil {
			l.OnDiag(m.diag())
		}
		if l.Ctx != nil {
			if err := l.Ctx.Err(); err != nil {
				return &LimitError{Kind: LimitCancelled,
					Msg: "run cancelled: " + err.Error(), Diag: m.diag()}
			}
		}
		if l.EventBudget > 0 && e.Fired() >= l.EventBudget {
			return &LimitError{Kind: LimitEventBudget,
				Msg:  fmt.Sprintf("event budget %d exhausted", l.EventBudget),
				Diag: m.diag()}
		}
		if l.WallClock > 0 && time.Now().After(deadline) {
			// No elapsed time in the message: the configured deadline is
			// deterministic, the measurement is not.
			return &LimitError{Kind: LimitDeadline,
				Msg:  fmt.Sprintf("wall-clock deadline %s exceeded", l.WallClock),
				Diag: m.diag()}
		}
		if !enforce {
			return nil
		}
		if now := e.Now(); now != lastNow {
			lastNow, frozen = now, 0
		} else if frozen++; frozen >= windows {
			return &LimitError{Kind: LimitLivelock,
				Msg: fmt.Sprintf("livelock: sim clock frozen across %d watchdog windows (%d events)",
					frozen, uint64(frozen)*check),
				Diag: m.diag()}
		}
		return nil
	})
	if m.spec.Obs != nil && enforce {
		// Registered only when a limit is enforced, so unbounded runs'
		// metric streams are byte-identical to builds without the
		// watchdog — including runs watched through OnDiag alone.
		m.spec.Obs.Registry.GaugeFunc("sys.watchdog_checks", func() float64 {
			return float64(m.wdChecks)
		})
	}
}
