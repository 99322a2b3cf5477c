package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// scheduleMix schedules a fixed pattern of events on e: near ones on
// the wheel and far ones on the overflow heap, same-instant ties at
// several priorities, payload callbacks, and chains that reschedule
// themselves. Every firing appends its name and time to *log. It
// returns the handles of the events it scheduled directly.
func scheduleMix(e *Engine, log *[]string) []Event {
	rng := rand.New(rand.NewSource(7))
	var chain func(name string, left int) func(*Engine)
	chain = func(name string, left int) func(*Engine) {
		return func(e *Engine) {
			*log = append(*log, fmt.Sprintf("%s@%d", name, e.Now()))
			if left > 0 {
				e.ScheduleP(e.Now()+Time(rng.Intn(3000)), rng.Intn(5)-2, chain(name+"'", left-1))
			}
		}
	}
	logArg := func(e *Engine, arg any) { *log = append(*log, fmt.Sprintf("%v@%d", arg, e.Now())) }
	var hs []Event
	for i := 0; i < 300; i++ {
		at := e.Now() + Time(rng.Intn(200))*Nanosecond/10
		if i%7 == 0 {
			at += Microsecond // past the wheel's horizon
		}
		switch i % 3 {
		case 0:
			hs = append(hs, e.ScheduleP(at, rng.Intn(5)-2, chain(fmt.Sprint("c", i), 3)))
		case 1:
			hs = append(hs, e.ScheduleArg(at, logArg, fmt.Sprint("a", i)))
		default:
			hs = append(hs, e.Schedule(at, chain(fmt.Sprint("s", i), 0)))
		}
	}
	return hs
}

// TestReleasedEngineMatchesFresh: an engine released after a run that
// its control hook stopped with events still pending comes back from
// NewEngine empty. The old run's handles no longer report pending, and
// cancelling one touches nothing. The reused engine then fires a
// schedule in exactly the order a fresh engine does.
func TestReleasedEngineMatchesFresh(t *testing.T) {
	// One P, so Release and NewEngine meet in the same per-P pool slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	old := NewEngine()
	var oldLog []string
	hs := scheduleMix(old, &oldLog)
	stop := errors.New("event budget")
	old.SetControl(25, func(e *Engine) error {
		if e.Fired() >= 200 {
			return stop
		}
		return nil
	})
	old.Run()
	if old.StopCause() != stop {
		t.Fatalf("old run: StopCause %v, want the budget stop", old.StopCause())
	}
	var pending []Event
	overflow := false
	for _, h := range hs {
		if h.Pending() {
			pending = append(pending, h)
			overflow = overflow || old.records[h.id].next == inOverflow
		}
	}
	if len(pending) == 0 || !overflow || len(old.overflow) == 0 {
		t.Fatalf("old run left %d handles pending (overflow %v); the test needs wheel and heap events", len(pending), overflow)
	}
	old.Release()

	reused := NewEngine()
	if !raceEnabled && reused != old {
		t.Error("NewEngine did not reuse the released engine")
	}
	fresh := NewEngine()
	if fresh == reused {
		t.Fatal("NewEngine handed out one engine twice")
	}
	if reused.Now() != 0 || reused.Fired() != 0 || reused.Pending() != 0 || reused.StopCause() != nil {
		t.Fatalf("reused engine: now %d fired %d pending %d cause %v, want all zero",
			reused.Now(), reused.Fired(), reused.Pending(), reused.StopCause())
	}

	var gotLog, wantLog []string
	scheduleMix(reused, &gotLog)
	scheduleMix(fresh, &wantLog)
	for _, h := range pending {
		if h.Pending() || h.When() != Never || !h.Cancelled() {
			t.Fatalf("handle from the old run: pending %v when %d cancelled %v", h.Pending(), h.When(), h.Cancelled())
		}
		reused.Cancel(h) // a no-op: it must not remove a new event
	}
	if reused.Pending() != fresh.Pending() {
		t.Fatalf("reused engine holds %d events, fresh %d", reused.Pending(), fresh.Pending())
	}
	reused.Run()
	fresh.Run()
	if len(gotLog) != len(wantLog) || reused.Fired() != fresh.Fired() {
		t.Fatalf("reused engine fired %d events, fresh %d", reused.Fired(), fresh.Fired())
	}
	for i := range wantLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("firing %d: reused engine ran %s, fresh %s", i, gotLog[i], wantLog[i])
		}
	}
}
