package sim

import "testing"

// TestScheduleStepZeroAllocGuard is the benchmark guard behind the
// observability layer's "disabled means free" contract: with no tracer
// or sampler attached, the engine's steady-state schedule/fire and
// schedule/cancel paths must not allocate. A regression here (a new
// per-event allocation, an interface box on the hot path) fails this
// test rather than silently shifting the benchmark baselines.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestScheduleStepZeroAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	e := NewEngine()
	fn := func(*Engine) {}
	// Warm the event free list past several block grants so the
	// measured window recycles records instead of growing the arena.
	for i := 0; i < 4*eventBlock; i++ {
		e.Schedule(e.Now()+1, fn)
	}
	e.Run()

	if avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}); avg != 0 {
		t.Errorf("schedule+step allocates %.2f allocs/op, want 0", avg)
	}

	if avg := testing.AllocsPerRun(1000, func() {
		ev := e.Schedule(e.Now()+1, fn)
		e.Cancel(ev)
	}); avg != 0 {
		t.Errorf("schedule+cancel allocates %.2f allocs/op, want 0", avg)
	}

	// The overflow tier: a delay past the wheel's horizon goes to the
	// heap, whose backing array the warm-up run has already grown.
	far := Time(2 * wheelSize << bucketShift)
	if avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+far, fn)
		e.Step()
	}); avg != 0 {
		t.Errorf("schedule+step past the horizon allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		ev := e.Schedule(e.Now()+far, fn)
		e.Cancel(ev)
	}); avg != 0 {
		t.Errorf("schedule+cancel past the horizon allocates %.2f allocs/op, want 0", avg)
	}

	// An out-of-order insert into one bucket (a priority-2 wake, then a
	// priority-0 event at the same instant) and a cancel from the
	// middle of a bucket relink records in place.
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleP(e.Now()+1, 2, fn)
		e.ScheduleP(e.Now()+1, 0, fn)
		e.Step()
		e.Step()
	}); avg != 0 {
		t.Errorf("out-of-order bucket insert allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, fn)
		mid := e.Schedule(e.Now()+2, fn)
		e.Schedule(e.Now()+3, fn)
		e.Cancel(mid)
		e.Step()
		e.Step()
	}); avg != 0 {
		t.Errorf("mid-bucket cancel allocates %.2f allocs/op, want 0", avg)
	}

	// The payload-carrying form must be equally free when arg is a
	// pointer (interface conversion of a pointer does not box).
	afn := func(*Engine, any) {}
	arg := &struct{ n int }{}
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(e.Now()+1, afn, arg)
		e.Step()
	}); avg != 0 {
		t.Errorf("ScheduleArg+step allocates %.2f allocs/op, want 0", avg)
	}
}
