package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineScheduleStep measures the schedule-then-fire churn of
// a single in-flight event, the engine's steady-state hot path.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}
}

// BenchmarkEngineScheduleCancel measures the schedule-then-cancel path
// (the controller's wake-event reprogramming pattern).
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(e.Now()+1, fn)
		e.Cancel(ev)
	}
}

// BenchmarkEngineChurn mixes the two realistic event lifecycles — a
// fired timer and a cancelled-and-reprogrammed wake — against a
// moderately deep pending population, approximating the controller's
// per-command event traffic in a multicore run.
func BenchmarkEngineChurn(b *testing.B) {
	const depth = 256
	e := NewEngine()
	fn := func(*Engine) {}
	for i := 0; i < depth; i++ {
		e.Schedule(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(e.Now()+depth/2, fn) // speculative wake
		e.Schedule(e.Now()+depth, fn)         // command completion
		e.Cancel(ev)                          // wake reprogrammed away
		e.Step()
	}
}

// BenchmarkEngineDeepQueue keeps a deep pending population (as a busy
// multicore run does) so heap reheapification dominates.
func BenchmarkEngineDeepQueue(b *testing.B) {
	const depth = 1024
	e := NewEngine()
	fn := func(*Engine) {}
	for i := 0; i < depth; i++ {
		e.Schedule(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+depth, fn)
		e.Step()
	}
}

// mixedDelays draws n schedule delays from the mix measured over one
// 16-core run of the paper's memory-intensive mix (2.12 M events):
// 16% at now, 13% within 0.5 ns, 43% within 2 ns, 16% within 8 ns,
// 11% within 32 ns, 0.9% within 128 ns and 0.1% beyond it (refresh,
// regulator epochs, sampler ticks).
func mixedDelays(n int) []Time {
	rng := rand.New(rand.NewSource(1))
	between := func(lo, hi Time) Time { return lo + Time(rng.Int63n(int64(hi-lo))) }
	d := make([]Time, n)
	for i := range d {
		switch p := rng.Intn(1000); {
		case p < 160:
			d[i] = 0
		case p < 290:
			d[i] = between(1, Nanosecond/2)
		case p < 720:
			d[i] = between(Nanosecond/2, 2*Nanosecond)
		case p < 880:
			d[i] = between(2*Nanosecond, 8*Nanosecond)
		case p < 990:
			d[i] = between(8*Nanosecond, 32*Nanosecond)
		case p < 999:
			d[i] = between(32*Nanosecond, 128*Nanosecond)
		default:
			d[i] = between(128*Nanosecond, 8*Microsecond)
		}
	}
	return d
}

// BenchmarkEngineMixedDelays replays the measured delay mix at the
// pending depth of a multicore run (48 to 50 events): each op
// schedules one event, every fourth op also reprograms a wake the way
// the memory controller does — cancel, then schedule at priority 2 —
// and the op then fires events until the depth is back to 48.
func BenchmarkEngineMixedDelays(b *testing.B) {
	const depth = 48
	delays := mixedDelays(1 << 12)
	e := NewEngine()
	fn := func(*Engine) {}
	for i := 0; i < depth; i++ {
		e.Schedule(delays[i], fn)
	}
	var wake Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+delays[i&(len(delays)-1)], fn)
		if i&3 == 0 {
			e.Cancel(wake)
			wake = e.ScheduleP(e.Now()+delays[(i+7)&(len(delays)-1)], 2, fn)
		}
		for e.Pending() > depth {
			e.Step()
		}
	}
}
