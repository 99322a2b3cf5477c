package sim

import (
	"math/rand"
	"testing"
)

// horizon is the span the wheel covers ahead of now's bucket; events
// scheduled further out go to the overflow heap.
const horizon = wheelSize << bucketShift

// orderRec is one scheduled event as the order check models it.
type orderRec struct {
	when     Time
	priority int
	seq      uint64
	ev       Event
}

// orderCheck drives an engine with schedules, cancels, Steps and
// RunUntil calls chosen by pick, and fails at the first event that
// fires out of the strict (when, priority, seq) order or the first
// Pending() that disagrees with the model. Callbacks schedule and
// cancel too, so every tier sees inserts made at every point of a run.
type orderCheck struct {
	t        testing.TB
	e        *Engine
	pick     func(n int) int // a choice in [0, n)
	live     []orderRec      // the model: every event still pending
	seq      uint64          // the engine's next sequence number
	budget   int             // schedules left; bounds callback fan-out
	deadline Time            // no event may fire after it
}

// less is the engine's documented event order.
func (r *orderRec) less(o *orderRec) bool {
	if r.when != o.when {
		return r.when < o.when
	}
	if r.priority != o.priority {
		return r.priority < o.priority
	}
	return r.seq < o.seq
}

// when picks a schedule time that lands on each part of the queue: at
// now, in now's or the next bucket, in the last buckets of the wheel's
// lap (which wrap past index 0), just inside and just past the
// horizon, and anywhere up to four horizons out.
func (c *orderCheck) when() Time {
	now := c.e.Now()
	cur := now >> bucketShift
	inBucket := Time(c.pick(1 << bucketShift))
	switch c.pick(8) {
	case 0:
		return now
	case 1:
		return now + Time(c.pick(2000))
	case 2:
		return (cur+1)<<bucketShift + inBucket
	case 3:
		return (cur+wheelSize-1-Time(c.pick(8)))<<bucketShift + inBucket
	case 4:
		return (cur+wheelSize)<<bucketShift + inBucket
	case 5:
		return now + horizon + Time(c.pick(3*horizon))
	default:
		return now + Time(c.pick(4*horizon))
	}
}

func (c *orderCheck) schedule() {
	if c.budget == 0 {
		return
	}
	c.budget--
	r := orderRec{when: c.when(), priority: []int{-1, 0, 2}[c.pick(3)], seq: c.seq}
	c.seq++
	seq := r.seq
	r.ev = c.e.ScheduleP(r.when, r.priority, func(*Engine) { c.fire(seq) })
	c.live = append(c.live, r)
	c.checkPending()
}

func (c *orderCheck) cancel() {
	if len(c.live) == 0 {
		return
	}
	i := c.pick(len(c.live))
	c.e.Cancel(c.live[i].ev)
	c.remove(i)
	c.checkPending()
}

func (c *orderCheck) remove(i int) {
	c.live[i] = c.live[len(c.live)-1]
	c.live = c.live[:len(c.live)-1]
}

// fire checks that the event with sequence number seq is the model's
// earliest, then lets the callback schedule and cancel.
func (c *orderCheck) fire(seq uint64) {
	c.t.Helper()
	least := 0
	for i := range c.live {
		if c.live[i].less(&c.live[least]) {
			least = i
		}
	}
	if len(c.live) == 0 {
		c.t.Fatalf("event seq %d fired at %d with nothing pending", seq, c.e.Now())
	}
	if c.live[least].seq != seq {
		c.t.Fatalf("event seq %d fired at %d; the earliest pending is %+v", seq, c.e.Now(), c.live[least])
	}
	if r := c.live[least]; c.e.Now() != r.when || r.when > c.deadline {
		c.t.Fatalf("event %+v fired at %d under deadline %d", r, c.e.Now(), c.deadline)
	}
	c.remove(least)
	c.checkPending()
	for n := c.pick(3); n > 0; n-- {
		c.schedule()
	}
	if c.pick(4) == 0 {
		c.cancel()
	}
}

func (c *orderCheck) checkPending() {
	c.t.Helper()
	if got := c.e.Pending(); got != len(c.live) {
		c.t.Fatalf("Pending() = %d, want %d", got, len(c.live))
	}
}

// op runs one top-level operation.
func (c *orderCheck) op() {
	switch c.pick(6) {
	case 0, 1:
		c.schedule()
	case 2:
		c.cancel()
	case 3:
		c.deadline = Never
		c.e.Step()
	default:
		// A deadline mid-bucket: events at or before it fire, later
		// ones in the same bucket stay.
		start := c.e.Now()
		c.deadline = start + Time(c.pick(2*horizon)) | 1
		c.e.RunUntil(c.deadline)
		if c.e.Now() != c.deadline {
			c.t.Fatalf("RunUntil(%d) left Now at %d", c.deadline, c.e.Now())
		}
		for _, r := range c.live {
			if r.when <= c.deadline {
				c.t.Fatalf("RunUntil(%d) left %+v pending", c.deadline, r)
			}
		}
	}
	c.checkPending()
}

// drain runs the engine dry and checks nothing is left.
func (c *orderCheck) drain() {
	c.deadline = Never
	c.e.Run()
	if len(c.live) != 0 {
		c.t.Fatalf("queue drained with %d modelled events unfired", len(c.live))
	}
	c.checkPending()
}

// TestQueueOrderProperty drives both queue tiers — the timing wheel and
// the overflow heap — with randomized schedules, cancels, Steps and
// RunUntil calls and asserts events fire in exactly (when, priority,
// seq) order.
func TestQueueOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		c := &orderCheck{t: t, e: NewEngine(), pick: rng.Intn, budget: 2000, deadline: Never}
		// Start part-way through a lap so wrapped buckets are exercised
		// from the first schedule on.
		c.e.RunUntil(Time(rng.Intn(2 * horizon)))
		for n := rng.Intn(200); n > 0; n-- {
			c.schedule()
		}
		for i := 0; i < 400; i++ {
			c.op()
		}
		c.drain()
	}
}

// FuzzEngineOrder is TestQueueOrderProperty with the fuzzer choosing
// each operation: every input byte is one choice, and the run ends,
// drained and checked, when the bytes do.
func FuzzEngineOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 16<<i)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, choices []byte) {
		c := &orderCheck{t: t, e: NewEngine(), budget: 4000, deadline: Never}
		c.pick = func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			v := int(choices[0])
			choices = choices[1:]
			for span := 256; span < n && len(choices) > 0; span <<= 8 {
				v = v<<8 | int(choices[0])
				choices = choices[1:]
			}
			return v % n
		}
		for len(choices) > 0 {
			c.op()
		}
		c.drain()
	})
}

// TestHeapCancelMiddle cancels interior events of both tiers — list
// nodes in the middle of wheel buckets and interior overflow-heap
// nodes (remove's down-then-up restoration) — and checks the queue
// still fires in time order and drains.
func TestHeapCancelMiddle(t *testing.T) {
	e := NewEngine()
	var hs []Event
	for i := 0; i < 64; i++ {
		// Four groups half a horizon apart, two on the wheel and two on
		// the heap, with several events per 512 ps bucket.
		hs = append(hs, e.Schedule(Time(64-i)*100+Time(i%4)*horizon/2, func(*Engine) {}))
	}
	// Cancel every third event, including the current root's children.
	for i := 0; i < len(hs); i += 3 {
		e.Cancel(hs[i])
	}
	var last Time
	for e.Step() {
		if e.Now() < last {
			t.Fatalf("time went backwards: %d after %d", e.Now(), last)
		}
		last = e.Now()
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left pending", e.Pending())
	}
}

// TestScheduleArg covers the payload-carrying callback form: the arg
// round-trips, fire time is the scheduled instant, cancellation works,
// and records recycle cleanly back into the closure form.
func TestScheduleArg(t *testing.T) {
	e := NewEngine()
	type payload struct{ hits int }
	p := &payload{}
	fn := func(eng *Engine, arg any) {
		if eng.Now() != 5 {
			t.Errorf("fired at %d, want 5", eng.Now())
		}
		arg.(*payload).hits++
	}
	ev := e.ScheduleArg(5, fn, p)
	if !ev.Pending() || ev.When() != 5 {
		t.Fatalf("handle not pending at 5: %v %v", ev.Pending(), ev.When())
	}
	e.Run()
	if p.hits != 1 {
		t.Fatalf("arg callback hits = %d, want 1", p.hits)
	}

	// Cancelled arg events never fire and their records recycle.
	ev = e.ScheduleArg(e.Now()+1, fn, p)
	e.Cancel(ev)
	// The recycled record must not leak the old argFn into a plain
	// Schedule reuse.
	ran := false
	e.Schedule(e.Now()+1, func(*Engine) { ran = true })
	e.Run()
	if p.hits != 1 || !ran {
		t.Fatalf("recycled record misbehaved: hits=%d ran=%v", p.hits, ran)
	}

	// Priority ordering applies to arg events too.
	var order []int
	e.ScheduleArgP(e.Now()+1, 1, func(_ *Engine, a any) { order = append(order, a.(int)) }, 1)
	e.ScheduleArgP(e.Now()+1, 0, func(_ *Engine, a any) { order = append(order, a.(int)) }, 0)
	e.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("priority order = %v, want [0 1]", order)
	}
}

func TestScheduleArgPanics(t *testing.T) {
	e := NewEngine()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e.Schedule(10, func(*Engine) {})
	e.Run()
	mustPanic("past", func() { e.ScheduleArg(e.Now()-1, func(*Engine, any) {}, nil) })
	mustPanic("nil fn", func() { e.ScheduleArg(e.Now()+1, nil, nil) })
}
