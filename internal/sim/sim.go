// Package sim provides a small deterministic discrete-event simulation
// kernel used by every timed component in the microbank simulator.
//
// Time is measured in picoseconds (type Time) so that the 2 GHz core
// domain (500 ps), the 250 MHz DRAM mat domain (4000 ps), and arbitrary
// interface clocks can coexist without rounding. Events scheduled for
// the same instant fire in the order of their (priority, sequence)
// pair, making runs bit-for-bit reproducible.
//
// Pending events wait on a timing wheel that covers the next 131 ns,
// which holds nearly every event a run schedules; the few later ones
// (refresh, regulator epochs, sampler ticks) wait on an overflow heap.
// Both tiers keep the one strict event order, so the choice of tier
// never changes which event fires next.
//
// The engine recycles event records through an internal free list
// (fired and cancelled events are reused by later Schedule calls), so
// steady-state scheduling does not allocate. Event handles carry a
// generation number, which makes operations on already-fired or
// already-cancelled handles safe no-ops even after the record has been
// reused.
package sim

import (
	"fmt"
	"math/bits"

	"microbank/internal/reuse"
)

// Time is a simulation timestamp in picoseconds.
type Time uint64

// Common time units, expressed in Time (picoseconds).
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
)

// Never is a sentinel timestamp that compares after every reachable
// simulation instant. It marks idle resources.
const Never Time = ^Time(0)

// event is the engine-owned record of a scheduled callback. Records
// live by value in the engine's slab and are addressed by index —
// never by pointer, so the slab can grow and neither the wheel links
// nor the overflow heap nodes hold a pointer (a pointer per node would
// drag a GC write barrier into every link or sift move). Records are
// recycled: gen increments every time the record is retired, which
// invalidates any Event handles still naming it.
type event struct {
	when Time
	key  uint64 // packed (priority, seq) same-instant tiebreak
	// next links a wheel event to the next one in its bucket (noNext
	// ends the list); inOverflow marks an event held by the overflow
	// heap instead.
	next int32
	gen  uint64
	fn   func(*Engine)
	// argFn/arg are the payload-carrying callback form (ScheduleArg):
	// a shared, pre-allocated function pointer plus a per-event value,
	// so hot paths that would otherwise close over per-event state
	// (e.g. one retirement callback per memory request) schedule
	// without a fresh closure allocation.
	argFn func(*Engine, any)
	arg   any
}

// Event is a handle to a scheduled callback, returned by Schedule and
// friends. The zero Event is a valid "no event" handle: Cancel on it
// is a no-op and Pending reports false.
type Event struct {
	eng *Engine
	id  int32
	gen uint64
}

// Pending reports whether the event is still scheduled to fire.
func (ev Event) Pending() bool { return ev.eng != nil && ev.gen == ev.eng.records[ev.id].gen }

// When returns the instant the event is scheduled to fire, or Never if
// the event already fired, was cancelled, or is the zero handle.
func (ev Event) When() Time {
	if !ev.Pending() {
		return Never
	}
	return ev.eng.records[ev.id].when
}

// Cancelled reports whether the event was retired (fired or removed)
// after being scheduled. The zero handle reports false.
func (ev Event) Cancelled() bool { return ev.eng != nil && ev.gen != ev.eng.records[ev.id].gen }

// seqBits splits the packed same-instant key: the low bits hold the
// schedule sequence number and the high bits the biased priority, so
// the (priority, seq) tiebreak is a single integer compare. 2^40
// events per engine and 2^24 priority levels are both far beyond any
// run; packKey enforces the limits with panics rather than silently
// misordering.
const (
	seqBits      = 40
	priorityBias = 1 << 23 // maps priority [-2^23, 2^23) onto 24 unsigned bits
	maxSeq       = uint64(1) << seqBits
)

// The event queue has two tiers. The near-future tier is a timing
// wheel (Brown, "Calendar Queues", CACM 31(10), 1988) of wheelSize
// buckets, each 2^bucketShift ps wide: an event whose bucket lies
// fewer than wheelSize buckets past now's bucket goes on the wheel,
// and a later one goes on the overflow heap. Because now never
// decreases, every wheel event lies in the one lap
// [now>>bucketShift, now>>bucketShift + wheelSize), so the first
// occupied bucket at or after now's (wrapping once) holds the wheel's
// minimum. Each bucket is a list sorted by the full event order, so
// firing the earlier of that bucket's head and the heap's top yields
// exactly the order a single priority queue would.
//
// The geometry fits the model's traffic: nearly every event fires
// within a few nanoseconds of being scheduled, and only refresh,
// regulator-epoch and sampler timers reach past the 131 ns horizon.
const (
	bucketShift = 9   // 512 ps buckets
	wheelSize   = 256 // 131 ns horizon
	wheelMask   = wheelSize - 1
	wheelWords  = wheelSize / 64 // occupancy bitmap words
)

// Sentinels stored in event.next.
const (
	noNext     int32 = -1 // last event of its bucket
	inOverflow int32 = -2 // held by the overflow heap, not the wheel
)

// before is the total event order: time, then the packed (priority,
// seq) key. seq is unique per engine, so the order is strict and pop
// order is deterministic.
func before(aWhen Time, aKey uint64, bWhen Time, bKey uint64) bool {
	return aWhen < bWhen || aWhen == bWhen && aKey < bKey
}

// heapNode is one slot of the overflow heap: the full sort key inlined
// next to the record's slab index, so sift compares read the heap
// array sequentially instead of dereferencing two event records per
// comparison, and node moves are barrier-free because the node holds
// no pointer.
type heapNode struct {
	when Time
	key  uint64 // priority<<seqBits | seq
	id   int32
}

func nodeLess(a, b *heapNode) bool { return before(a.when, a.key, b.when, b.key) }

// eventHeap is the overflow tier: a 4-ary min-heap over (when,
// priority, seq), specialized to the concrete node type. Sift-up and
// sift-down hold the moving node in a local and shift the others, so
// each step is one node copy plus one index write, and nothing passes
// through an interface.
type eventHeap []heapNode

// up restores the heap property from index i toward the root.
func (h eventHeap) up(i int) {
	node := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !nodeLess(&node, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = node
}

// down restores the heap property from index i toward the leaves,
// reporting whether the element moved.
func (h eventHeap) down(i int) bool {
	node, start, n := h[i], i, len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		end := first + 4
		if end > n {
			end = n
		}
		for j := first + 1; j < end; j++ {
			if nodeLess(&h[j], &h[least]) {
				least = j
			}
		}
		if !nodeLess(&h[least], &node) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = node
	return i > start
}

// push appends the record's node and sifts it into position.
func (h *eventHeap) push(rec *event, id int32) {
	*h = append(*h, heapNode{rec.when, rec.key, id})
	h.up(len(*h) - 1)
}

// pop removes the earliest event.
func (h *eventHeap) pop() {
	old := *h
	n := len(old) - 1
	if n > 0 {
		old[0] = old[n]
	}
	*h = old[:n]
	if n > 0 {
		(*h).down(0)
	}
}

// remove deletes the event at heap index i (Cancel's path).
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old[i] = old[n]
	}
	*h = old[:n]
	if i != n {
		if !(*h).down(i) {
			(*h).up(i)
		}
	}
}

// eventBlock pre-sizes the record slab; the slab then grows by
// amortized appends, so allocs/op stays near zero even while the
// pending-event population is still growing.
const eventBlock = 128

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct one with NewEngine.
type Engine struct {
	now Time
	// Wheel tier: occupied has one bit per non-empty bucket; a
	// bucket's head and tail are valid only while its bit is set.
	occupied   [wheelWords]uint64
	onWheel    int // events on the wheel
	head, tail [wheelSize]int32
	overflow   eventHeap // events past the wheel's horizon when scheduled
	records    []event   // record slab; Event handles and queue links hold indices
	free       []int32   // retired record indices awaiting reuse
	seq        uint64
	fired      uint64
	halted     bool
	// Control hook (SetControl): ctrlNext is the fired count at which
	// the hook runs next, kept at noControl when the hook is disarmed so
	// the run loops pay exactly one always-false integer compare per
	// event — no nil check, no extra branch.
	ctrlNext  uint64
	ctrlEvery uint64
	ctrlFn    func(*Engine) error
	stopCause error
}

// noControl parks ctrlNext beyond any reachable fired count.
const noControl = ^uint64(0)

// NewEngine returns an engine with time set to zero and an empty queue:
// one that Release handed to the reuse store when one is free, else a
// fresh one.
func NewEngine() *Engine {
	if e := reuse.TakeOne[Engine](); e != nil {
		return e
	}
	return &Engine{
		records:  make([]event, 0, eventBlock),
		ctrlNext: noControl,
	}
}

// Release retires every pending event unfired, resets the engine to
// NewEngine's state and hands it to the reuse store, keeping its record
// slab, free list and overflow heap for a later NewEngine. Records keep
// their generation counters, so every handle from before the release
// reports Pending() == false for good. The engine must not be used
// afterwards.
func (e *Engine) Release() {
	e.free = e.free[:0]
	for i := len(e.records) - 1; i >= 0; i-- {
		r := &e.records[i]
		r.gen++
		r.fn, r.argFn, r.arg = nil, nil, nil
		// Pushed in reverse, so records are handed out again in slab
		// order, as a fresh engine's appends would.
		e.free = append(e.free, int32(i))
	}
	*e = Engine{records: e.records, free: e.free, overflow: e.overflow[:0], ctrlNext: noControl}
	reuse.PutOne(e)
}

// alloc returns the slab index of a fresh or recycled event record.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.records = append(e.records, event{})
	return int32(len(e.records) - 1)
}

// recycle retires a record onto the free list, invalidating every
// outstanding handle to it. The callback fields are deliberately NOT
// cleared here: Schedule/ScheduleArg overwrite them at reuse (ScheduleP
// clears argFn so dispatch cannot see a stale payload callback), which
// halves the GC write-barrier traffic on the fire path. The stale
// references keep at most one retired callback per slab slot alive —
// bounded, and far cheaper than three barrier-ed nil stores per event.
func (e *Engine) recycle(id int32) {
	e.records[id].gen++
	e.free = append(e.free, id)
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return e.onWheel + len(e.overflow) }

// push queues the scheduled record id: on the wheel when its bucket is
// within the horizon, else on the overflow heap.
func (e *Engine) push(id int32) {
	rec := &e.records[id]
	if rec.when>>bucketShift-e.now>>bucketShift >= wheelSize {
		rec.next = inOverflow
		e.overflow.push(rec, id)
		return
	}
	e.onWheel++
	rec.next = noNext
	b := int(rec.when>>bucketShift) & wheelMask
	if w, bit := b>>6, uint64(1)<<(b&63); e.occupied[w]&bit == 0 {
		e.occupied[w] |= bit
		e.head[b], e.tail[b] = id, id
		return
	}
	// Same-instant events arrive in seq order, so appending is the
	// common case; otherwise insert before the first later event.
	if t := &e.records[e.tail[b]]; !before(rec.when, rec.key, t.when, t.key) {
		t.next = id
		e.tail[b] = id
		return
	}
	p := &e.head[b]
	for n := &e.records[*p]; !before(rec.when, rec.key, n.when, n.key); n = &e.records[*p] {
		p = &n.next
	}
	rec.next, *p = *p, id
}

// unlink removes wheel event id from its bucket.
func (e *Engine) unlink(id int32) {
	rec := &e.records[id]
	b := int(rec.when>>bucketShift) & wheelMask
	e.onWheel--
	p, prev := &e.head[b], noNext
	for *p != id {
		prev = *p
		p = &e.records[prev].next
	}
	*p = rec.next
	if rec.next == noNext {
		if prev == noNext {
			e.occupied[b>>6] &^= 1 << (b & 63)
		} else {
			e.tail[b] = prev
		}
	}
}

// firstBucket returns the first occupied bucket at or after now's,
// wrapping once. The wheel must not be empty.
func (e *Engine) firstBucket() int {
	c := int(e.now>>bucketShift) & wheelMask
	w := c >> 6
	if m := e.occupied[w] >> (c & 63); m != 0 {
		return c + bits.TrailingZeros64(m)
	}
	// On the last pass w is c's word again, and only the bits below c,
	// the buckets at the end of the lap, can be set.
	for i := 0; i < wheelWords; i++ {
		w = (w + 1) % wheelWords
		if m := e.occupied[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: event queue corrupted (wheel count without an occupied bucket)")
}

// Schedule enqueues fn to run at the given absolute time with priority
// zero. Scheduling in the past panics: that is always a model bug.
func (e *Engine) Schedule(at Time, fn func(*Engine)) Event {
	return e.ScheduleP(at, 0, fn)
}

// ScheduleP enqueues fn at the given absolute time with an explicit
// priority. Lower priorities fire first among same-instant events.
// Priority must fit in [-2^23, 2^23).
func (e *Engine) ScheduleP(at Time, priority int, fn func(*Engine)) Event {
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	id := e.alloc()
	rec := &e.records[id]
	rec.when, rec.key, rec.fn = at, e.packKey(at, priority), fn
	rec.argFn = nil // recycle leaves the previous use's fields in place
	e.push(id)
	return Event{eng: e, id: id, gen: rec.gen}
}

// packKey validates the schedule arguments and returns the packed
// (priority, seq) tiebreak, consuming one sequence number.
func (e *Engine) packKey(at Time, priority int) uint64 {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	if priority < -priorityBias || priority >= priorityBias {
		panic(fmt.Sprintf("sim: priority %d outside [%d, %d)", priority, -priorityBias, priorityBias))
	}
	if e.seq >= maxSeq {
		panic("sim: event sequence space exhausted")
	}
	key := uint64(priority+priorityBias)<<seqBits | e.seq
	e.seq++
	return key
}

// ScheduleArg enqueues fn to run at the given absolute time with
// priority zero, passing arg back at fire time. Because fn can be a
// shared package-level function and arg a pointer to existing state,
// this form schedules per-item callbacks (request retirement, per-bank
// timeouts) without allocating a closure per event.
func (e *Engine) ScheduleArg(at Time, fn func(*Engine, any), arg any) Event {
	return e.ScheduleArgP(at, 0, fn, arg)
}

// ScheduleArgP is ScheduleArg with an explicit same-instant priority.
// Priority must fit in [-2^23, 2^23).
func (e *Engine) ScheduleArgP(at Time, priority int, fn func(*Engine, any), arg any) Event {
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	id := e.alloc()
	rec := &e.records[id]
	rec.when, rec.key, rec.argFn, rec.arg = at, e.packKey(at, priority), fn, arg
	// rec.fn may be stale from a prior use; dispatch checks argFn first.
	e.push(id)
	return Event{eng: e, id: id, gen: rec.gen}
}

// After enqueues fn to run delay picoseconds from now.
func (e *Engine) After(delay Time, fn func(*Engine)) Event {
	return e.Schedule(e.now+delay, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired,
// already-cancelled, or zero-handle event is a no-op.
func (e *Engine) Cancel(ev Event) {
	if !ev.Pending() {
		return
	}
	if e.records[ev.id].next != inOverflow {
		e.unlink(ev.id)
	} else {
		// Only far-future timers reach the overflow heap, and few are
		// pending at once, so a scan is cheaper than keeping a heap index
		// per record, which would put a slab store into every sift move.
		for i := range e.overflow {
			if e.overflow[i].id == ev.id {
				e.overflow.remove(i)
				break
			}
		}
	}
	e.recycle(ev.id)
}

// Halt stops Run/RunUntil after the in-flight event returns.
func (e *Engine) Halt() { e.halted = true }

// SetControl arms a control hook that Run/RunUntil invoke every
// `every` fired events. A non-nil return stops the run (like Halt) and
// becomes StopCause. The hook is where callers enforce wall-clock
// deadlines, event budgets, context cancellation, and livelock
// detection without touching the per-event hot path: when disarmed
// (nil fn or zero interval) the run loops pay a single always-false
// integer compare per event, and when armed the hook itself runs only
// once per interval.
func (e *Engine) SetControl(every uint64, fn func(*Engine) error) {
	if fn == nil || every == 0 {
		e.ctrlFn, e.ctrlEvery, e.ctrlNext = nil, 0, noControl
		return
	}
	e.ctrlFn, e.ctrlEvery = fn, every
	e.ctrlNext = e.fired + every
}

// StopCause returns the error that stopped the most recent Run or
// RunUntil via the control hook, or nil if the run ended normally
// (queue drained, deadline reached, or plain Halt).
func (e *Engine) StopCause() error { return e.stopCause }

// runControl fires the armed control hook and schedules its next
// invocation. Kept out of the run loops so their bodies stay small
// enough to inline the common path around.
func (e *Engine) runControl() {
	e.ctrlNext = e.fired + e.ctrlEvery
	if err := e.ctrlFn(e); err != nil {
		e.stopCause = err
		e.halted = true
	}
}

// Step executes the single earliest pending event. It reports false if
// the queue was empty.
func (e *Engine) Step() bool { return e.step(Never) }

// step fires the earliest pending event if it is due at or before
// deadline, reporting whether one fired.
func (e *Engine) step(deadline Time) bool {
	var id int32
	b := -1 // the event's wheel bucket, or -1 when it tops the overflow heap
	switch {
	case e.onWheel > 0:
		b = e.firstBucket()
		id = e.head[b]
		if len(e.overflow) > 0 {
			top, rec := &e.overflow[0], &e.records[id]
			if before(top.when, top.key, rec.when, rec.key) {
				b, id = -1, top.id
			}
		}
	case len(e.overflow) > 0:
		id = e.overflow[0].id
	default:
		return false
	}
	rec := &e.records[id]
	if rec.when > deadline {
		return false
	}
	if rec.when < e.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	if b < 0 {
		e.overflow.pop()
	} else {
		e.onWheel--
		if rec.next == noNext {
			e.occupied[b>>6] &^= 1 << (b & 63)
		} else {
			e.head[b] = rec.next
		}
	}
	e.now = rec.when
	fn, argFn, arg := rec.fn, rec.argFn, rec.arg
	e.recycle(id)
	e.fired++
	if argFn != nil {
		argFn(e, arg)
	} else {
		fn(e)
	}
	return true
}

// Run executes events until the queue drains, Halt is called, or the
// control hook (SetControl) stops the run — in which case StopCause
// reports why.
func (e *Engine) Run() {
	e.halted = false
	e.stopCause = nil
	for !e.halted && e.step(Never) {
		if e.fired >= e.ctrlNext {
			e.runControl()
		}
	}
}

// RunUntil executes events with timestamps <= deadline, then advances
// the clock to the deadline (if it is later than the last event). It
// returns the number of events fired during this call. The control
// hook applies here too; a hook stop leaves the clock at the last
// fired event rather than advancing it to the deadline.
func (e *Engine) RunUntil(deadline Time) uint64 {
	e.halted = false
	e.stopCause = nil
	start := e.fired
	for !e.halted && e.step(deadline) {
		if e.fired >= e.ctrlNext {
			e.runControl()
		}
	}
	if e.stopCause == nil && e.now < deadline {
		e.now = deadline
	}
	return e.fired - start
}

// Clock converts between a fixed-period clock domain and absolute time.
type Clock struct {
	period Time
}

// NewClock returns a clock with the given period. A zero period panics.
func NewClock(period Time) Clock {
	if period == 0 {
		panic("sim: zero clock period")
	}
	return Clock{period: period}
}

// Period returns the clock period in picoseconds.
func (c Clock) Period() Time { return c.period }

// FreqMHz returns the clock frequency in megahertz.
func (c Clock) FreqMHz() float64 {
	return 1e6 / float64(c.period)
}

// Cycles converts a duration to whole cycles, rounding up.
func (c Clock) Cycles(d Time) uint64 {
	return uint64((d + c.period - 1) / c.period)
}

// Duration converts a cycle count to a duration.
func (c Clock) Duration(cycles uint64) Time {
	return Time(cycles) * c.period
}

// NextEdge returns the first clock edge at or after t.
func (c Clock) NextEdge(t Time) Time {
	rem := t % c.period
	if rem == 0 {
		return t
	}
	return t + c.period - rem
}
