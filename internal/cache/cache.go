// Package cache implements the on-chip memory hierarchy substrates of
// the simulated CMP (§VI-A): set-associative write-back caches with
// LRU replacement and MSHR-based miss handling, plus a MESI reverse
// directory that tracks which cluster L2 holds each line.
//
// Timing model: a hit completes after the cache's access latency; a
// miss allocates an MSHR (merging same-line requests), fetches the line
// from the next level, and releases all merged waiters when the fill
// arrives. Dirty victims generate write-backs down the hierarchy.
package cache

import (
	"fmt"
	"math/bits"

	"microbank/internal/config"
	"microbank/internal/reuse"
	"microbank/internal/sim"
)

// State is a MESI coherence state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// FillFunc fetches a cache line from the next level. done must be
// invoked exactly once with the fill completion time.
type FillFunc func(blockAddr uint64, write bool, thread int, done func(at sim.Time))

// WritebackFunc accepts an evicted dirty line (posted; no completion).
type WritebackFunc func(blockAddr uint64, thread int)

// Stats counts cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	MergedMiss uint64 // requests merged into an in-flight MSHR
	Writebacks uint64
	MSHRStall  uint64 // rejected because all MSHRs were busy
	Evictions  uint64
}

// HitRate returns hits/accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// line packs a cache way into 16 bytes so the lookup scan stays within
// one or two cache lines per set: key folds the validity bit into the
// tag (tag<<1|1 when valid, 0 when invalid — a single compare tests
// both), and meta folds the MESI state into the LRU tick
// (lastUse<<2|state).
type line struct {
	key  uint64
	meta uint64
}

func (l *line) valid() bool  { return l.key&1 != 0 }
func (l *line) tag() uint64  { return l.key >> 1 }
func (l *line) state() State { return State(l.meta & 3) }
func (l *line) lastUse() uint64 {
	return l.meta >> 2
}
func (l *line) setState(s State) { l.meta = l.meta&^3 | uint64(s) }

type mshr struct {
	block   uint64
	write   bool
	waiters []func(at sim.Time)
	// fillCb is this record's next-level completion callback, created
	// once when the record is first allocated; because records are
	// pooled, steady-state misses reuse it instead of closing over the
	// record again.
	fillCb func(at sim.Time)
}

// Cache is one set-associative cache level. Construct with New.
type Cache struct {
	eng     *sim.Engine
	geom    config.CacheGeom
	latency sim.Time
	next    FillFunc
	wb      WritebackFunc

	// lines holds every set back to back: way w of set s is
	// lines[s*assoc+w], so a lookup indexes straight into the scan.
	lines     []line
	assoc     int
	setShift  uint
	setMask   uint64
	lineShift uint

	// mshrs holds the busy miss registers (at most geom.MSHRs, so a
	// linear scan beats a map and allocates nothing); mshrFree pools
	// retired records for reuse.
	mshrs    []*mshr
	mshrFree []*mshr

	// OnEvict, when set, is called for every line leaving this cache
	// (capacity eviction or external invalidation) — used for inclusive
	// back-invalidation of upper levels.
	OnEvict func(blockAddr uint64)
	// OnMSHRFree, when set, is called whenever an MSHR retires so
	// stalled requesters can retry.
	OnMSHRFree func()

	useTick uint64
	stats   Stats
}

// New builds a cache level. clockPeriod converts the geometry's cycle
// latency to time; next supplies misses; wb absorbs dirty evictions.
// Its tag array comes cleared from the ones released by earlier caches
// when one of the right length is free (see Release).
func New(eng *sim.Engine, geom config.CacheGeom, clockPeriod sim.Time, next FillFunc, wb WritebackFunc) *Cache {
	nLines := geom.SizeBytes / geom.LineBytes
	nSets := nLines / geom.Assoc
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a positive power of two", nSets))
	}
	c := &Cache{
		eng:       eng,
		geom:      geom,
		latency:   sim.Time(geom.LatencyCy) * clockPeriod,
		next:      next,
		wb:        wb,
		lines:     reuse.Take[line](nSets * geom.Assoc),
		assoc:     geom.Assoc,
		lineShift: uint(bits.TrailingZeros(uint(geom.LineBytes))),
		setMask:   uint64(nSets - 1),
		mshrs:     make([]*mshr, 0, geom.MSHRs),
	}
	c.setShift = c.lineShift
	return c
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// callDone invokes a completion callback carried as a ScheduleArg
// payload. Func values convert to `any` without boxing, so completions
// scheduled through it allocate nothing.
var callDone = func(e *sim.Engine, arg any) { arg.(func(at sim.Time))(e.Now()) }

// findMSHR returns the busy register tracking block, or nil. The busy
// population is bounded by geom.MSHRs (typically ≤16), so a linear scan
// is cheaper than a map lookup and allocates nothing.
func (c *Cache) findMSHR(block uint64) *mshr {
	for _, m := range c.mshrs {
		if m.block == block {
			return m
		}
	}
	return nil
}

// allocMSHR returns a pooled or fresh record. A fresh record gets its
// fillCb wired once; pooled reuse keeps steady-state misses closure-free.
func (c *Cache) allocMSHR() *mshr {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree[n-1] = nil
		c.mshrFree = c.mshrFree[:n-1]
		return m
	}
	m := &mshr{}
	m.fillCb = func(at sim.Time) { c.fill(m, at) }
	return m
}

// Block returns addr truncated to its cache-line base.
func (c *Cache) Block(addr uint64) uint64 { return addr &^ (uint64(c.geom.LineBytes) - 1) }

// ways returns block's set and its tag.
func (c *Cache) ways(block uint64) (ways []line, tag uint64) {
	tag = block >> c.setShift
	base := int(tag&c.setMask) * c.assoc
	return c.lines[base : base+c.assoc : base+c.assoc], tag
}

func (c *Cache) lookup(block uint64) *line {
	ways, tag := c.ways(block)
	want := tag<<1 | 1
	for i := range ways {
		if ways[i].key == want {
			// Transpose one step toward the front. Position within a set
			// carries no semantics — replacement uses the unique LRU
			// ticks and any invalid slot is as good as another — so this
			// is free to migrate hot lines to the head of the scan.
			if i > 0 {
				ways[i], ways[i-1] = ways[i-1], ways[i]
				return &ways[i-1]
			}
			return &ways[0]
		}
	}
	return nil
}

// Probe reports the line's current state without touching LRU order.
func (c *Cache) Probe(addr uint64) State {
	if l := c.lookup(c.Block(addr)); l != nil {
		return l.state()
	}
	return Invalid
}

// Access attempts a load (write=false) or store (write=true). On a hit
// done is scheduled after the access latency; on a miss the line is
// fetched. It returns false — without consuming the request — when all
// MSHRs are busy; the caller must retry (OnMSHRFree signals when).
func (c *Cache) Access(addr uint64, write bool, thread int, done func(at sim.Time)) bool {
	block := c.Block(addr)
	now := c.eng.Now()
	if l := c.lookup(block); l != nil {
		c.stats.Accesses++
		c.stats.Hits++
		c.useTick++
		st := l.meta & 3
		if write {
			st = uint64(Modified)
		}
		l.meta = c.useTick<<2 | st
		if done != nil {
			c.eng.ScheduleArg(now+c.latency, callDone, done)
		}
		return true
	}
	// Miss: merge into an in-flight MSHR when possible.
	if m := c.findMSHR(block); m != nil {
		c.stats.Accesses++
		c.stats.Misses++
		c.stats.MergedMiss++
		m.write = m.write || write
		if done != nil {
			m.waiters = append(m.waiters, done)
		}
		return true
	}
	if len(c.mshrs) >= c.geom.MSHRs {
		c.stats.MSHRStall++
		return false
	}
	c.stats.Accesses++
	c.stats.Misses++
	m := c.allocMSHR()
	m.block, m.write = block, write
	if done != nil {
		m.waiters = append(m.waiters, done)
	}
	c.mshrs = append(c.mshrs, m)
	c.next(block, write, thread, m.fillCb)
	return true
}

// fill installs the fetched line, releases waiters, and retires the
// MSHR back to the pool.
func (c *Cache) fill(m *mshr, at sim.Time) {
	for i, b := range c.mshrs {
		if b == m {
			last := len(c.mshrs) - 1
			c.mshrs[i] = c.mshrs[last]
			c.mshrs[last] = nil
			c.mshrs = c.mshrs[:last]
			break
		}
	}
	c.install(m.block, m.write)
	end := at + c.latency
	for i, w := range m.waiters {
		c.eng.ScheduleArg(end, callDone, w)
		m.waiters[i] = nil
	}
	m.waiters = m.waiters[:0]
	c.mshrFree = append(c.mshrFree, m)
	if c.OnMSHRFree != nil {
		c.OnMSHRFree()
	}
}

// install places the block, evicting the LRU victim if needed.
func (c *Cache) install(block uint64, write bool) {
	ways, tag := c.ways(block)
	victim := -1
	for i := range ways {
		l := &ways[i]
		if !l.valid() {
			victim = i
			break
		}
		if victim < 0 || l.lastUse() < ways[victim].lastUse() {
			victim = i
		}
	}
	v := &ways[victim]
	if v.valid() {
		c.evictLine(v)
	}
	c.useTick++
	st := Exclusive
	if write {
		st = Modified
	}
	*v = line{key: tag<<1 | 1, meta: c.useTick<<2 | uint64(st)}
}

func (c *Cache) evictLine(v *line) {
	blockAddr := (v.tag() << c.setShift)
	c.stats.Evictions++
	if v.state() == Modified && c.wb != nil {
		c.stats.Writebacks++
		c.wb(blockAddr, 0)
	}
	if c.OnEvict != nil {
		c.OnEvict(blockAddr)
	}
	v.key = 0
	v.setState(Invalid)
}

// Invalidate removes the block if present (external coherence action),
// returning its previous state. Dirty data is written back.
func (c *Cache) Invalidate(addr uint64) State {
	l := c.lookup(c.Block(addr))
	if l == nil {
		return Invalid
	}
	prev := l.state()
	c.evictLine(l)
	return prev
}

// Downgrade moves an M/E line to S (coherence read by another node),
// writing back dirty data. It returns the previous state.
func (c *Cache) Downgrade(addr uint64) State {
	l := c.lookup(c.Block(addr))
	if l == nil {
		return Invalid
	}
	prev := l.state()
	if prev == Modified && c.wb != nil {
		c.stats.Writebacks++
		c.wb(c.Block(addr), 0)
	}
	if prev == Modified || prev == Exclusive {
		l.setState(Shared)
	}
	return prev
}

// InflightMisses returns the number of busy MSHRs.
func (c *Cache) InflightMisses() int { return len(c.mshrs) }
