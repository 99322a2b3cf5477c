package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"microbank/internal/config"
	"microbank/internal/sim"
)

func geom() config.CacheGeom {
	return config.CacheGeom{SizeBytes: 4096, Assoc: 4, LineBytes: 64, LatencyCy: 2, MSHRs: 4, Banks: 1}
}

// memBackend is a fixed-latency next level recording traffic.
type memBackend struct {
	eng     *sim.Engine
	latency sim.Time
	fills   []uint64
	writes  []uint64
}

func (m *memBackend) fill(block uint64, write bool, thread int, done func(at sim.Time)) {
	m.fills = append(m.fills, block)
	at := m.eng.Now() + m.latency
	m.eng.Schedule(at, func(*sim.Engine) { done(at) })
}

func (m *memBackend) writeback(block uint64, thread int) {
	m.writes = append(m.writes, block)
}

func newTestCache(eng *sim.Engine) (*Cache, *memBackend) {
	b := &memBackend{eng: eng, latency: 100 * sim.Nanosecond}
	c := New(eng, geom(), 500, b.fill, b.writeback)
	return c, b
}

func TestMissThenHit(t *testing.T) {
	eng := sim.NewEngine()
	c, b := newTestCache(eng)
	var missAt, hitAt sim.Time
	eng.Schedule(0, func(*sim.Engine) {
		if !c.Access(0x1000, false, 0, func(at sim.Time) { missAt = at }) {
			t.Error("first access rejected")
		}
	})
	eng.Run()
	// Miss: 100ns fill + 2-cycle (1ns) latency.
	if missAt != 101*sim.Nanosecond {
		t.Fatalf("miss completed at %d", missAt)
	}
	eng.Schedule(eng.Now(), func(*sim.Engine) {
		c.Access(0x1000, false, 0, func(at sim.Time) { hitAt = at })
	})
	eng.Run()
	if hitAt != missAt+1*sim.Nanosecond {
		t.Fatalf("hit completed at %d, want %d", hitAt, missAt+1*sim.Nanosecond)
	}
	if len(b.fills) != 1 {
		t.Fatalf("fills = %d, want 1", len(b.fills))
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Accesses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSameLineDifferentOffsetHits(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng)
	eng.Schedule(0, func(*sim.Engine) { c.Access(0x1000, false, 0, nil) })
	eng.Run()
	hits := 0
	eng.Schedule(eng.Now(), func(*sim.Engine) {
		for off := uint64(0); off < 64; off += 8 {
			c.Access(0x1000+off, false, 0, func(sim.Time) { hits++ })
		}
	})
	eng.Run()
	if hits != 8 {
		t.Fatalf("hits = %d, want 8", hits)
	}
}

func TestMSHRMerging(t *testing.T) {
	eng := sim.NewEngine()
	c, b := newTestCache(eng)
	done := 0
	eng.Schedule(0, func(*sim.Engine) {
		for i := 0; i < 5; i++ {
			if !c.Access(0x2000, false, 0, func(sim.Time) { done++ }) {
				t.Error("merged access rejected")
			}
		}
	})
	eng.Run()
	if len(b.fills) != 1 {
		t.Fatalf("fills = %d, want 1 (merged)", len(b.fills))
	}
	if done != 5 {
		t.Fatalf("done = %d, want 5", done)
	}
	if st := c.Stats(); st.MergedMiss != 4 {
		t.Fatalf("MergedMiss = %d, want 4", st.MergedMiss)
	}
}

func TestMSHRLimitAndRetry(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng)
	freed := 0
	c.OnMSHRFree = func() { freed++ }
	rejected := false
	eng.Schedule(0, func(*sim.Engine) {
		for i := 0; i < 4; i++ {
			c.Access(uint64(i)*0x10000, false, 0, nil)
		}
		if c.InflightMisses() != 4 {
			t.Errorf("inflight = %d", c.InflightMisses())
		}
		rejected = !c.Access(0x90000, false, 0, nil)
	})
	eng.Run()
	if !rejected {
		t.Fatal("5th concurrent miss accepted despite 4 MSHRs")
	}
	if freed != 4 {
		t.Fatalf("OnMSHRFree fired %d times, want 4", freed)
	}
	if c.Stats().MSHRStall != 1 {
		t.Fatalf("MSHRStall = %d", c.Stats().MSHRStall)
	}
}

func TestLRUEvictionAndWriteback(t *testing.T) {
	eng := sim.NewEngine()
	c, b := newTestCache(eng)
	// 4096/64/4 = 16 sets; same set every 16 lines (stride 1024).
	addrs := func(i int) uint64 { return uint64(i) * 1024 }
	eng.Schedule(0, func(*sim.Engine) {
		c.Access(addrs(0), true, 0, nil) // dirty
	})
	eng.Run()
	for i := 1; i <= 4; i++ { // fill remaining ways + one eviction
		i := i
		eng.Schedule(eng.Now(), func(*sim.Engine) { c.Access(addrs(i), false, 0, nil) })
		eng.Run()
	}
	if len(b.writes) != 1 || b.writes[0] != addrs(0) {
		t.Fatalf("writebacks = %v, want [0]", b.writes)
	}
	if c.Probe(addrs(0)) != Invalid {
		t.Fatal("victim still present")
	}
	if c.Probe(addrs(4)) == Invalid {
		t.Fatal("newest line missing")
	}
}

func TestLRUKeepsRecentlyUsed(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng)
	addrs := func(i int) uint64 { return uint64(i) * 1024 }
	for i := 0; i < 4; i++ {
		i := i
		eng.Schedule(eng.Now(), func(*sim.Engine) { c.Access(addrs(i), false, 0, nil) })
		eng.Run()
	}
	// Touch line 0 so line 1 becomes LRU.
	eng.Schedule(eng.Now(), func(*sim.Engine) { c.Access(addrs(0), false, 0, nil) })
	eng.Run()
	eng.Schedule(eng.Now(), func(*sim.Engine) { c.Access(addrs(9), false, 0, nil) })
	eng.Run()
	if c.Probe(addrs(0)) == Invalid {
		t.Fatal("recently used line evicted")
	}
	if c.Probe(addrs(1)) != Invalid {
		t.Fatal("LRU line survived")
	}
}

func TestWriteSetsModified(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng)
	eng.Schedule(0, func(*sim.Engine) { c.Access(0x40, false, 0, nil) })
	eng.Run()
	if c.Probe(0x40) != Exclusive {
		t.Fatalf("read fill state = %v, want E", c.Probe(0x40))
	}
	eng.Schedule(eng.Now(), func(*sim.Engine) { c.Access(0x40, true, 0, nil) })
	eng.Run()
	if c.Probe(0x40) != Modified {
		t.Fatalf("state after write = %v, want M", c.Probe(0x40))
	}
	// Write miss installs M directly.
	eng.Schedule(eng.Now(), func(*sim.Engine) { c.Access(0x8000, true, 0, nil) })
	eng.Run()
	if c.Probe(0x8000) != Modified {
		t.Fatal("write-miss fill not Modified")
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	eng := sim.NewEngine()
	c, b := newTestCache(eng)
	eng.Schedule(0, func(*sim.Engine) { c.Access(0x40, true, 0, nil) })
	eng.Run()
	evicted := []uint64{}
	c.OnEvict = func(a uint64) { evicted = append(evicted, a) }
	if st := c.Downgrade(0x40); st != Modified {
		t.Fatalf("Downgrade returned %v", st)
	}
	if len(b.writes) != 1 {
		t.Fatal("downgrade of M did not write back")
	}
	if c.Probe(0x40) != Shared {
		t.Fatal("downgraded line not Shared")
	}
	if st := c.Invalidate(0x40); st != Shared {
		t.Fatalf("Invalidate returned %v", st)
	}
	if c.Probe(0x40) != Invalid {
		t.Fatal("line survived invalidation")
	}
	if len(evicted) != 1 {
		t.Fatal("OnEvict not fired for invalidation")
	}
	if c.Invalidate(0x9999000) != Invalid {
		t.Fatal("invalidating absent line should return Invalid")
	}
	if c.Downgrade(0x9999000) != Invalid {
		t.Fatal("downgrading absent line should return Invalid")
	}
}

// Property: after any random access sequence, the number of distinct
// resident lines never exceeds capacity, and every completion fires
// exactly once.
func TestCacheBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		c, _ := newTestCache(eng)
		want, got := 0, 0
		for i := 0; i < 300; i++ {
			addr := uint64(rng.Intn(64)) * 64 * uint64(1+rng.Intn(32))
			wr := rng.Intn(3) == 0
			eng.Schedule(eng.Now(), func(*sim.Engine) {
				if c.Access(addr, wr, 0, func(sim.Time) { got++ }) {
					want++
				}
			})
			eng.Run()
		}
		resident := 0
		for i := range c.lines {
			if c.lines[i].state() != Invalid {
				resident++
			}
		}
		return got == want && resident <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", State(7): "State(7)"} {
		if s.String() != want {
			t.Errorf("%d = %q, want %q", s, s.String(), want)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	g := geom()
	g.SizeBytes = 4096 * 3 // 48 sets, not a power of two
	New(sim.NewEngine(), g, 500, nil, nil)
}

func TestHitRateStat(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate")
	}
	s.Accesses, s.Hits = 10, 9
	if s.HitRate() != 0.9 {
		t.Fatal("hit rate")
	}
}
