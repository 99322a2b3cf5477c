package cache

import (
	"runtime"
	"testing"

	"microbank/internal/sim"
)

// TestReleasedTagArrayStartsEmpty: a cache built after a released one
// of the same geometry takes over its tag array and finds none of the
// released cache's lines, so it misses exactly as a fresh cache would.
func TestReleasedTagArrayStartsEmpty(t *testing.T) {
	// One P, so Release and New meet in the same per-P pool slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng := sim.NewEngine()
	c, _ := newTestCache(eng)
	n := len(c.lines)
	touchAll := func(c *Cache) {
		for i := 0; i < n; i++ {
			i := i
			eng.Schedule(eng.Now(), func(*sim.Engine) { c.Access(uint64(i)*64, true, 0, nil) })
			eng.Run()
		}
	}
	touchAll(c)
	if st := c.Stats(); st.Misses != uint64(n) || st.Evictions != 0 {
		t.Fatalf("filling %d lines: %+v", n, st)
	}
	released := &c.lines[0]
	c.Release()
	c.Release() // a second Release is a no-op
	if c.lines != nil {
		t.Fatal("Release kept the tag array")
	}

	d, b := newTestCache(eng)
	if !raceEnabled && &d.lines[0] != released {
		t.Error("New did not reuse the released tag array")
	}
	for i := 0; i < n; i++ {
		if st := d.Probe(uint64(i) * 64); st != Invalid {
			t.Fatalf("line %#x is %v in the new cache, want I", i*64, st)
		}
	}
	touchAll(d)
	if st := d.Stats(); st.Misses != uint64(n) || st.Evictions != 0 || len(b.writes) != 0 {
		t.Fatalf("refilling %d lines: %+v, %d writebacks", n, st, len(b.writes))
	}
}

// TestReleasedDirectoryTableStartsEmpty: a directory built after a
// released one keeps the released table's grown size and holds none of
// its lines.
func TestReleasedDirectoryTableStartsEmpty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	old := NewDirectory(4)
	for b := uint64(0); b < 1000; b++ {
		old.Fill(b<<6, int(b%4), b%3 == 0)
	}
	grown := len(old.slots)
	old.Release()
	if old.slots != nil || old.owner != nil {
		t.Fatal("Release kept the table")
	}

	d := NewDirectory(4)
	if !raceEnabled && len(d.slots) != grown {
		t.Errorf("new directory has %d slots, want the released table's %d", len(d.slots), grown)
	}
	for b := uint64(0); b < 1000; b++ {
		if n := d.Sharers(b << 6); n != 0 {
			t.Fatalf("line %#x has %d sharers in the new directory, want 0", b<<6, n)
		}
		if out := d.Fill(b<<6, 1, false); !out.NeedMem || out.ExtraHops != 0 {
			t.Fatalf("cold fill of %#x: %+v", b<<6, out)
		}
	}
}
