package reuse

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// onePNoGC pins the test to one P with the collector off, so a Put and
// the next Take meet in the same per-P pool slot and no collection
// empties the store between them.
func onePNoGC(t *testing.T) {
	t.Helper()
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// TestTakeReturnsClearedSlice: a released slice comes back from Take of
// its type and length cleared, and never from a Take of another length
// or element type.
func TestTakeReturnsClearedSlice(t *testing.T) {
	onePNoGC(t)
	s := Take[int64](100)
	for i := range s {
		s[i] = int64(i) + 1
	}
	Put(s)
	if other := Take[int64](99); len(other) != 99 {
		t.Fatalf("Take(99) has length %d", len(other))
	}
	if other := Take[uint64](100); len(other) != 100 {
		t.Fatalf("Take[uint64](100) has length %d", len(other))
	}
	got := Take[int64](100)
	if !raceEnabled && &got[0] != &s[0] {
		t.Error("Take did not reuse the released slice")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("reused slice holds %d at %d, want 0", v, i)
		}
	}
	Put([]int64(nil)) // ignored
}

// TestReseededRandMatchesFresh: a released generator that was partly
// consumed, reseeded by NewRand, yields exactly the draws of
// rand.New(rand.NewSource(seed)).
func TestReseededRandMatchesFresh(t *testing.T) {
	onePNoGC(t)
	for i, seed := range []int64{0, 1, 42, 1009, -7, 1 << 40} {
		old := NewRand(seed + 12345)
		for k := 0; k < 1000+i*377; k++ {
			old.Int63()
		}
		old.Float64()
		PutOne(old)

		got := NewRand(seed)
		if !raceEnabled && got != old {
			t.Errorf("seed %d: NewRand did not reuse the released generator", seed)
		}
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < 10000; k++ {
			var g, w uint64
			switch k % 4 {
			case 0:
				g, w = got.Uint64(), want.Uint64()
			case 1:
				g, w = uint64(got.Intn(1000)), uint64(want.Intn(1000))
			case 2:
				g, w = uint64(got.Float64()*(1<<53)), uint64(want.Float64()*(1<<53))
			default:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			}
			if g != w {
				t.Fatalf("seed %d: draw %d is %d, fresh source gives %d", seed, k, g, w)
			}
		}
		PutOne(got)
	}
}
