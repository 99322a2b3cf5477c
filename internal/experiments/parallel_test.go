package experiments

import (
	"reflect"
	"testing"
)

// TestFig8ParallelDeterminism asserts the tentpole invariant of the
// worker-pool rewiring: a sweep's output is deeply equal at every
// parallelism width, because runs are seeded explicitly and reduced in
// job order regardless of completion schedule.
func TestFig8ParallelDeterminism(t *testing.T) {
	small := Options{Quick: true, Instr: 8000, Cores: 8, Seed: 7}
	serial := small
	serial.Parallelism = 1
	wide := small
	wide.Parallelism = 8

	ipc1, edp1, err := Fig8And9(serial)
	if err != nil {
		t.Fatal(err)
	}
	ipc8, edp8, err := Fig8And9(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ipc1, ipc8) {
		t.Errorf("IPC grids differ between -j 1 and -j 8:\n%+v\n%+v", ipc1, ipc8)
	}
	if !reflect.DeepEqual(edp1, edp8) {
		t.Errorf("1/EDP grids differ between -j 1 and -j 8:\n%+v\n%+v", edp1, edp8)
	}
}

// TestHeadlineParallelDeterminism covers the paired-run reduction
// (baseline and μbank runs of one benchmark land at different indexes)
// on the default path, a nil Options.Res.
func TestHeadlineParallelDeterminism(t *testing.T) {
	small := Options{Quick: true, Instr: 8000, Cores: 8, Seed: 7}
	serial := small
	serial.Parallelism = 1

	h1, err := Headline(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{4, 8} {
		wide := small
		wide.Parallelism = width
		hw, err := Headline(wide)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != hw {
			t.Errorf("headline differs between -j 1 and -j %d: %+v vs %+v", width, h1, hw)
		}
	}
}

// TestBestDeterministicOnTies pins the fixed-axis-order scan: with two
// equal maxima the smallest (nB, nW) in Axis order must win, not
// whichever a map iteration happens to visit first.
func TestBestDeterministicOnTies(t *testing.T) {
	g := &GridData{Metric: "IPC", Rel: map[[2]int]float64{}}
	for _, b := range Axis {
		for _, w := range Axis {
			g.Rel[[2]int{w, b}] = 1.0
		}
	}
	g.Rel[[2]int{4, 2}] = 2.0
	g.Rel[[2]int{2, 4}] = 2.0 // tied; (nB=2, nW=4) comes first in Axis order
	for i := 0; i < 20; i++ {
		nW, nB, val := g.Best()
		if nW != 4 || nB != 2 || val != 2.0 {
			t.Fatalf("Best() = (%d,%d,%v), want (4,2,2) deterministically", nW, nB, val)
		}
	}
}
