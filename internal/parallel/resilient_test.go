package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapPanicRacingCancellation drives a panic that lands while the
// derived context is already cancelled (a lower-index error cancelled
// the sweep first). The panic must still come back as a failure: it
// marks a bug, and dropping it because of the race would hide that bug
// behind a routine error.
func TestMapPanicRacingCancellation(t *testing.T) {
	for round := 0; round < 20; round++ {
		var oneInFlight, zeroFailed sync.WaitGroup
		oneInFlight.Add(1)
		zeroFailed.Add(1)
		_, fails, err := MapPolicy(context.Background(), 2, []int{0, 1}, failFast,
			func(ctx context.Context, v int) (int, error) {
				if v == 0 {
					// Error only once item 1 is in flight, so the
					// cancellation this error triggers races item 1's
					// panic rather than preventing item 1 from starting.
					oneInFlight.Wait()
					defer zeroFailed.Done()
					return 0, errors.New("early error at 0")
				}
				oneInFlight.Done()
				zeroFailed.Wait()
				for ctx.Err() == nil {
					time.Sleep(10 * time.Microsecond)
				}
				panic("late panic")
			})
		var te *TaskError
		if !errors.As(err, &te) || te.Index != 0 {
			t.Fatalf("round %d: err = %v, want the index-0 error", round, err)
		}
		if len(fails) != 2 {
			t.Fatalf("round %d: panic dropped after cancellation: fails = %v", round, fails)
		}
		p := fails[1]
		if p.Index != 1 || !p.Panicked || p.Err.Error() != "panic: late panic" {
			t.Fatalf("round %d: got failure %+v", round, p)
		}
		if !strings.Contains(p.Stack, "resilient_test.go") {
			t.Fatalf("round %d: stack does not point at the panic site:\n%s", round, p.Stack)
		}
	}
}

// TestMapPanicRacingParentCancellation: same race, but the
// cancellation comes from the caller's own context rather than an
// erroring sibling. The panic still outranks context.Canceled.
func TestMapPanicRacingParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var oneInFlight sync.WaitGroup
	oneInFlight.Add(1)
	_, fails, err := MapPolicy(ctx, 2, []int{0, 1}, failFast,
		func(ctx context.Context, v int) (int, error) {
			if v == 0 {
				oneInFlight.Wait()
				cancel()
				return 0, nil
			}
			oneInFlight.Done()
			<-ctx.Done()
			panic("post-cancel panic")
		})
	var te *TaskError
	if !errors.As(err, &te) || !te.Panicked || te.Index != 1 {
		t.Fatalf("err = %v, want the worker panic", err)
	}
	if len(fails) != 1 || fails[0] != te {
		t.Fatalf("fails = %v, want only the panic", fails)
	}
}

// TestMapLowestIndexPanic: when several items panic, the returned
// failure is the lowest-index one — the same guarantee as for errors.
func TestMapLowestIndexPanic(t *testing.T) {
	var release sync.WaitGroup
	release.Add(1)
	_, _, err := MapPolicy(context.Background(), 8, []int{0, 1, 2, 3}, failFast,
		func(_ context.Context, v int) (int, error) {
			switch v {
			case 0:
				release.Wait() // panic last...
				panic("slow panic at 0")
			case 3:
				defer release.Done()
				panic("fast panic at 3") // ...after item 3 already panicked
			}
			return v, nil
		})
	var te *TaskError
	if !errors.As(err, &te) || !te.Panicked {
		t.Fatalf("err = %v, want a panicked *TaskError", err)
	}
	if te.Index != 0 {
		t.Fatalf("returned panic from item %d, want item 0", te.Index)
	}
}

// TestMapSerialPathPanics: width 1 runs on one worker like any other
// width, so a panic comes back as a *TaskError carrying the raw panic
// value's text instead of unwinding into the caller.
func TestMapSerialPathPanics(t *testing.T) {
	_, fails, err := MapPolicy(context.Background(), 1, []int{0}, failFast,
		func(context.Context, int) (int, error) { panic("serial panic") })
	var te *TaskError
	if !errors.As(err, &te) || !te.Panicked || te.Err.Error() != "panic: serial panic" {
		t.Fatalf("err = %v, want the isolated panic", err)
	}
	if len(fails) != 1 || fails[0] != te || te.Stack == "" {
		t.Fatalf("fails = %+v", fails)
	}
}

func TestParseFailMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FailMode
	}{{"fail-fast", FailFast}, {"collect", FailCollect}, {"degrade", FailDegrade}} {
		got, err := ParseFailMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFailMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("FailMode round-trip: %q -> %q", tc.in, got.String())
		}
	}
	if _, err := ParseFailMode("explode"); err == nil {
		t.Fatal("ParseFailMode accepted garbage")
	}
}

// TestMapPolicyDegrade: a panicking cell and an erroring cell in
// degrade mode leave the sweep healthy — full-length results with the
// failed cells zeroed, failures reported structurally, nil error.
func TestMapPolicyDegrade(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5}
	for _, width := range []int{1, 3} {
		res, fails, err := MapPolicy(context.Background(), width, items,
			Policy{Mode: FailDegrade, Digest: func(i int) string { return fmt.Sprintf("cell%d", i) }},
			func(_ context.Context, v int) (int, error) {
				switch v {
				case 2:
					panic("bad cell")
				case 4:
					return 0, errors.New("sim diverged")
				}
				return v * 10, nil
			})
		if err != nil {
			t.Fatalf("width %d: degrade sweep errored: %v", width, err)
		}
		want := []int{0, 10, 0, 30, 0, 50}
		for i := range want {
			if res[i] != want[i] {
				t.Fatalf("width %d: res[%d] = %d, want %d", width, i, res[i], want[i])
			}
		}
		if len(fails) != 2 || fails[0].Index != 2 || fails[1].Index != 4 {
			t.Fatalf("width %d: failures = %+v", width, fails)
		}
		if !fails[0].Panicked || fails[0].Stack == "" || fails[0].Digest != "cell2" {
			t.Fatalf("width %d: panic failure not fully described: %+v", width, fails[0])
		}
		if fails[1].Panicked || fails[1].Err.Error() != "sim diverged" {
			t.Fatalf("width %d: error failure mislabelled: %+v", width, fails[1])
		}
	}
}

// TestMapPolicyCollect: everything runs, all failures aggregate into
// one SweepError whose Unwrap chain reaches the lowest-index failure.
func TestMapPolicyCollect(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, fails, err := MapPolicy(context.Background(), 4, make([]int, 20),
		Policy{Mode: FailCollect},
		func(_ context.Context, _ int) (int, error) {
			if n := ran.Add(1); n%5 == 0 {
				return 0, boom
			}
			return 1, nil
		})
	if ran.Load() != 20 {
		t.Fatalf("collect mode ran only %d/20 items", ran.Load())
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if len(se.Failures) != len(fails) || se.Total != 20 {
		t.Fatalf("SweepError = %+v vs fails %d", se, len(fails))
	}
	if !errors.Is(err, boom) {
		t.Fatalf("SweepError does not unwrap to the underlying failure: %v", err)
	}
}

// TestMapPolicyFailFast: the sweep cancels early and returns the
// lowest-index TaskError; a panic becomes an error value, not a panic.
func TestMapPolicyFailFast(t *testing.T) {
	var started atomic.Int64
	_, fails, err := MapPolicy(context.Background(), 2, make([]int, 1000),
		Policy{Mode: FailFast},
		func(_ context.Context, _ int) (int, error) {
			if started.Add(1) == 1 {
				panic("first cell explodes")
			}
			time.Sleep(100 * time.Microsecond)
			return 0, nil
		})
	var te *TaskError
	if !errors.As(err, &te) || !te.Panicked {
		t.Fatalf("err = %v, want a panicked *TaskError", err)
	}
	if len(fails) == 0 || fails[0] != te {
		t.Fatalf("returned error is not the lowest-index failure")
	}
	if n := started.Load(); n == 1000 {
		t.Fatal("fail-fast did not stop the sweep early")
	}
}

// TestMapPolicyPanicsNeverRetried: the simulator is deterministic, so
// a failed cell fails identically on every attempt; MapPolicy runs
// every item exactly once, failing or not, in every mode. Rerunning a
// campaign against its result store is the retry.
func TestMapPolicyPanicsNeverRetried(t *testing.T) {
	for _, mode := range []FailMode{FailFast, FailCollect, FailDegrade} {
		var runs [3]atomic.Int64
		_, fails, _ := MapPolicy(context.Background(), 1, []int{0, 1, 2}, Policy{Mode: mode},
			func(_ context.Context, v int) (int, error) {
				runs[v].Add(1)
				switch v {
				case 0:
					panic("deterministic panic")
				case 1:
					return 0, errors.New("deterministic error")
				}
				return v, nil
			})
		want := [3]int64{1, 1, 1}
		if mode == FailFast {
			want = [3]int64{1, 0, 0} // nothing starts after the first failure
		}
		for i := range runs {
			if got := runs[i].Load(); got != want[i] {
				t.Fatalf("%v: item %d ran %d times, want %d", mode, i, got, want[i])
			}
		}
		if len(fails) == 0 || !fails[0].Panicked {
			t.Fatalf("%v: fails = %+v", mode, fails)
		}
	}
}

// TestMapPolicyParentCancellation: caller-level cancellation is an
// interruption, not a degraded completion — even degrade mode must
// return the context error so partial results aren't mistaken for a
// finished grid.
func TestMapPolicyParentCancellation(t *testing.T) {
	for _, mode := range []FailMode{FailCollect, FailDegrade} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		res, _, err := MapPolicy(ctx, 2, make([]int, 1000),
			Policy{Mode: mode},
			func(context.Context, int) (int, error) {
				if started.Add(1) == 3 {
					cancel()
				}
				return 0, nil
			})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("%v: res=%v err = %v, want context.Canceled and no results", mode, res != nil, err)
		}
		if n := started.Load(); n == 1000 {
			t.Fatalf("%v: cancellation did not stop new work", mode)
		}
	}
}

func TestTaskErrorRendering(t *testing.T) {
	te := &TaskError{Index: 7, Digest: "nW=4 nB=8", Err: errors.New("boom")}
	if got := te.Error(); got != "task 7 (nW=4 nB=8) failed: boom" {
		t.Fatalf("Error() = %q", got)
	}
	te = &TaskError{Index: 2, Panicked: true, Err: errors.New("panic: bad")}
	if got := te.Error(); got != "task 2 panicked: panic: bad" {
		t.Fatalf("Error() = %q", got)
	}
}

// TestCleanStackDeterministic: two panics on the same code path clean
// to byte-identical stacks — goroutine ids, argument hex, and +0x
// offsets are the only parts that differ run to run.
func TestCleanStackDeterministic(t *testing.T) {
	grab := func() string {
		_, fails, _ := MapPolicy(context.Background(), 2, []int{0, 1},
			Policy{Mode: FailDegrade},
			func(_ context.Context, v int) (int, error) {
				if v == 1 {
					panic("same path")
				}
				return v, nil
			})
		if len(fails) != 1 {
			t.Fatalf("fails = %v", fails)
		}
		return fails[0].CleanStack()
	}
	a, b := grab(), grab()
	if a != b {
		t.Fatalf("cleaned stacks differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if a == "" || strings.Contains(a, "goroutine ") || strings.Contains(a, "+0x") {
		t.Fatalf("stack not cleaned:\n%s", a)
	}
	if !strings.Contains(a, "resilient_test.go") {
		t.Fatalf("cleaned stack lost the panic site:\n%s", a)
	}
}
