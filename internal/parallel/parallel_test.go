package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWidthClamping(t *testing.T) {
	if got := Width(4); got != 4 {
		t.Fatalf("Width(4) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Width(0); got != want {
		t.Fatalf("Width(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Width(-3); got != want {
		t.Fatalf("Width(-3) = %d, want GOMAXPROCS %d", got, want)
	}
}

// failFast is the policy a sweep runs under when no resilience is
// asked for; the TestMap* tests pin MapPolicy's behaviour in it.
var failFast = Policy{FailFast: true}

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, width := range []int{1, 4, 8, 200} {
		got, fails, err := MapPolicy(context.Background(), width, items, failFast,
			func(_ context.Context, v int) (int, error) { return v * v, nil })
		if err != nil || fails != nil {
			t.Fatalf("width %d: err=%v fails=%v", width, err, fails)
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("width %d: result[%d] = %d, want %d", width, i, r, i*i)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const width = 3
	var cur, peak atomic.Int64
	_, _, err := MapPolicy(context.Background(), width, make([]struct{}, 50), failFast,
		func(context.Context, struct{}) (struct{}, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > width {
		t.Fatalf("peak concurrency %d exceeds width %d", p, width)
	}
}

func TestMapEmpty(t *testing.T) {
	for _, ff := range []bool{true, false} {
		got, fails, err := MapPolicy(context.Background(), 8, nil, Policy{FailFast: ff},
			func(context.Context, int) (int, error) { return 0, nil })
		if err != nil || fails != nil || len(got) != 0 {
			t.Fatalf("FailFast=%v: empty map: %v %v %v", ff, got, fails, err)
		}
	}
}

func TestMapErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, width := range []int{1, 4} {
		got, _, err := MapPolicy(context.Background(), width, items, failFast,
			func(_ context.Context, v int) (int, error) {
				if v == 3 || v == 6 {
					return 0, fmt.Errorf("item %d: %w", v, boom)
				}
				return v, nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("width %d: err = %v, want wrapped boom", width, err)
		}
		if got != nil {
			t.Fatalf("width %d: partial results not discarded", width)
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	// Item 0 fails slowly, item 5 fails fast; the error reported must
	// still be item 0's (the one a serial loop would have hit first).
	var release sync.WaitGroup
	release.Add(1)
	_, _, err := MapPolicy(context.Background(), 8, []int{0, 1, 2, 3, 4, 5}, failFast,
		func(_ context.Context, v int) (int, error) {
			switch v {
			case 0:
				release.Wait()
				return 0, errors.New("slow failure at 0")
			case 5:
				defer release.Done()
				return 0, errors.New("fast failure at 5")
			}
			return v, nil
		})
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 0 || te.Err.Error() != "slow failure at 0" {
		t.Fatalf("err = %v, want the index-0 failure", err)
	}
}

func TestMapErrorStopsNewWork(t *testing.T) {
	var started atomic.Int64
	_, _, err := MapPolicy(context.Background(), 2, make([]int, 1000), failFast,
		func(context.Context, int) (int, error) {
			if started.Add(1) == 1 {
				return 0, errors.New("first item fails")
			}
			time.Sleep(100 * time.Microsecond)
			return 0, nil
		})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n == 1000 {
		t.Fatal("error did not stop the sweep early")
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := MapPolicy(ctx, 2, make([]int, 1000), failFast,
			func(ctx context.Context, _ int) (int, error) {
				if started.Add(1) == 1 {
					cancel()
				}
				return 0, nil
			})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the map")
	}
	if n := started.Load(); n == 1000 {
		t.Fatal("cancellation did not stop new work")
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ff := range []bool{true, false} {
		for _, width := range []int{1, 4} {
			var ran atomic.Int64
			_, _, err := MapPolicy(ctx, width, []int{1, 2, 3}, Policy{FailFast: ff},
				func(context.Context, int) (int, error) { ran.Add(1); return 0, nil })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("FailFast=%v width %d: err = %v, want context.Canceled", ff, width, err)
			}
			if n := ran.Load(); n != 0 {
				t.Fatalf("FailFast=%v width %d: %d item(s) ran under a cancelled context", ff, width, n)
			}
		}
	}
}
