package parallel

// Resilient sweep execution: MapPolicy runs every item under a
// recover and applies a configurable failure mode, so a multi-hour
// campaign survives one pathological cell instead of tearing down
// atomically. Failures come back as structured TaskErrors (item index,
// config digest, elapsed time, panic stack) that the experiment layer
// turns into report entries and metrics. Nothing is retried in
// process: the simulations are deterministic, so a failed item fails
// the same way again.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FailMode selects how a resilient sweep reacts to a failed work item.
type FailMode int

const (
	// FailFast cancels the sweep at the first failure and returns the
	// lowest-index failure, the one a serial loop would have hit first.
	FailFast FailMode = iota
	// FailCollect runs every item to completion and reports all
	// failures together as one *SweepError; healthy results are still
	// returned.
	FailCollect
	// FailDegrade runs every item and returns the healthy results with
	// the failures listed separately; the sweep itself succeeds, so
	// callers can produce a partial grid with failed cells marked.
	FailDegrade
)

// String names the mode as accepted by the CLI -fail-mode flag.
func (m FailMode) String() string {
	switch m {
	case FailFast:
		return "fail-fast"
	case FailCollect:
		return "collect"
	case FailDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("FailMode(%d)", int(m))
	}
}

// ParseFailMode maps a CLI flag value onto a FailMode.
func ParseFailMode(s string) (FailMode, error) {
	switch s {
	case "fail-fast":
		return FailFast, nil
	case "collect":
		return FailCollect, nil
	case "degrade":
		return FailDegrade, nil
	default:
		return FailFast, fmt.Errorf("unknown fail mode %q (fail-fast | collect | degrade)", s)
	}
}

// TaskError describes one failed work item: which item, how it failed
// (error or recovered panic), and how long the item ran. Digest carries the caller's description
// of the item's configuration so a failure in a multi-hour sweep names
// its cell without cross-referencing the job list.
type TaskError struct {
	Index    int
	Digest   string
	Elapsed  time.Duration
	Panicked bool
	// Stack is the raw panic stack (debug.Stack); empty unless
	// Panicked. CleanStack strips its nondeterministic
	// parts for report embedding.
	Stack string
	Err   error
}

// Error renders the failure.
func (e *TaskError) Error() string {
	what := fmt.Sprintf("task %d", e.Index)
	if e.Digest != "" {
		what += " (" + e.Digest + ")"
	}
	verb := "failed"
	if e.Panicked {
		verb = "panicked"
	}
	return fmt.Sprintf("%s %s: %v", what, verb, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// CleanStack returns the panic stack with its nondeterministic content
// removed, suitable for byte-stable reports.
func (e *TaskError) CleanStack() string { return CleanStack(e.Stack) }

// CleanStack strips the parts of a runtime stack trace that vary
// between otherwise identical runs of the same binary — goroutine ids,
// hexadecimal argument values, and instruction offsets — keeping only
// function names and file:line locations. Two runs that fail on the
// same code path therefore produce byte-identical cleaned stacks,
// which is what lets a resumed campaign reproduce its report exactly.
func CleanStack(s string) string {
	var out []string
	for _, ln := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		switch {
		case strings.HasPrefix(ln, "goroutine "):
			continue
		case strings.HasPrefix(ln, "\t"):
			// Location line: "\t/path/file.go:123 +0x5e".
			if i := strings.LastIndex(ln, " +0x"); i >= 0 {
				ln = ln[:i]
			}
		default:
			// Function line: strip the trailing argument list (the last
			// parenthesized group) and "in goroutine N" suffixes.
			if i := strings.Index(ln, " in goroutine "); i >= 0 {
				ln = ln[:i]
			}
			if strings.HasSuffix(ln, ")") {
				if i := strings.LastIndex(ln, "("); i >= 0 {
					ln = ln[:i]
				}
			}
		}
		if ln != "" {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

// SweepError aggregates every failure of a FailCollect sweep.
type SweepError struct {
	Total    int // items in the sweep
	Failures []*TaskError
}

// Error summarizes the failures, spelling out the first few.
func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d of %d tasks failed", len(e.Failures), e.Total)
	for i, f := range e.Failures {
		if i == 3 {
			fmt.Fprintf(&b, "; and %d more", len(e.Failures)-3)
			break
		}
		fmt.Fprintf(&b, "; %v", f)
	}
	return b.String()
}

// Unwrap exposes the lowest-index failure, so errors.Is/As see the
// same error a FailFast sweep would have returned.
func (e *SweepError) Unwrap() error {
	if len(e.Failures) == 0 {
		return nil
	}
	return e.Failures[0]
}

// Policy configures MapPolicy.
type Policy struct {
	Mode FailMode
	// Digest, when non-nil, labels item i in failures — conventionally
	// a human-readable config digest of the sweep cell.
	Digest func(i int) string
}

// MapPolicy applies f to the elements of items using at most
// Width(width) concurrent workers, running each item at most once.
// Every item runs under a recover, so a panicking cell becomes a
// *TaskError (Panicked, with its stack) instead of tearing down the
// process, even when the panic races a sibling's failure or the
// caller's cancellation. The failure mode decides whether one bad cell cancels
// the sweep (FailFast: no new item starts after the first failure),
// fails it after running everything (FailCollect), or degrades it to a
// partial result set (FailDegrade).
//
// Results are assembled in input order and healthy cells are
// byte-identical to a serial run at any width. Failures are returned
// sorted by item index; failed cells hold the zero R. The returned
// error is the lowest-index *TaskError (FailFast), a *SweepError
// (FailCollect with failures), the context's error if the sweep was
// interrupted, or nil (FailDegrade, or no failures).
func MapPolicy[T, R any](ctx context.Context, width int, items []T, pol Policy,
	f func(context.Context, T) (R, error)) ([]R, []*TaskError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(items)
	results := make([]R, n)
	if n == 0 {
		return results, nil, ctx.Err()
	}
	w := Width(width)
	if w > n {
		w = n
	}
	wctx := ctx
	cancel := func() {}
	if pol.Mode == FailFast {
		wctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []*TaskError
	)
	record := func(te *TaskError) {
		mu.Lock()
		failures = append(failures, te)
		mu.Unlock()
		if pol.Mode == FailFast {
			cancel()
		}
	}
	runItem := func(i int) {
		start := time.Now()
		r, err, pv, stack, panicked := guard(wctx, items[i], f)
		if !panicked && err == nil {
			results[i] = r
			return
		}
		te := &TaskError{Index: i, Elapsed: time.Since(start), Panicked: panicked, Err: err}
		if pol.Digest != nil {
			te.Digest = pol.Digest(i)
		}
		if panicked {
			te.Stack = stack
			if perr, ok := pv.(error); ok {
				te.Err = perr
			} else {
				te.Err = fmt.Errorf("panic: %v", pv)
			}
		}
		record(te)
	}
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || wctx.Err() != nil {
					return
				}
				runItem(i)
				if pol.Mode == FailFast && wctx.Err() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	sort.Slice(failures, func(a, b int) bool { return failures[a].Index < failures[b].Index })

	if pol.Mode == FailFast {
		if len(failures) > 0 {
			return nil, failures, failures[0]
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return results, nil, nil
	}
	// Collect / degrade: an interrupted sweep is a campaign-level
	// failure regardless of mode — the caller must not mistake the
	// partial results for a degraded-but-complete grid.
	if err := ctx.Err(); err != nil {
		return nil, failures, err
	}
	if len(failures) == 0 {
		return results, nil, nil
	}
	if pol.Mode == FailCollect {
		return results, failures, &SweepError{Total: n, Failures: failures}
	}
	return results, failures, nil
}
