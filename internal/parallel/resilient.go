package parallel

// Resilient sweep execution: MapPolicy runs every item under a
// recover and either stops at the first failure or runs on past it, so
// a multi-hour campaign survives one pathological cell instead of
// tearing down atomically. Failures come back as structured TaskErrors
// (item index, config digest, panic stack) that the experiment layer
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
)

// TaskError describes one failed work item: which item and how it
// failed (error or recovered panic). Digest carries the caller's
// description of the item's configuration so a failure in a multi-hour
// sweep names its cell without cross-referencing the job list.
type TaskError struct {
	Index    int
	Digest   string
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

// Policy configures MapPolicy.
type Policy struct {
	// FailFast cancels the sweep at the first failure and returns the
	// lowest-index failure, the one a serial loop would have hit
	// first. When false, every item runs and the healthy results come
	// back with the failures listed separately.
	FailFast bool
	// Digest, when non-nil, labels item i in failures — conventionally
	// a human-readable config digest of the sweep cell.
	Digest func(i int) string
}

// MapPolicy applies f to the elements of items using at most
// Width(width) concurrent workers, running each item at most once.
// Every item runs under a recover, so a panicking cell becomes a
// *TaskError (Panicked, with its stack) instead of tearing down the
// process, even when the panic races a sibling's failure or the
// caller's cancellation. Under FailFast one bad cell cancels the sweep
// (no new item starts after the first failure); otherwise the sweep
// runs every item and returns a partial result set.
//
// Results are assembled in input order and healthy cells are
// byte-identical to a serial run at any width. Failures are returned
// sorted by item index; failed cells hold the zero R. The returned
// error is the lowest-index *TaskError (FailFast), the context's error
// if the sweep was interrupted, or nil.
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
	if pol.FailFast {
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
		if pol.FailFast {
			cancel()
		}
	}
	runItem := func(i int) {
		r, err, pv, stack, panicked := guard(wctx, items[i], f)
		if !panicked && err == nil {
			results[i] = r
			return
		}
		te := &TaskError{Index: i, Panicked: panicked, Err: err}
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
				if pol.FailFast && wctx.Err() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	sort.Slice(failures, func(a, b int) bool { return failures[a].Index < failures[b].Index })

	if pol.FailFast {
		if len(failures) > 0 {
			return nil, failures, failures[0]
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return results, nil, nil
	}
	// An interrupted sweep is a campaign-level failure: the caller must
	// not mistake the partial results for a degraded-but-complete grid.
	if err := ctx.Err(); err != nil {
		return nil, failures, err
	}
	return results, failures, nil
}
