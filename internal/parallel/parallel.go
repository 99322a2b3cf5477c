// Package parallel provides the bounded worker pool the experiment
// layer fans independent simulations out with: MapPolicy, which runs
// every item under a recover and either stops at the first failure
// or runs on past it.
// Results are assembled in input order, so a parallel sweep produces
// output byte-identical to the serial loop it replaces; each
// simulation takes an explicit seed, so runs stay reproducible under
// any schedule.
package parallel

import (
	"context"
	"runtime"
	"runtime/debug"
)

// Width returns the effective worker count for a requested width n:
// n itself when positive, otherwise runtime.GOMAXPROCS(0).
func Width(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// guard runs f on one item, converting a panic into (value, stack,
// true) instead of unwinding the worker goroutine.
func guard[T, R any](ctx context.Context, item T,
	f func(context.Context, T) (R, error)) (r R, err error, pv any, stack string, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			pv, stack, panicked = v, string(debug.Stack()), true
		}
	}()
	r, err = f(ctx, item)
	return
}
