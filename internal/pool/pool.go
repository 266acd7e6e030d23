// Package pool provides a bounded fork-join worker pool with a
// deterministic error contract, used to fan independent trials, grid
// points and tiles out across CPU cores.
//
// Parallel sections in this codebase must be byte-identical at any worker
// count: every unit of work derives its randomness from (seed, index), so
// the only scheduling-dependent artifact left is *which* error a failing
// run reports. Run pins that down too — it always reports the error of
// the lowest failing index, regardless of how goroutines interleave — so
// `Verify` under 1 worker and under GOMAXPROCS workers return the same
// error, message and all.
//
// RunCtx adds cooperative cancellation on top: workers observe the
// context between items and a canceled run surfaces as the distinct
// guard.ErrCanceled / guard.ErrDeadline sentinels, never as a silently
// truncated "success".
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"chopper/internal/guard"
)

// Size resolves a requested worker count: values <= 0 mean "one worker
// per available CPU" (GOMAXPROCS).
func Size(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run executes fn(i) for every index i in [0, n), spreading the indices
// over Size(workers) goroutines. If workers resolves to 1 (or n is 1) the
// calls happen inline on the caller's goroutine — no spawn, no overhead.
//
// The error contract is deterministic: Run returns the error of the
// LOWEST failing index. Once some index fails, indices above it that have
// not started yet are skipped (they can never change the result); indices
// below a recorded failure always run, so the winner cannot depend on
// scheduling. fn must confine its side effects to index-disjoint state
// (e.g. slot i of a results slice) for the whole section to stay
// deterministic.
func Run(workers, n int, fn func(i int) error) error {
	return RunCtx(nil, workers, n, fn)
}

// RunCtx is Run with cooperative cancellation: every worker observes ctx
// between items, so a canceled or deadline-expired context stops the
// fan-out promptly — no new items start, in-flight items finish — and
// RunCtx returns guard.ErrCanceled or guard.ErrDeadline. A nil ctx (what
// Run passes) disables the checks at negligible cost.
//
// The deterministic error contract is preserved: if any item failed, the
// error of the LOWEST failing index wins, exactly as in Run, regardless
// of worker count. An item that panics fails at its index too: when the
// lowest failing index panicked, its panic is re-raised on the caller's
// goroutine — what the inline path does — so a caller that recovers
// panics sees the same value at 1 worker and at 32. The cancellation
// sentinel is returned only when no item failed, so a partial run is never
// reported as complete: a nil result still means every index ran. A
// context that is already dead on entry returns its sentinel before item 0
// starts, at any worker count.
func RunCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return guard.Ctx(ctx)
	}
	if err := guard.Ctx(ctx); err != nil {
		return err
	}
	w := Size(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := guard.Ctx(ctx); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64          // next index to claim
	var minFailAtomic atomic.Int64 // lowest failing index seen so far
	minFailAtomic.Store(int64(n))

	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if guard.Ctx(ctx) != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				// Indices above the lowest known failure cannot win;
				// skip them (but keep draining so lower indices finish).
				if int64(i) > minFailAtomic.Load() {
					continue
				}
				if err := call(fn, i); err != nil {
					errs[i] = err
					for {
						cur := minFailAtomic.Load()
						if int64(i) >= cur || minFailAtomic.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if p, ok := err.(panicked); ok {
			panic(p.v)
		}
		if err != nil {
			return err
		}
	}
	return guard.Ctx(ctx)
}

// panicked is the failure of an item that panicked on a pool goroutine,
// carrying the value RunCtx re-raises on the caller's.
type panicked struct{ v any }

func (p panicked) Error() string { return fmt.Sprint("pool: panic: ", p.v) }

// call runs fn(i), recording a panic as the item's failure.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicked{r}
		}
	}()
	return fn(i)
}
