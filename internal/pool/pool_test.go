package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"chopper/internal/guard"
)

func TestRunExecutesAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 97
		hit := make([]atomic.Bool, n)
		if err := Run(workers, n, func(i int) error {
			if hit[i].Swap(true) {
				return fmt.Errorf("index %d ran twice", i)
			}
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hit {
			if !hit[i].Load() {
				t.Fatalf("workers=%d: index %d never ran", workers, i)
			}
		}
	}
}

func TestRunReturnsLowestError(t *testing.T) {
	// Whatever the interleaving, the reported error must be the one from
	// the lowest failing index.
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 20; rep++ {
			err := Run(workers, 64, func(i int) error {
				if i == 7 || i == 40 {
					return fmt.Errorf("fail at %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "fail at 7" {
				t.Fatalf("workers=%d rep=%d: got %v, want fail at 7", workers, rep, err)
			}
		}
	}
}

func TestRunLowerIndicesAlwaysRun(t *testing.T) {
	// A failure at a high index must not skip lower indices: the lowest
	// failing index always executes, keeping the result deterministic.
	var ran atomic.Int64
	err := Run(4, 32, func(i int) error {
		ran.Add(1)
		if i >= 16 {
			return errors.New("late failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if ran.Load() < 17 {
		t.Fatalf("only %d indices ran; the 16 passing ones plus a failure must", ran.Load())
	}
}

func TestRunCtxPreCanceledRunsNothing(t *testing.T) {
	// A context that is dead on entry must return its sentinel before any
	// item runs — identically at every worker count.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		var ran atomic.Int64
		err := RunCtx(ctx, workers, 64, func(int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("workers=%d: got %v, want ErrCanceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d items ran under a pre-canceled ctx", workers, ran.Load())
		}
	}
	// Deadline expiry surfaces as the distinct deadline sentinel.
	d, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if err := RunCtx(d, 4, 8, func(int) error { return nil }); !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

func TestRunCtxMidRunCancelNeverCompletes(t *testing.T) {
	// Cancel once the run is in flight: the pool must stop promptly and
	// must NOT return nil (a partial run reported as complete).
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := RunCtx(ctx, workers, 10000, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("workers=%d: got %v, want ErrCanceled", workers, err)
		}
		if ran.Load() >= 10000 {
			t.Fatalf("workers=%d: all items ran despite cancellation", workers)
		}
	}
}

func TestRunCtxItemErrorBeatsLateCancel(t *testing.T) {
	// The lowest-failing-index contract survives cancellation: an item
	// error recorded before the cancel wins over the sentinel.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := RunCtx(ctx, 4, 64, func(i int) error {
		if i == 3 {
			defer cancel()
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Fatalf("got %v, want fail at 3", err)
	}
}

func TestRunCtxNilCtxBehavesLikeRun(t *testing.T) {
	var ran atomic.Int64
	if err := RunCtx(nil, 4, 32, func(int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 32 {
		t.Fatalf("ran %d of 32", ran.Load())
	}
}

func TestRunEmptyAndSize(t *testing.T) {
	if err := Run(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
	if got := Size(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Size(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Size(5); got != 5 {
		t.Errorf("Size(5) = %d", got)
	}
}

func TestRunPanicFailsAtItsIndex(t *testing.T) {
	// A panicking item is a failure at its index: whichever of the panics
	// and errors has the lowest index reaches the caller — a panic on the
	// caller's goroutine, as the inline path raises it — at any worker count.
	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			errAt int
			want  string
		}{{3, "error: fail at 3"}, {30, "panic: at 10"}} {
			var got string
			func() {
				defer func() {
					if r := recover(); r != nil {
						got = fmt.Sprint("panic: ", r)
					}
				}()
				if err := Run(workers, 64, func(i int) error {
					switch i {
					case tc.errAt:
						return fmt.Errorf("fail at %d", i)
					case 10, 20:
						panic(fmt.Sprintf("at %d", i))
					}
					return nil
				}); err != nil {
					got = "error: " + err.Error()
				}
			}()
			if got != tc.want {
				t.Errorf("workers=%d error at %d: got %q, want %q", workers, tc.errAt, got, tc.want)
			}
		}
	}
}
