package bench

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"chopper"
	"chopper/internal/isa"
)

const sweepSrc = `
node main(a: u8, b: u8) returns (s: u8)
  let s = a + b;
tel`

func TestReliabilitySweep(t *testing.T) {
	rates := []float64{0, 1}
	tbl, overhead, err := ReliabilitySweepCtx(nil, sweepSrc, isa.Ambit, rates, 6, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.Rows); got != 2*len(rates) {
		t.Fatalf("table has %d rows, want %d", got, 2*len(rates))
	}
	cell := func(wl, series string) float64 {
		for _, r := range tbl.Rows {
			if r.Workload == wl && r.Series == series {
				return r.Value
			}
		}
		t.Fatalf("missing cell %s/%s", wl, series)
		return 0
	}
	if v := cell("rate=0", "plain"); v != 0 {
		t.Fatalf("plain SDC at rate 0 = %v", v)
	}
	if v := cell("rate=0", "tmr"); v != 0 {
		t.Fatalf("tmr SDC at rate 0 = %v", v)
	}
	// At rate 1 the single fault strikes the first TRA: replica
	// computation in the hardened build (outvoted), live logic in the
	// plain one (corrupts).
	plain, tmr := cell("rate=1", "plain"), cell("rate=1", "tmr")
	if plain == 0 {
		t.Fatal("plain kernel shows no SDC under guaranteed single faults")
	}
	if tmr != 0 {
		t.Fatalf("hardened kernel shows SDC under single faults: %v", tmr)
	}
	if overhead <= 1 {
		t.Fatalf("TMR latency overhead %v, want > 1", overhead)
	}
	if tbl.Render() == "" || tbl.CSV() == "" {
		t.Fatal("empty rendering")
	}
}

// A canceled sweep must stop promptly with the guard sentinel, report no
// table (a half-measured grid is not a result), and leave no worker
// goroutines behind.
func TestReliabilitySweepCtxCancelNoLeakNoPartial(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		tbl *Table
		err error
	}
	done := make(chan result, 1)
	go func() {
		// A large grid so cancellation lands mid-sweep.
		tbl, _, err := ReliabilitySweepCtx(ctx, sweepSrc, isa.Ambit,
			[]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}, 500, 7, 4)
		done <- result{tbl, err}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ReliabilitySweepCtx did not return after cancellation")
	}
	if !errors.Is(res.err, chopper.ErrCanceled) {
		t.Fatalf("canceled sweep returned %v, want chopper.ErrCanceled", res.err)
	}
	if res.tbl != nil {
		t.Fatalf("canceled sweep returned a table with %d rows", len(res.tbl.Rows))
	}

	deadline := time.Now().Add(5 * time.Second)
	after := runtime.NumGoroutine()
	for after > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after cancellation", before, after)
	}
}

// A pre-expired deadline stops the sweep before any work, with the
// deadline sentinel, at any worker count.
func TestReliabilitySweepCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, workers := range []int{1, 4} {
		tbl, _, err := ReliabilitySweepCtx(ctx, sweepSrc, isa.Ambit, []float64{0, 1}, 5, 7, workers)
		if !errors.Is(err, chopper.ErrDeadline) {
			t.Fatalf("workers=%d: %v does not match chopper.ErrDeadline", workers, err)
		}
		if tbl != nil {
			t.Fatalf("workers=%d: deadline-expired sweep returned a table", workers)
		}
	}
}

// The sweep grid fans out over a worker pool; the table must be
// byte-identical at any worker count (CI runs this under -cpu 1,4).
func TestDeterminismReliabilitySweepAcrossWorkers(t *testing.T) {
	rates := []float64{0, 0.5, 1}
	ref, refOverhead, err := ReliabilitySweepCtx(nil, sweepSrc, isa.Ambit, rates, 5, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		tbl, overhead, err := ReliabilitySweepCtx(nil, sweepSrc, isa.Ambit, rates, 5, 7, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if overhead != refOverhead {
			t.Errorf("workers=%d: overhead %v != %v", workers, overhead, refOverhead)
		}
		if !reflect.DeepEqual(ref.Rows, tbl.Rows) {
			t.Errorf("workers=%d: table diverged from 1-worker reference", workers)
		}
	}
}
