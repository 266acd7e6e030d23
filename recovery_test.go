package chopper

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"chopper/internal/transpose"
)

const recAdderSrc = `
node main(a: u8, b: u8) returns (s: u8)
  let s = a + b;
tel`

func recInputs(lanes int) map[string][]uint64 {
	a := make([]uint64, lanes)
	b := make([]uint64, lanes)
	for l := 0; l < lanes; l++ {
		a[l] = uint64(l*7+3) & 0xff
		b[l] = uint64(l*13+1) & 0xff
	}
	return map[string][]uint64{"a": a, "b": b}
}

func recRows(t *testing.T, k *Kernel, lanes int) map[string][][]uint64 {
	t.Helper()
	in := recInputs(lanes)
	rows := make(map[string][][]uint64, len(in))
	for _, spec := range k.Inputs {
		rows[spec.Name] = transpose.ToVertical(in[spec.Name], spec.Width, lanes)
	}
	return rows
}

func TestRecoveryOptionsNormalize(t *testing.T) {
	r := Recovery{Detector: DetectorVote}.normalize()
	if r.EpochUops != DefaultEpochUops || r.MaxRetries != DefaultMaxRetries || r.Backoff != DefaultRecoveryBackoff {
		t.Errorf("defaults not applied: %+v", r)
	}
	if r := (Recovery{Detector: DetectorParity, MaxRetries: -1}).normalize(); r.MaxRetries != 0 {
		t.Errorf("negative MaxRetries should normalize to detect-only (0), got %d", r.MaxRetries)
	}
	// Recovery-off has exactly one canonical encoding: stray fields are
	// dropped so the cache key of "disabled" is unique.
	if r := (Recovery{EpochUops: 99, MaxRetries: 7, Backoff: time.Second}).normalize(); r != (Recovery{}) {
		t.Errorf("disabled recovery should normalize to the zero value, got %+v", r)
	}
	if _, err := Compile(recAdderSrc, Options{Recovery: Recovery{Detector: Detector(42)}}); !errors.Is(err, ErrOptions) {
		t.Errorf("unknown detector should be rejected with ErrOptions, got %v", err)
	}
	if _, err := Compile(recAdderSrc, Options{Recovery: Recovery{Detector: DetectorVote, EpochUops: -5}}); !errors.Is(err, ErrOptions) {
		t.Errorf("negative epoch length should be rejected with ErrOptions, got %v", err)
	}
	if _, err := Compile(recAdderSrc, Options{Recovery: Recovery{Detector: DetectorVote, Backoff: -time.Second}}); !errors.Is(err, ErrOptions) {
		t.Errorf("negative backoff should be rejected with ErrOptions, got %v", err)
	}
}

func TestRecoveryCacheKeyed(t *testing.T) {
	cache := NewKernelCache(16)
	base := Options{Target: Ambit, Cache: cache}
	if _, err := Compile(recAdderSrc, base); err != nil {
		t.Fatal(err)
	}
	withRec := base
	withRec.Recovery = Recovery{Detector: DetectorVote}
	if _, err := Compile(recAdderSrc, withRec); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 2 {
		t.Errorf("recovery options must split the cache key: %d misses, want 2", s.Misses)
	}
	// Same options again: a hit, and the cached kernel keeps its policy.
	k, err := Compile(recAdderSrc, withRec)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 1 {
		t.Errorf("repeat compile should hit, stats %+v", s)
	}
	if !k.Opts.Recovery.Enabled() || k.Opts.Recovery.EpochUops != DefaultEpochUops {
		t.Errorf("cached kernel lost its recovery options: %+v", k.Opts.Recovery)
	}
}

func TestRecoveryZeroFaultOutputsIdentical(t *testing.T) {
	// With no faults injected, a recovery-enabled kernel must produce
	// byte-identical outputs to a recovery-free one (the detector only
	// observes; attempt 0 replays nothing).
	const lanes = 64
	plain, err := Compile(recAdderSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(recInputs(lanes), lanes)
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range []Detector{DetectorParity, DetectorVote} {
		k, err := Compile(recAdderSrc, Options{Target: Ambit, Recovery: Recovery{Detector: det}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Run(recInputs(lanes), lanes)
		if err != nil {
			t.Fatalf("%s: %v", det, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: outputs differ from recovery-free run", det)
		}
	}
}

func TestRecoveryStatsReported(t *testing.T) {
	const lanes = 64
	k, err := Compile(recAdderSrc, Options{Target: Ambit,
		Recovery: Recovery{Detector: DetectorParity, EpochUops: 64, MaxRetries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// A stuck-at column is a storage fault: parity must detect it, and no
	// amount of replay can fix it — the run degrades gracefully and says so.
	res, err := k.RunRowsUnderFault(recRows(t, k, lanes), lanes,
		FaultConfig{StuckColumns: []StuckColumn{{Lane: 5, High: true}}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	rs := res.RecoveryStats
	if rs.Epochs == 0 || rs.Detections == 0 || rs.Uncorrected == 0 {
		t.Errorf("stuck-at under parity should report detected-but-uncorrected epochs, got %+v", rs)
	}
	if rs.Retries == 0 || rs.ScrubbedRows == 0 || rs.WastedUops == 0 {
		t.Errorf("retries should be visible in the stats, got %+v", rs)
	}
	// Clean run on the same (pooled) machinery: stats come back zeroed.
	res2, err := k.RunRows(recRows(t, k, lanes), lanes)
	if err != nil {
		t.Fatal(err)
	}
	rs2 := res2.RecoveryStats
	if rs2.Detections != 0 || rs2.Retries != 0 || rs2.Uncorrected != 0 {
		t.Errorf("clean run after a faulty one reports recovery activity: %+v (pool state leak)", rs2)
	}
}

func TestRecoveryRunTiledRejected(t *testing.T) {
	k, err := Compile(recAdderSrc, Options{Target: Ambit, Recovery: Recovery{Detector: DetectorVote}})
	if err != nil {
		t.Fatal(err)
	}
	lanes := 8
	in := recInputs(lanes)
	wide := make(map[string][][]uint64, len(in))
	for name, vals := range in {
		per := make([][]uint64, lanes)
		for l := 0; l < lanes; l++ {
			per[l] = []uint64{vals[l]}
		}
		wide[name] = per
	}
	if _, err := k.RunTiledCtx(nil, wide, lanes); !errors.Is(err, ErrOptions) {
		t.Fatalf("RunTiledCtx with recovery should fail with ErrOptions, got %v", err)
	}
}

// TestRecoveryBudgetMidRetry forces a retry loop (permanent stuck-at under
// parity re-detects every attempt) under a sim-step budget that runs out
// inside a replay: the stop must surface as ErrBudget — never as a
// detector artifact or a hang.
func TestRecoveryBudgetMidRetry(t *testing.T) {
	const lanes = 64
	k, err := Compile(recAdderSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	nops := len(k.Prog().Ops)
	opts := Options{Target: Ambit,
		Recovery: Recovery{Detector: DetectorParity, EpochUops: 64, MaxRetries: 3},
		Budget:   Budget{MaxSimSteps: nops + 32}} // enough for attempt 0, not for the replays
	k, err = Compile(recAdderSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.RunRowsUnderFault(recRows(t, k, lanes), lanes,
		FaultConfig{StuckColumns: []StuckColumn{{Lane: 5, High: true}}}, 7)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Dimension != DimSimSteps {
		t.Fatalf("budget stop should name the sim-steps dimension, got %v", err)
	}
}

// TestRecoveryDeadlineMidRetry cancels by deadline while the recovery loop
// is retrying: the guard sentinel must come through unchanged.
func TestRecoveryDeadlineMidRetry(t *testing.T) {
	const lanes = 64
	k, err := Compile(recAdderSrc, Options{Target: Ambit,
		Recovery: Recovery{Detector: DetectorParity, EpochUops: 64, MaxRetries: 3}})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = k.RunRowsCtx(ctx, recRows(t, k, lanes), lanes,
		FaultConfig{StuckColumns: []StuckColumn{{Lane: 5, High: true}}}, 7)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if n := settleGoroutines(t, before, 2); n > before+2 {
		t.Errorf("goroutines leaked across a deadline-stopped recovery run: %d -> %d", before, n)
	}
}

// TestRecoveryCancelMidRetry is the cancellation variant: an already
// canceled context stops the run with ErrCanceled before any retry work.
func TestRecoveryCancelMidRetry(t *testing.T) {
	const lanes = 64
	k, err := Compile(recAdderSrc, Options{Target: Ambit,
		Recovery: Recovery{Detector: DetectorVote, EpochUops: 64, MaxRetries: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = k.RunRowsCtx(ctx, recRows(t, k, lanes), lanes, FaultConfig{}, 0)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestDeterminismRecoveryRuns: a recovered run under faults is a pure
// function of (kernel, inputs, fault config, seed) — repeated runs on the
// pooled machinery agree bit-for-bit, stats included. The suite runs under
// -race -cpu 1,4 in CI.
func TestDeterminismRecoveryRuns(t *testing.T) {
	const lanes = 64
	for _, det := range []Detector{DetectorParity, DetectorVote} {
		k, err := Compile(recAdderSrc, Options{Target: Ambit,
			Recovery: Recovery{Detector: det, EpochUops: 64, MaxRetries: 2}})
		if err != nil {
			t.Fatal(err)
		}
		cfg := FaultConfig{TRAFlipRate: 0.002, StuckColumns: []StuckColumn{{Lane: 9}}}
		first, err := k.RunRowsUnderFault(recRows(t, k, lanes), lanes, cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			again, err := k.RunRowsUnderFault(recRows(t, k, lanes), lanes, cfg, 11)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Rows, first.Rows) {
				t.Fatalf("%s: run %d produced different outputs", det, i)
			}
			if again.RecoveryStats != first.RecoveryStats {
				t.Fatalf("%s: run %d stats %+v != %+v", det, i, again.RecoveryStats, first.RecoveryStats)
			}
			if again.TimeNs != first.TimeNs {
				t.Fatalf("%s: run %d makespan %v != %v", det, i, again.TimeNs, first.TimeNs)
			}
		}
	}
}
