package chopper

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"chopper/internal/codegen"
	"chopper/internal/isa"
	"chopper/internal/obs"
	"chopper/internal/workloads"
)

const guardAdderSrc = `
node main(a: u8, b: u8) returns (s: u8)
  let s = a + b;
tel`

// A 32-bit multiply lowers to thousands of gates and micro-ops — the
// canonical budget-blowing program.
const guardMulSrc = `
node main(a: u32, b: u32) returns (z: u32)
  let z = a * b;
tel`

// settleGoroutines polls until the goroutine count returns to within
// `slack` of `before` (worker goroutines need a moment to observe the
// canceled context and exit) and returns the final count.
func settleGoroutines(t *testing.T, before, slack int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > before+slack && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestCompileBudgetExceededNetGates(t *testing.T) {
	_, err := Compile(guardMulSrc, Options{Target: Ambit, Budget: Budget{MaxNetGates: 256}})
	if err == nil {
		t.Fatal("compile under a 256-gate budget succeeded")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("error %v does not match ErrBudget", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a *BudgetError", err)
	}
	if be.Dimension != DimNetGates {
		t.Fatalf("exhausted dimension %q, want %q", be.Dimension, DimNetGates)
	}
	if be.Limit != 256 || be.Count <= 256 {
		t.Fatalf("implausible budget fields: %+v", be)
	}
	// Budget stops are deterministic: a second compile exhausts the same
	// dimension at the same count.
	_, err2 := Compile(guardMulSrc, Options{Target: Ambit, Budget: Budget{MaxNetGates: 256}})
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("budget error not reproducible: %v vs %v", err, err2)
	}
}

func TestCompileBudgetExceededMicroOps(t *testing.T) {
	_, err := Compile(guardMulSrc, Options{Target: Ambit, Budget: Budget{MaxMicroOps: 100}})
	var be *BudgetError
	if !errors.As(err, &be) || be.Dimension != DimMicroOps {
		t.Fatalf("want a %s BudgetError, got %v", DimMicroOps, err)
	}
	// The emission-loop checkpoint stops promptly: the count cannot run
	// far past the limit (at most one gate's worth of micro-ops).
	if be.Count > be.Limit+8 {
		t.Fatalf("emission overran the budget: %+v", be)
	}
}

func TestCompileBaselineBudget(t *testing.T) {
	_, err := CompileBaseline(guardMulSrc, Options{Target: SIMDRAM, Budget: Budget{MaxMicroOps: 100}})
	var be *BudgetError
	if !errors.As(err, &be) || be.Dimension != DimMicroOps {
		t.Fatalf("want a %s BudgetError, got %v", DimMicroOps, err)
	}
}

// TestCompileBaselineBudgetStopsEarly: the hands-tuned generator checks the
// micro-op budget after every multi-bit operation, as codegen does after
// every gate, so a capped compile stops within one operation's routine of
// its limit instead of generating the whole program (1,157,545 micro-ops on
// DenseNet-128) and measuring it afterwards.
func TestCompileBaselineBudgetStopsEarly(t *testing.T) {
	spec, _ := workloads.Get("DenseNet-128")
	_, err := CompileBaseline(spec.Src, Options{Budget: Budget{MaxMicroOps: 1000}})
	var be *BudgetError
	if !errors.As(err, &be) || be.Dimension != DimMicroOps {
		t.Fatalf("want a %s BudgetError, got %v", DimMicroOps, err)
	}
	// DenseNet's costliest operation is an 8-bit multiply: a few hundred
	// micro-ops.
	if over := be.Count - be.Limit; over <= 0 || over > 1000 {
		t.Fatalf("generation overran the budget by %d micro-ops, want at most one operation's worth: %+v", over, be)
	}
}

// pollCtx is a live context that reports cancellation from its n-th Err
// call on: a deterministic stand-in for a cancel landing mid-compile.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestCompileBaselineCancelDeadline: the baseline pipeline observes its
// context like the CHOPPER one — before any work (the cache is never
// consulted), and between multi-bit operations once generating.
func TestCompileBaselineCancelDeadline(t *testing.T) {
	cache := NewKernelCache(4)
	opts := Options{Cache: cache}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := CompileBaselineCached(expired, guardAdderSrc, opts); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired deadline: error %v does not match ErrDeadline", err)
	}
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := CompileBaselineCached(canceled, guardAdderSrc, opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled: error %v does not match ErrCanceled", err)
	}
	if s := cache.Stats(); s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("a dead context reached the cache: %+v", s)
	}

	// Poll 1 is the driver's prologue; every later one is the generator's
	// per-operation checkpoint. A cancel seen at poll 3 stops the compile
	// there: nothing polls again.
	spec, _ := workloads.Get("DenseNet-128")
	mid := &pollCtx{Context: context.Background(), cancelAt: 3}
	if _, _, err := CompileBaselineCached(mid, spec.Src, Options{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-generation cancel: error %v does not match ErrCanceled", err)
	}
	if mid.polls != 3 {
		t.Fatalf("generation polled its context %d times after a cancel at poll 3", mid.polls)
	}
	live := &pollCtx{Context: context.Background(), cancelAt: 1 << 30}
	k, _, err := CompileBaselineCached(live, spec.Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ops := k.Graph.OpCount(); live.polls < ops {
		t.Fatalf("%d context polls over %d multi-bit operations: not one checkpoint per operation", live.polls, ops)
	}
}

// TestCompileHorizontalCancelDeadline: the horizontal pipeline has no
// ctx-taking entry point of its own, but under the shared driver it observes
// the context it is given like the other two.
func TestCompileHorizontalCancelDeadline(t *testing.T) {
	const src = "node main(a: u8, b: u8) returns (z: u8) let z = a ^ b; tel"
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := compile(canceled, pipeHorizontal, src, nil, Options{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled: error %v does not match ErrCanceled", err)
	}
	// Poll 1 is the prologue; the back end's first checkpoint sees poll 2.
	mid := &pollCtx{Context: context.Background(), cancelAt: 2}
	if _, _, err := compile(mid, pipeHorizontal, src, nil, Options{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel past the prologue: error %v does not match ErrCanceled (the back end got no context)", err)
	}
}

func TestCompileCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := CompileCtx(ctx, guardAdderSrc, Options{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("error %v does not match ErrDeadline", err)
	}
	c2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, err = CompileCtx(c2, guardAdderSrc, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not match ErrCanceled", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Compile(guardAdderSrc, Options{Budget: Budget{MaxMicroOps: -1}}); !errors.Is(err, ErrOptions) {
		t.Fatalf("negative budget: %v does not match ErrOptions", err)
	}
	if _, err := CompileBaseline(guardAdderSrc, Options{Budget: Budget{MaxSimSteps: -7}}); !errors.Is(err, ErrOptions) {
		t.Fatalf("baseline negative budget: %v does not match ErrOptions", err)
	}
	k, err := Compile(guardAdderSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Verify(0, 1); !errors.Is(err, ErrOptions) {
		t.Fatalf("Verify(0 trials): %v does not match ErrOptions", err)
	}
	if err := k.Verify(-3, 1); !errors.Is(err, ErrOptions) {
		t.Fatalf("Verify(-3 trials): %v does not match ErrOptions", err)
	}
	if _, err := k.Reliability(0, 1, []FaultConfig{{}}); !errors.Is(err, ErrOptions) {
		t.Fatalf("Reliability(0 trials): %v does not match ErrOptions", err)
	}
	if _, err := k.RunTiled(map[string][][]uint64{}, 0); !errors.Is(err, ErrOptions) {
		t.Fatalf("RunTiled(0 lanes): %v does not match ErrOptions", err)
	}
}

// A budget stop inside a verify sweep keeps its sentinel identity (it is
// not re-classed ErrVerify) and is byte-identical at any worker count —
// the lowest-failing-trial contract extends to guard errors.
func TestVerifyBudgetDeterministicAcrossWorkers(t *testing.T) {
	k, err := Compile(guardAdderSrc, Options{Budget: Budget{MaxSimSteps: 10}})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, workers := range []int{1, 4} {
		err := k.VerifyCtx(nil, 8, 42, workers)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("workers=%d: %v does not match ErrBudget", workers, err)
		}
		if errors.Is(err, ErrVerify) {
			t.Fatalf("workers=%d: budget stop was re-classed as ErrVerify: %v", workers, err)
		}
		var be *BudgetError
		if !errors.As(err, &be) || be.Dimension != DimSimSteps {
			t.Fatalf("workers=%d: want a %s BudgetError, got %v", workers, DimSimSteps, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("budget error differs across worker counts: %q vs %q", msgs[0], msgs[1])
	}
}

func TestVerifyCtxCancelPromptNoLeak(t *testing.T) {
	k, err := Compile(guardMulSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- k.VerifyCtx(ctx, 100000, 7, 4) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("VerifyCtx did not return after cancellation")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled verify returned %v, want ErrCanceled (a partial sweep must never pass)", err)
	}
	if after := settleGoroutines(t, before, 2); after > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after cancellation", before, after)
	}
}

func TestVerifyCtxPreExpiredDeadline(t *testing.T) {
	k, err := Compile(guardAdderSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, workers := range []int{1, 4} {
		if err := k.VerifyCtx(ctx, 16, 1, workers); !errors.Is(err, ErrDeadline) {
			t.Fatalf("workers=%d: %v does not match ErrDeadline", workers, err)
		}
	}
}

func TestReliabilityCtxCanceledReturnsNoReport(t *testing.T) {
	k, err := Compile(guardAdderSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := k.ReliabilityCtx(ctx, 4, 1, []FaultConfig{{TRAFlipRate: 0.01}}, 2)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not match ErrCanceled", err)
	}
	if rep != nil {
		t.Fatalf("canceled sweep returned a report: %+v", rep)
	}
}

func TestRunTiledBudgets(t *testing.T) {
	k, err := Compile(guardAdderSrc, Options{Budget: Budget{MaxSimSteps: 8}})
	if err != nil {
		t.Fatal(err)
	}
	lanes := 100
	inputs := map[string][][]uint64{"a": make([][]uint64, lanes), "b": make([][]uint64, lanes)}
	for l := 0; l < lanes; l++ {
		inputs["a"][l] = []uint64{uint64(l) & 0xff}
		inputs["b"][l] = []uint64{uint64(2*l) & 0xff}
	}
	_, err = k.RunTiledCtx(nil, inputs, lanes)
	var be *BudgetError
	if !errors.As(err, &be) || be.Dimension != DimSimSteps {
		t.Fatalf("want a %s BudgetError, got %v", DimSimSteps, err)
	}

	k2, err := Compile(guardAdderSrc, Options{Budget: Budget{MaxDRAMCommands: 10}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = k2.RunTiledCtx(nil, inputs, lanes)
	if !errors.As(err, &be) || be.Dimension != DimDRAMCommands {
		t.Fatalf("want a %s BudgetError, got %v", DimDRAMCommands, err)
	}
	if be.Limit != 10 || be.Count != 11 {
		t.Fatalf("timing-engine stop not exact: %+v", be)
	}
}

// An OBS pass forced to panic must not fail the compile: the degradation
// ladder walks down to the un-optimized OptBitslice pipeline, the kernel
// still computes correctly, and the DegradationReport records every
// abandoned level.
func TestDegradationLadderOnPassPanic(t *testing.T) {
	obs.TestPanicHook = func(pressureAware bool) {
		if pressureAware {
			panic("obs: forced scheduler panic (test hook)")
		}
	}
	defer func() { obs.TestPanicHook = nil }()

	k, err := Compile(guardAdderSrc, Options{})
	if err != nil {
		t.Fatalf("compile failed instead of degrading: %v", err)
	}
	r := k.Degradation
	if r == nil {
		t.Fatal("kernel has no DegradationReport")
	}
	if !r.Degraded() {
		t.Fatal("report does not say Degraded")
	}
	if r.Requested != OptFull || r.Effective != OptBitslice {
		t.Fatalf("requested %v effective %v, want %v -> %v", r.Requested, r.Effective, OptFull, OptBitslice)
	}
	// Rename, Reuse and Schedule all run the pressure-aware scheduler and
	// were each tried and abandoned, highest level first.
	if len(r.Events) != 3 {
		t.Fatalf("got %d degradation events, want 3: %+v", len(r.Events), r.Events)
	}
	wantOrder := []OptLevel{OptFull, OptReuse, OptSchedule}
	for i, ev := range r.Events {
		if ev.Opt != wantOrder[i] {
			t.Fatalf("event %d at level %v, want %v", i, ev.Opt, wantOrder[i])
		}
		if !strings.Contains(ev.Reason, "forced scheduler panic") {
			t.Fatalf("event %d reason %q does not carry the panic value", i, ev.Reason)
		}
	}
	// The degraded kernel still computes.
	out, err := k.Run(map[string][]uint64{"a": {3, 200}, "b": {4, 100}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out["s"][0] != 7 || out["s"][1] != (200+100)&0xff {
		t.Fatalf("degraded kernel miscomputed: %v", out["s"])
	}
}

// A pass that returns a structurally broken program is treated like one
// that panicked: the single isa.Program.Validate at the codegen boundary
// fails, the failure is classed as a check failure (not an input error),
// and the ladder retries one level down — here only the OptFull program is
// broken, so the kernel compiles at OptReuse and still computes.
func TestDegradationLadderOnBrokenProgram(t *testing.T) {
	codegen.TestBreakHook = func(v obs.Variant, prog *isa.Program) {
		if v.HasRename() {
			prog.Ops[0].Kind = isa.OpKind(99)
		}
	}
	defer func() { codegen.TestBreakHook = nil }()

	k, err := Compile(guardAdderSrc, Options{})
	if err != nil {
		t.Fatalf("compile failed instead of degrading: %v", err)
	}
	r := k.Degradation
	if !r.Degraded() || r.Requested != OptFull || r.Effective != OptReuse {
		t.Fatalf("degradation report %+v, want %v -> %v", r, OptFull, OptReuse)
	}
	if len(r.Events) != 1 || r.Events[0].Opt != OptFull || r.Events[0].Stage != "codegen-check" {
		t.Fatalf("degradation events %+v, want one codegen-check at %v", r.Events, OptFull)
	}
	if !strings.Contains(r.Events[0].Reason, "unknown kind 99") {
		t.Fatalf("event reason %q does not carry the validation failure", r.Events[0].Reason)
	}
	if err := k.Prog().Validate(k.Opts.Geometry.DRows()); err != nil {
		t.Fatalf("degraded kernel ships an invalid program: %v", err)
	}
	out, err := k.Run(map[string][]uint64{"a": {3, 200}, "b": {4, 100}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out["s"][0] != 7 || out["s"][1] != (200+100)&0xff {
		t.Fatalf("degraded kernel miscomputed: %v", out["s"])
	}
}

// If even the OptBitslice pipeline fails, the ladder gives up with
// ErrInternal — degradation never masks a totally broken compiler.
func TestDegradationLadderExhausted(t *testing.T) {
	obs.TestPanicHook = func(bool) { panic("obs: always panics (test hook)") }
	defer func() { obs.TestPanicHook = nil }()

	_, err := Compile(guardAdderSrc, Options{})
	if err == nil {
		t.Fatal("compile succeeded with every level panicking")
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("error %v does not match ErrInternal", err)
	}
}

// Guard stops must not trigger the ladder: a budget-stopped compile at the
// requested level fails with ErrBudget rather than silently retrying at a
// lower optimization level.
func TestBudgetStopDoesNotDegrade(t *testing.T) {
	k, err := Compile(guardMulSrc, Options{Target: Ambit, Budget: Budget{MaxMicroOps: 100}})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("error %v does not match ErrBudget", err)
	}
	if k != nil {
		t.Fatal("budget-stopped compile returned a kernel")
	}
}
