package chopper

// Kernel-level golden equivalence. internal/sim has one micro-op body and
// one guard/execute/issue loop; RunRows hands that loop a program decoded
// once per kernel, at placement (0, 0) of a pooled, reconfigured machine,
// and runs it functionally (Machine.RunFunctionalCtx), taking the timing
// from the kernel's shard memo. These tests drive the same kernel through a
// reference loop that shares only the micro-op body with it — a fresh
// subarray executing every op decoded on the spot (Subarray.Exec), then a
// fresh engine charging it (dram.Engine.Issue), with both budget checks
// before each op — and require identical functional outputs, makespan,
// engine stats, guard stop points and fault-injection sequences, on the run
// that fills the memo (cold) and on every run after it (warm). Both sides
// bind operands through the kernel's one tag-table binding (hostRows); what
// is compared is the execution.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/fault"
	"chopper/internal/guard"
	"chopper/internal/isa"
	"chopper/internal/sim"
	"chopper/internal/transpose"
	"chopper/internal/workloads"
)

const equivSrc = `
node main(a: u8, b: u8, c: u8) returns (z: u8, f: u1)
vars
  t: u8;
let
  t = (a + b) ^ c;
  z = t - (a & c);
  f = z < b;
tel`

var equivLanes = []int{1, 63, 64, 65, 128}

// genericRunRows executes the kernel on the reference loop: per op, the
// budget checks, Subarray.Exec on a fresh subarray (with hook attached),
// then Engine.Issue on a fresh engine.
func genericRunRows(k *Kernel, rows map[string][][]uint64, lanes int, hook sim.FaultHook, b Budget) (*RunResult, error) {
	p, err := k.tilePlan()
	if err != nil {
		return nil, err
	}
	var host hostRows
	in, out := host.bind(p, lanes)
	spans, _ := laneSpans([]int{lanes})
	if err := p.pasteRows(k.Inputs, in, rows, spans[0]); err != nil {
		return nil, optionsErrf("%v", err)
	}
	g := k.Opts.Geometry
	sub, spill := sim.NewSubarray(g.DRows(), lanes), sim.NewSpillStore()
	sub.SetFaultHook(hook)
	eng := dram.NewEngine(g, dram.TimingFor(k.Opts.Target, g), false)
	io := host.hostIO()
	for i := range k.prog.Ops {
		if err := guard.Check(guard.DimSimSteps, b.MaxSimSteps, i+1); err != nil {
			return nil, err
		}
		if err := guard.Check(guard.DimDRAMCommands, b.MaxDRAMCommands, i+1); err != nil {
			return nil, err
		}
		if err := sub.Exec(&k.prog.Ops[i], io, spill); err != nil {
			return nil, fmt.Errorf("op %d at bank 0 sub 0: %w", i, err)
		}
		eng.Issue(dram.Placed{Op: k.prog.Ops[i]})
	}
	return &RunResult{Rows: k.keepRows(out, spans)[0], TimeNs: eng.Makespan(), Stats: eng.Stats()}, nil
}

func equivInputs(lanes int, seed uint64) map[string][][]uint64 {
	vals := func(off uint64) []uint64 {
		v := make([]uint64, lanes)
		for i := range v {
			v[i] = (seed*2654435761 + uint64(i)*97 + off) & 0xff
		}
		return v
	}
	return map[string][][]uint64{
		"a": transpose.ToVertical(vals(1), 8, lanes),
		"b": transpose.ToVertical(vals(5), 8, lanes),
		"c": transpose.ToVertical(vals(11), 8, lanes),
	}
}

func rowsEqual(t *testing.T, label string, got, want map[string][][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: output %q has %d bit-rows, want %d", label, name, len(g), len(w))
		}
		for bit := range w {
			for word := range w[bit] {
				if g[bit][word] != w[bit][word] {
					t.Fatalf("%s: output %q bit %d word %d: %#x != %#x",
						label, name, bit, word, g[bit][word], w[bit][word])
				}
			}
		}
	}
}

// TestRunRowsEquivalence holds the pooled machine's run and the reference
// loop byte-identical across architectures and lane widths, including
// repeat runs on the pooled machine.
func TestRunRowsEquivalence(t *testing.T) {
	for _, target := range []Target{Ambit, ELP2IM, SIMDRAM} {
		k, err := Compile(equivSrc, Options{Target: target})
		if err != nil {
			t.Fatalf("%v: compile: %v", target, err)
		}
		for _, lanes := range equivLanes {
			for rep := 0; rep < 2; rep++ { // rep 1 reuses a pooled machine
				rows := equivInputs(lanes, uint64(lanes)+uint64(rep))
				fast, err := k.RunRows(rows, lanes)
				if err != nil {
					t.Fatalf("%v lanes=%d: fast path: %v", target, lanes, err)
				}
				ref, err := genericRunRows(k, rows, lanes, nil, Budget{})
				if err != nil {
					t.Fatalf("%v lanes=%d: generic path: %v", target, lanes, err)
				}
				label := target.String()
				rowsEqual(t, label, fast.Rows, ref.Rows)
				if fast.TimeNs != ref.TimeNs {
					t.Fatalf("%s lanes=%d: TimeNs %v != %v", label, lanes, fast.TimeNs, ref.TimeNs)
				}
				if fast.Stats != ref.Stats {
					t.Fatalf("%s lanes=%d: stats diverged\nfast:    %+v\ngeneric: %+v", label, lanes, fast.Stats, ref.Stats)
				}
			}
		}
	}
}

// TestRunRowsWarmEquivalence: on every Table-II kernel and target, the run
// that fills the kernel's memo and the one that finds it report the
// reference loop's outputs, makespan and engine stats, from one memo entry.
func TestRunRowsWarmEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs 48 workload kernels")
	}
	const lanes = 64
	for _, spec := range workloads.All() {
		for _, target := range []Target{Ambit, ELP2IM, SIMDRAM} {
			k := compileWorkload(t, spec.Name, Options{Target: target})
			wide := wideInputs(k, lanes)
			rows := make(map[string][][]uint64, len(k.Inputs))
			for _, in := range k.Inputs {
				rows[in.Name] = transpose.ToVerticalWide(wide[in.Name], in.Width, lanes)
			}
			ref, err := genericRunRows(k, rows, lanes, nil, Budget{})
			if err != nil {
				t.Fatalf("%s %v: reference: %v", spec.Name, target, err)
			}
			for _, run := range []string{"cold", "warm"} {
				got, err := k.RunRows(rows, lanes)
				if err != nil {
					t.Fatalf("%s %v %s: %v", spec.Name, target, run, err)
				}
				label := fmt.Sprintf("%s %v %s", spec.Name, target, run)
				rowsEqual(t, label, got.Rows, ref.Rows)
				if got.TimeNs != ref.TimeNs || got.Stats != ref.Stats {
					t.Fatalf("%s: timing diverged\n got %v %+v\nwant %v %+v", label, got.TimeNs, got.Stats, ref.TimeNs, ref.Stats)
				}
			}
			if len(k.shards) != 1 {
				t.Errorf("%s %v: memo holds %d entries, want the one-tile shard", spec.Name, target, len(k.shards))
			}
		}
	}
}

// TestRunRowsBudgetEquivalence checks that guard budgets stop both paths at
// the same op with the same *BudgetError, on a kernel whose memo is empty
// (cold) and on one whose memo holds the run's timing (warm: the budget is
// set on the kernel after a run without it).
func TestRunRowsBudgetEquivalence(t *testing.T) {
	base, err := Compile(equivSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	nOps := len(base.prog.Ops)
	rows := equivInputs(64, 3)
	for _, b := range []Budget{
		{MaxSimSteps: 1},
		{MaxSimSteps: nOps / 2},
		{MaxSimSteps: nOps - 1},
		{MaxDRAMCommands: 7},
		{MaxDRAMCommands: nOps / 3},
	} {
		cold, err := Compile(equivSrc, Options{Target: Ambit, Budget: b})
		if err != nil {
			t.Fatalf("budget %+v: compile: %v", b, err)
		}
		warm, err := Compile(equivSrc, Options{Target: Ambit})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.RunRows(rows, 64); err != nil {
			t.Fatal(err)
		}
		warm.Opts.Budget = b
		_, refErr := genericRunRows(cold, rows, 64, nil, b)
		var re *BudgetError
		if !errors.As(refErr, &re) {
			t.Fatalf("budget %+v: reference error %v is not a BudgetError", b, refErr)
		}
		for _, k := range []*Kernel{cold, warm} {
			_, fastErr := k.RunRows(rows, 64)
			if !errors.Is(fastErr, ErrBudget) {
				t.Fatalf("budget %+v: fast error %v does not match ErrBudget", b, fastErr)
			}
			var fe *BudgetError
			if !errors.As(fastErr, &fe) || *fe != *re {
				t.Fatalf("budget %+v: stop points differ: fast=%v reference=%+v", b, fastErr, *re)
			}
		}
	}
}

// TestRunRowsFunctionalErrorPrecedence: an op that fails functionally
// before a budget's limit stops the run with its own error, and a limit
// that falls on it stops the run with the budget's — cold and warm, as in
// the reference loop.
func TestRunRowsFunctionalErrorPrecedence(t *testing.T) {
	rows := equivInputs(64, 5)
	broken := func() *Kernel {
		k, err := Compile(equivSrc, Options{Target: Ambit})
		if err != nil {
			t.Fatal(err)
		}
		// Op 20 now senses a row nothing writes.
		k.prog.Ops[20] = isa.NewAAP(isa.Row(k.Opts.Geometry.DRows()-1), isa.T0)
		return k
	}
	warm := broken()
	warm.replayShard(nil, 1, dram.TimingFor(Ambit, warm.Opts.Geometry), false)
	for _, b := range []Budget{{}, {MaxSimSteps: 25}, {MaxDRAMCommands: 21}, {MaxSimSteps: 20}, {MaxDRAMCommands: 20}} {
		cold := broken()
		_, refErr := genericRunRows(cold, rows, 64, nil, b)
		for _, k := range []*Kernel{cold, warm} {
			k.Opts.Budget = b
			_, err := k.RunRows(rows, 64)
			if err == nil || refErr == nil || err.Error() != refErr.Error() {
				t.Fatalf("budget %+v: error %v, reference %v", b, err, refErr)
			}
		}
		if wantBudget := b.MaxSimSteps == 20 || b.MaxDRAMCommands == 20; errors.Is(refErr, ErrBudget) != wantBudget {
			t.Fatalf("budget %+v: reference stopped with %v", b, refErr)
		}
	}
}

// TestRunRowsCtxEquivalence: a run observes its context at the same ops
// whether it fills the memo or finds it — once every 256 ops, never for
// the timing — so a context that cancels at its n-th look stops a cold and
// a warm run alike, and one that never cancels is consulted as often.
func TestRunRowsCtxEquivalence(t *testing.T) {
	fresh := func() *Kernel {
		k, err := Compile(equivSrc, Options{Target: Ambit})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	rows := equivInputs(64, 7)
	warm := fresh()
	if _, err := warm.RunRows(rows, 64); err != nil {
		t.Fatal(err)
	}
	looks := int64((len(warm.prog.Ops) + 255) / 256)
	if looks < 3 {
		t.Fatalf("a %d-op program is too short to cancel mid-run", len(warm.prog.Ops))
	}
	for _, run := range []string{"cold", "warm"} {
		kernel := func() *Kernel {
			if run == "warm" {
				return warm
			}
			return fresh()
		}
		live := &checkCtx{Context: context.Background(), live: 1 << 40}
		if _, err := kernel().RunRowsCtx(live, rows, 64, FaultConfig{}, 0); err != nil {
			t.Fatal(err)
		}
		if got := live.checks.Load(); got != looks {
			t.Errorf("%s: a full run consulted ctx %d times, want %d", run, got, looks)
		}
		for n := int64(0); n < looks; n++ {
			ctx := &checkCtx{Context: context.Background(), live: n}
			res, err := kernel().RunRowsCtx(ctx, rows, 64, FaultConfig{}, 0)
			if !errors.Is(err, ErrCanceled) || res != nil {
				t.Fatalf("%s: cancel at look %d: %v, %v", run, n, res, err)
			}
			if got := ctx.checks.Load(); got != n+1 {
				t.Errorf("%s: cancel at look %d consulted ctx %d times", run, n, got)
			}
		}
	}
}

// TestRunRowsFaultEquivalence holds the fault-injected fast path against
// the generic path with an identical fresh injector: same outputs, same
// injected-fault counts, across the pooled workers' injector reuse.
func TestRunRowsFaultEquivalence(t *testing.T) {
	cfg := FaultConfig{
		TRAFlipRate:  0.05,
		CopyFlipRate: 0.03,
	}
	for _, target := range []Target{Ambit, ELP2IM, SIMDRAM} {
		k, err := Compile(equivSrc, Options{Target: target})
		if err != nil {
			t.Fatalf("%v: compile: %v", target, err)
		}
		for _, lanes := range equivLanes {
			for seed := int64(1); seed <= 3; seed++ {
				rows := equivInputs(lanes, uint64(seed))
				fast, err := k.RunRowsUnderFault(rows, lanes, cfg, seed)
				if err != nil {
					t.Fatalf("%v lanes=%d seed=%d: fast: %v", target, lanes, seed, err)
				}
				inj := fault.New(cfg, seed)
				ref, err := genericRunRows(k, rows, lanes, inj, Budget{})
				if err != nil {
					t.Fatalf("%v lanes=%d seed=%d: generic: %v", target, lanes, seed, err)
				}
				label := target.String()
				rowsEqual(t, label, fast.Rows, ref.Rows)
				if fast.Faults != inj.Counts() {
					t.Fatalf("%s lanes=%d seed=%d: fault counts %+v != %+v",
						label, lanes, seed, fast.Faults, inj.Counts())
				}
				if fast.TimeNs != ref.TimeNs {
					t.Fatalf("%s lanes=%d seed=%d: TimeNs %v != %v", label, lanes, seed, fast.TimeNs, ref.TimeNs)
				}
			}
		}
	}
}
