package chopper

// Kernel-level golden equivalence. internal/sim has one micro-op body and
// one guard/execute/issue step; RunRows hands that step a program decoded
// once per kernel, at placement (0, 0) of a pooled, reconfigured machine
// (Machine.RunRecoveredCtx). These tests drive the same kernel through a
// reference loop that shares only the micro-op body with it — a fresh
// subarray executing every op decoded on the spot (Subarray.Exec), then a
// fresh engine charging it (dram.Engine.Issue), with both budget checks
// before each op — and require identical functional outputs, makespan,
// engine stats, guard stop points and fault-injection sequences. Both sides
// bind operands through the kernel's one tag-table binding (hostRows); what
// is compared is the execution.

import (
	"errors"
	"fmt"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/fault"
	"chopper/internal/guard"
	"chopper/internal/sim"
	"chopper/internal/transpose"
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
	var host hostRows
	outRows, err := host.bindRows(k, rows, lanes)
	if err != nil {
		return nil, err
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
	return &RunResult{Rows: outRows, TimeNs: eng.Makespan(), Stats: eng.Stats()}, nil
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

// TestRunRowsBudgetEquivalence checks that guard budgets stop both paths at
// the same op with the same *BudgetError.
func TestRunRowsBudgetEquivalence(t *testing.T) {
	base, err := Compile(equivSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	nOps := len(base.prog.Ops)
	for _, b := range []Budget{
		{MaxSimSteps: 1},
		{MaxSimSteps: nOps / 2},
		{MaxSimSteps: nOps - 1},
		{MaxDRAMCommands: 7},
		{MaxDRAMCommands: nOps / 3},
	} {
		k, err := Compile(equivSrc, Options{Target: Ambit, Budget: b})
		if err != nil {
			t.Fatalf("budget %+v: compile: %v", b, err)
		}
		rows := equivInputs(64, 3)
		_, fastErr := k.RunRows(rows, 64)
		_, refErr := genericRunRows(k, rows, 64, nil, b)
		if fastErr == nil || refErr == nil {
			t.Fatalf("budget %+v: expected stops, got fast=%v generic=%v", b, fastErr, refErr)
		}
		if !errors.Is(fastErr, ErrBudget) {
			t.Fatalf("budget %+v: fast error %v does not match ErrBudget", b, fastErr)
		}
		var fe, re *BudgetError
		if !errors.As(fastErr, &fe) || !errors.As(refErr, &re) {
			t.Fatalf("budget %+v: not BudgetErrors: fast=%v generic=%v", b, fastErr, refErr)
		}
		if *fe != *re {
			t.Fatalf("budget %+v: stop points differ: fast=%+v generic=%+v", b, *fe, *re)
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
