package sim

// The acceptance bar for the arena/pre-decode rewrite: once a subarray,
// spill store and timing engine are warm, the ExecDecoded + IssueOp loop
// must not allocate at all. testing.AllocsPerRun gates this so a future
// change that reintroduces a per-op make/map write fails the suite rather
// than silently regressing throughput.

import (
	"context"
	"testing"
	"unsafe"

	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// TestDecodedOpSize pins the decoded micro-op record at 64 bytes, one cache
// line: the executor strides the decoded stream op by op, so a mark added
// on top of the record (rather than packed into it) is paid on every op.
func TestDecodedOpSize(t *testing.T) {
	if got := unsafe.Sizeof(dop{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(dop{}) = %d, want 64", got)
	}
}

// steadyProgram covers every op kind on its fast path: AAP (single- and
// multi-destination), AP, WRITE, READ, SPILL_OUT and SPILL_IN.
func steadyProgram() *isa.Program {
	p := &isa.Program{Ops: []isa.Op{
		isa.NewWrite(isa.Row(0), 0),
		isa.NewWrite(isa.Row(1), 1),
		isa.NewAAP(isa.Row(0), isa.T0),
		{Kind: isa.OpAAP, Src: isa.Row(1), Dst: [3]isa.Row{isa.T1, isa.T2, isa.RowNone}, NDst: 2},
		isa.NewAP(isa.T0, isa.T1, isa.T2),
		isa.NewSpillOut(isa.T0, 3),
		isa.NewSpillIn(isa.Row(4), 3),
		isa.NewAAP(isa.Row(4), isa.Row(5)),
		isa.NewRead(isa.Row(5), 2),
	}}
	return p
}

func steadyIO(words int) *HostIO {
	w0 := make([]uint64, words)
	w1 := make([]uint64, words)
	for i := range w0 {
		w0[i] = 0x0123456789abcdef
		w1[i] = ^uint64(0) >> 1
	}
	return &HostIO{
		WriteData: func(tag int) []uint64 {
			if tag == 0 {
				return w0
			}
			return w1
		},
		ReadSink: func(tag int, data []uint64) { _ = data[0] },
	}
}

// TestExecDecodedZeroAlloc drives the raw per-op loop — ExecDecoded plus
// Engine.IssueOp — on warm state and requires exactly zero allocations.
func TestExecDecodedZeroAlloc(t *testing.T) {
	const lanes = 128
	sub := NewSubarray(64, lanes)
	spill := NewSpillStore()
	g := dram.DefaultGeometry()
	eng := dram.NewEngine(g, dram.TimingFor(isa.Ambit, g), false)
	d := Decode(steadyProgram())
	io := steadyIO(sub.words)

	run := func() {
		for i := 0; i < d.Len(); i++ {
			if err := sub.ExecDecoded(d, i, io, spill); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			eng.IssueOp(0, 0, d.ops[i].kind, d.ops[i].imm)
		}
	}
	run() // warm: first touch allocates arena rows and the spill slot
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("steady-state ExecDecoded+IssueOp loop allocates %v allocs/op-sequence, want 0", n)
	}
}

// TestRunDecodedCtxZeroAlloc asserts the full Machine entry point — the
// plain run, RunRecoveredCtx with the zero policy, guard checkpoints
// included — is allocation-free once warm.
func TestRunDecodedCtxZeroAlloc(t *testing.T) {
	g := dram.DefaultGeometry()
	m := NewMachine(MachineConfig{Geom: g, Arch: isa.Ambit, Lanes: 96})
	d := Decode(steadyProgram())
	io := steadyIO(m.sub.words)
	ctx := context.Background()
	b := guard.Budget{}

	run := func() {
		if _, _, err := m.RunRecoveredCtx(ctx, d, 0, 0, io, b, RecoveryPolicy{}); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("steady-state plain run allocates %v allocs/run, want 0", n)
	}
}

// TestRunFunctionalCtxZeroAlloc: the functional loop — the single-subarray
// run that takes its timing from elsewhere — is allocation-free once warm
// and issues nothing to the machine's engine.
func TestRunFunctionalCtxZeroAlloc(t *testing.T) {
	g := dram.DefaultGeometry()
	m := NewMachine(MachineConfig{Geom: g, Arch: isa.Ambit, Lanes: 96})
	d := Decode(steadyProgram())
	io := steadyIO(m.sub.words)
	b := guard.Budget{MaxSimSteps: 1 << 20, MaxDRAMCommands: 1 << 20}
	run := func() {
		if err := m.RunFunctionalCtx(context.Background(), d, io, b); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("steady-state functional run allocates %v allocs/run, want 0", n)
	}
	if st := m.Stats(); st != (dram.EngineStats{}) {
		t.Fatalf("the functional loop reached the engine: %+v", st)
	}
}

// TestResetKeepsZeroAlloc proves trial-style reuse (Reset between replays,
// as verify and reliability loops do) stays allocation-free after the first
// post-reset replay re-touches the arena.
func TestResetKeepsZeroAlloc(t *testing.T) {
	sub := NewSubarray(64, 64)
	spill := NewSpillStore()
	g := dram.DefaultGeometry()
	eng := dram.NewEngine(g, dram.TimingFor(isa.SIMDRAM, g), true)
	d := Decode(steadyProgram())
	io := steadyIO(sub.words)

	trial := func() {
		sub.Reset()
		spill.Reset()
		eng.Reset()
		for i := 0; i < d.Len(); i++ {
			if err := sub.ExecDecoded(d, i, io, spill); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			eng.IssueOp(0, 0, d.ops[i].kind, d.ops[i].imm)
		}
	}
	trial()
	if n := testing.AllocsPerRun(50, trial); n != 0 {
		t.Fatalf("Reset+replay trial allocates %v allocs/trial, want 0", n)
	}
}
