package sim

import (
	"testing"

	"chopper/internal/dram"
	"chopper/internal/fault"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// recordingHook logs every hook invocation it subscribes to without
// perturbing anything.
type recordingHook struct {
	sub                             isa.Events
	loads, computes, copies, stores int
	lastOp                          int
}

func (h *recordingHook) Events() isa.Events { return h.sub }

func (h *recordingHook) BeforeLoad(opIdx int, r isa.Row, data []uint64, lanes int) {
	h.loads++
	h.lastOp = opIdx
}
func (h *recordingHook) AfterCompute(opIdx int, data []uint64, lanes int) { h.computes++ }
func (h *recordingHook) AfterCopy(opIdx int, data []uint64, lanes int)    { h.copies++ }
func (h *recordingHook) AfterStore(opIdx int, r isa.Row, data []uint64, lanes int) {
	h.stores++
}

// andProgram computes AND(D0, D1) into a READ: WRITE a->D0; WRITE b->D1;
// AAP D0->T0; AAP D1->T1; AAP C0->T2; AP; READ T0.
func andProgram() *isa.Program {
	p := &isa.Program{DRowsUsed: 2}
	p.Append(
		isa.NewWrite(isa.Row(0), 0),
		isa.NewWrite(isa.Row(1), 1),
		isa.NewAAP(isa.Row(0), isa.T0),
		isa.NewAAP(isa.Row(1), isa.T1),
		isa.NewAAP(isa.C0, isa.T2),
		isa.NewAP(isa.T0, isa.T1, isa.T2),
		isa.NewRead(isa.T0, 0),
	)
	return p
}

func runAnd(t *testing.T, hook FaultHook) uint64 {
	t.Helper()
	const lanes = 64
	s := NewSubarray(8, lanes)
	if hook != nil {
		s.SetFaultHook(hook)
	}
	var out uint64
	io := &HostIO{
		WriteData: func(tag int) []uint64 {
			if tag == 0 {
				return []uint64{0xff00ff00ff00ff00}
			}
			return []uint64{0xffff0000ffff0000}
		},
		ReadSink: func(tag int, data []uint64) { out = data[0] },
	}
	spill := NewSpillStore()
	prog := andProgram()
	for i := range prog.Ops {
		if err := s.Exec(&prog.Ops[i], io, spill); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	return out
}

func TestFaultHookInvocations(t *testing.T) {
	h := &recordingHook{sub: isa.EvAll}
	out := runAnd(t, h)
	want := uint64(0xff00ff00ff00ff00 & 0xffff0000ffff0000)
	if out != want {
		t.Fatalf("AND result %#x, want %#x (recording hook must not perturb)", out, want)
	}
	// 3 AAP loads + 3 AP loads + 1 READ load.
	if h.loads != 7 {
		t.Errorf("loads = %d, want 7", h.loads)
	}
	if h.computes != 1 {
		t.Errorf("computes = %d, want 1", h.computes)
	}
	if h.copies != 3 {
		t.Errorf("copies = %d, want 3", h.copies)
	}
	// 2 WRITE stores + 3 AAP stores + 3 AP stores.
	if h.stores != 8 {
		t.Errorf("stores = %d, want 8", h.stores)
	}
	if h.lastOp != 6 {
		t.Errorf("last op index = %d, want 6", h.lastOp)
	}
}

// TestFaultHookSubscription: a hook is called for the events it subscribes
// to and for no other, on the checked path (Exec) and on a planned run.
func TestFaultHookSubscription(t *testing.T) {
	all := recordingHook{loads: 7, computes: 1, copies: 3, stores: 8}
	for _, ev := range []isa.Events{0, isa.EvLoad, isa.EvCompute, isa.EvCopy, isa.EvStore, isa.EvLoad | isa.EvStore} {
		want := recordingHook{sub: ev}
		for _, e := range []struct {
			ev  isa.Events
			n   *int
			all int
		}{{isa.EvLoad, &want.loads, all.loads}, {isa.EvCompute, &want.computes, all.computes}, {isa.EvCopy, &want.copies, all.copies}, {isa.EvStore, &want.stores, all.stores}} {
			if ev&e.ev != 0 {
				*e.n = e.all
			}
		}
		count := func(h *recordingHook) recordingHook {
			return recordingHook{sub: h.sub, loads: h.loads, computes: h.computes, copies: h.copies, stores: h.stores}
		}
		checked := &recordingHook{sub: ev}
		runAnd(t, checked)
		planned := &recordingHook{sub: ev}
		m := NewMachine(MachineConfig{Geom: dram.DefaultGeometry(), Arch: isa.Ambit, Lanes: 64, Fault: planned})
		io := &HostIO{WriteData: func(int) []uint64 { return []uint64{5} }, ReadSink: func(int, []uint64) {}}
		if err := m.RunFunctionalCtx(nil, Decode(andProgram()), io, guard.Budget{}); err != nil {
			t.Fatal(err)
		}
		for _, got := range []*recordingHook{checked, planned} {
			if count(got) != want {
				t.Errorf("events %04b: calls %+v, want %+v", ev, count(got), want)
			}
		}
	}
}

// decayOnce flips lane 0 of the first row it senses.
type decayOnce struct{ done bool }

func (*decayOnce) Events() isa.Events { return isa.EvLoad }
func (h *decayOnce) BeforeLoad(_ int, _ isa.Row, data []uint64, _ int) {
	if !h.done {
		data[0] ^= 1
		h.done = true
	}
}
func (*decayOnce) AfterCompute(int, []uint64, int)        {}
func (*decayOnce) AfterCopy(int, []uint64, int)           {}
func (*decayOnce) AfterStore(int, isa.Row, []uint64, int) {}

// TestRowInitSkipHeedsHook: a ROWINIT of a C-group row that holds its
// constant stores nothing only when no hook hears loads: one that does may
// have decayed the row, which the store restores.
func TestRowInitSkipHeedsHook(t *testing.T) {
	s := NewSubarray(8, 64)
	s.SetFaultHook(&decayOnce{})
	var out uint64
	io := &HostIO{ReadSink: func(_ int, data []uint64) { out = data[0] }}
	prog := []isa.Op{isa.NewAAP(isa.C0, isa.T0), isa.NewRowInit(isa.C0, 0), isa.NewAAP(isa.C0, isa.T1), isa.NewRead(isa.T1, 0)}
	for i := range prog {
		if err := s.Exec(&prog[i], io, nil); err != nil {
			t.Fatal(err)
		}
	}
	if out != 0 {
		t.Errorf("C0 read %#x after its ROWINIT, want 0", out)
	}
}

// A TRA fault model attached through MachineConfig.Fault corrupts exactly
// the seeded lane, reproducibly.
func TestMachineFaultFactoryDeterministic(t *testing.T) {
	cfg := fault.Config{TRAFlipRate: 1, MaxFaults: 1}
	run := func(seed int64) uint64 {
		m := NewMachine(MachineConfig{
			Geom:  dram.DefaultGeometry(),
			Arch:  isa.Ambit,
			Lanes: 64,
			Fault: fault.New(cfg, seed),
		})
		var out uint64
		io := &HostIO{
			WriteData: func(tag int) []uint64 {
				if tag == 0 {
					return []uint64{^uint64(0)}
				}
				return []uint64{^uint64(0)}
			},
			ReadSink: func(tag int, data []uint64) { out = data[0] },
		}
		if _, _, err := m.RunRecoveredCtx(nil, Decode(andProgram()), 0, 0, io, guard.Budget{}, RecoveryPolicy{}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(11), run(11)
	if a != b {
		t.Fatalf("same seed, different results: %#x vs %#x", a, b)
	}
	if a == ^uint64(0) {
		t.Fatal("TRA fault at rate 1 did not corrupt the all-ones AND result")
	}
	// Exactly one lane flipped.
	bad := ^a
	if bad&(bad-1) != 0 {
		t.Fatalf("more than one lane corrupted: %#x", a)
	}
}
