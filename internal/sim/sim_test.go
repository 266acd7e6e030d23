package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

func row(val uint64, words int) []uint64 {
	r := make([]uint64, words)
	for i := range r {
		r[i] = val
	}
	return r
}

func TestConstantRowsInitialized(t *testing.T) {
	s := NewSubarray(16, 128)
	c0 := s.Row(isa.C0)
	c1 := s.Row(isa.C1)
	if c0 == nil || c1 == nil {
		t.Fatal("C rows not initialized")
	}
	for i := range c0 {
		if c0[i] != 0 {
			t.Errorf("C0 word %d = %#x", i, c0[i])
		}
		if c1[i] != ^uint64(0) {
			t.Errorf("C1 word %d = %#x", i, c1[i])
		}
	}
}

func TestLaneMasking(t *testing.T) {
	s := NewSubarray(4, 100) // 100 lanes -> 2 words, top 28 bits masked
	c1 := s.Row(isa.C1)
	if c1[1] != (uint64(1)<<36)-1 {
		t.Errorf("C1 tail word = %#x, want 36 low bits", c1[1])
	}
}

func exec(t *testing.T, s *Subarray, op isa.Op, io *HostIO, sp *SpillStore) {
	t.Helper()
	if err := s.Exec(&op, io, sp); err != nil {
		t.Fatalf("%v: %v", op, err)
	}
}

func TestAAPAndTRA(t *testing.T) {
	s := NewSubarray(8, 64)
	a, b := uint64(0b1100), uint64(0b1010)
	io := &HostIO{WriteData: func(tag int) []uint64 {
		if tag == 0 {
			return []uint64{a}
		}
		return []uint64{b}
	}}
	exec(t, s, isa.NewWrite(isa.Row(0), 0), io, nil)
	exec(t, s, isa.NewWrite(isa.Row(1), 1), io, nil)
	exec(t, s, isa.NewAAP(isa.Row(0), isa.T0), nil, nil)
	exec(t, s, isa.NewAAP(isa.Row(1), isa.T1), nil, nil)
	exec(t, s, isa.NewAAP(isa.C0, isa.T2), nil, nil)
	exec(t, s, isa.NewAP(isa.T0, isa.T1, isa.T2), nil, nil)
	want := a & b
	for _, r := range []isa.Row{isa.T0, isa.T1, isa.T2} {
		if got := s.Row(r)[0]; got != want {
			t.Errorf("%s after AND-TRA = %#x, want %#x", r, got, want)
		}
	}

	// OR via C1 control.
	exec(t, s, isa.NewAAP(isa.Row(0), isa.T0), nil, nil)
	exec(t, s, isa.NewAAP(isa.Row(1), isa.T1), nil, nil)
	exec(t, s, isa.NewAAP(isa.C1, isa.T2), nil, nil)
	exec(t, s, isa.NewAP(isa.T0, isa.T1, isa.T2), nil, nil)
	if got := s.Row(isa.T0)[0]; got != a|b {
		t.Errorf("OR-TRA = %#x, want %#x", got, a|b)
	}
}

func TestMultiDestinationAAP(t *testing.T) {
	s := NewSubarray(8, 64)
	io := &HostIO{WriteData: func(int) []uint64 { return []uint64{0xF0} }}
	exec(t, s, isa.NewWrite(isa.Row(0), 0), io, nil)
	exec(t, s, isa.NewAAP(isa.Row(0), isa.T0, isa.T1, isa.T2), nil, nil)
	for _, r := range []isa.Row{isa.T0, isa.T1, isa.T2} {
		if got := s.Row(r)[0]; got != 0xF0 {
			t.Errorf("%s = %#x", r, got)
		}
	}
}

func TestDualContactNot(t *testing.T) {
	s := NewSubarray(8, 64)
	io := &HostIO{WriteData: func(int) []uint64 { return []uint64{0b0110} }}
	exec(t, s, isa.NewWrite(isa.Row(0), 0), io, nil)
	exec(t, s, isa.NewAAP(isa.Row(0), isa.DCC0), nil, nil)
	if got := s.Row(isa.DCC0N)[0]; got != ^uint64(0b0110) {
		t.Errorf("~DCC0 = %#x, want %#x", got, ^uint64(0b0110))
	}
	// Writing to the complement row flips the primary too.
	exec(t, s, isa.NewAAP(isa.C1, isa.DCC1N), nil, nil)
	if got := s.Row(isa.DCC1)[0]; got != 0 {
		t.Errorf("DCC1 = %#x, want 0", got)
	}
}

func TestTRAWithDCCOperand(t *testing.T) {
	// NOT(a) AND b computed as TRA(~DCC0, T1, T2) with control C0 in T2.
	s := NewSubarray(8, 64)
	a, b := uint64(0b1100), uint64(0b1010)
	io := &HostIO{WriteData: func(tag int) []uint64 {
		if tag == 0 {
			return []uint64{a}
		}
		return []uint64{b}
	}}
	exec(t, s, isa.NewWrite(isa.Row(0), 0), io, nil)
	exec(t, s, isa.NewWrite(isa.Row(1), 1), io, nil)
	exec(t, s, isa.NewAAP(isa.Row(0), isa.DCC0), nil, nil)
	exec(t, s, isa.NewAAP(isa.Row(1), isa.T1), nil, nil)
	exec(t, s, isa.NewAAP(isa.C0, isa.T2), nil, nil)
	exec(t, s, isa.NewAP(isa.DCC0N, isa.T1, isa.T2), nil, nil)
	want := ^a & b & 0xFFFF // only low bits matter here
	if got := s.Row(isa.T1)[0] & 0xFFFF; got != want {
		t.Errorf("~a&b = %#x, want %#x", got, want)
	}
}

func TestReadBack(t *testing.T) {
	s := NewSubarray(8, 64)
	var got []uint64
	io := &HostIO{
		WriteData: func(int) []uint64 { return []uint64{0xAB} },
		ReadSink:  func(tag int, data []uint64) { got = data },
	}
	exec(t, s, isa.NewWrite(isa.Row(3), 0), io, nil)
	exec(t, s, isa.NewRead(isa.Row(3), 7), io, nil)
	if got == nil || got[0] != 0xAB {
		t.Errorf("read back %v", got)
	}
}

func TestSpillRoundTrip(t *testing.T) {
	s := NewSubarray(8, 64)
	sp := NewSpillStore()
	io := &HostIO{WriteData: func(int) []uint64 { return []uint64{0xCD} }}
	exec(t, s, isa.NewWrite(isa.Row(0), 0), io, nil)
	exec(t, s, isa.NewSpillOut(isa.Row(0), 5), nil, sp)
	// Clobber the row, then refill.
	exec(t, s, isa.NewAAP(isa.C0, isa.T0), nil, nil)
	exec(t, s, isa.NewAAP(isa.T0, isa.Row(0)), nil, nil)
	if s.Row(isa.Row(0))[0] != 0 {
		t.Fatal("clobber failed")
	}
	exec(t, s, isa.NewSpillIn(isa.Row(0), 5), nil, sp)
	if got := s.Row(isa.Row(0))[0]; got != 0xCD {
		t.Errorf("after refill = %#x, want 0xCD", got)
	}
}

func TestErrors(t *testing.T) {
	s := NewSubarray(4, 64)
	cases := []struct {
		name string
		op   isa.Op
		io   *HostIO
		want string
	}{
		{"uninit read", isa.NewAAP(isa.Row(2), isa.T0), nil, "uninitialized"},
		{"aap to const", isa.NewAAP(isa.C1, isa.C0), nil, "constant"},
		{"write no host", isa.NewWrite(isa.Row(0), 0), nil, "no host"},
		{"spill-in unwritten", isa.NewSpillIn(isa.Row(0), 1), nil, "unwritten"},
		{"row out of range", isa.NewAAP(isa.Row(99), isa.T0), nil, "beyond"},
	}
	for _, tc := range cases {
		err := s.Exec(&tc.op, tc.io, NewSpillStore())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestRowInitWrongConstantRejected(t *testing.T) {
	s := NewSubarray(4, 64)
	op := isa.NewRowInit(isa.C0, 5)
	if err := s.Exec(&op, nil, nil); err == nil {
		t.Error("ROWINIT C0 with nonzero pattern accepted")
	}
}

// TestMachineRunAndTiming runs a stream placed on two subarrays the way a
// multi-subarray caller does: a subarray per placement executes the op,
// and one engine charges it where it is placed.
func TestMachineRunAndTiming(t *testing.T) {
	g := dram.DefaultGeometry()
	eng := dram.NewEngine(g, dram.TimingFor(isa.Ambit, g), false)
	subs := map[[2]int]*Subarray{}
	io := &HostIO{WriteData: func(tag int) []uint64 { return []uint64{uint64(tag)} }}
	stream := []dram.Placed{
		{Bank: 0, Subarray: 0, Op: isa.NewWrite(isa.Row(0), 1)},
		{Bank: 1, Subarray: 0, Op: isa.NewWrite(isa.Row(0), 2)},
		{Bank: 0, Subarray: 0, Op: isa.NewAAP(isa.Row(0), isa.T0)},
	}
	for _, p := range stream {
		s := subs[[2]int{p.Bank, p.Subarray}]
		if s == nil {
			s = NewSubarray(g.DRows(), 64)
			subs[[2]int{p.Bank, p.Subarray}] = s
		}
		if err := s.Exec(&p.Op, io, nil); err != nil {
			t.Fatal(err)
		}
		eng.Issue(p)
	}
	if eng.Makespan() <= 0 {
		t.Error("zero makespan")
	}
	if eng.Stats().DistinctUnit != 2 {
		t.Errorf("charged %d units, want 2", eng.Stats().DistinctUnit)
	}
	if subs[[2]int{0, 0}].Row(isa.T0)[0] != 1 {
		t.Error("bank 0 state wrong")
	}
	if subs[[2]int{1, 0}].Row(isa.Row(0))[0] != 2 {
		t.Error("bank 1 state wrong")
	}
}

// TestMachinePlacement holds the machine to its one-subarray contract: the
// (bank, sub) a run names is what the engine charges and what errors
// report, nothing more — the same run at (3, 5) costs what it costs at
// (0, 0), on exactly one engine unit — and a Reconfigure starts the next
// run, wherever it is placed, from fresh state.
func TestMachinePlacement(t *testing.T) {
	cfg := MachineConfig{Geom: dram.DefaultGeometry(), Arch: isa.Ambit, Lanes: 64}
	m := NewMachine(cfg)
	io := steadyIO(1)
	run := func(p *isa.Program, bank, sub int) error {
		m.Reconfigure(cfg)
		_, _, err := m.RunRecoveredCtx(nil, Decode(p), bank, sub, io, guard.Budget{}, RecoveryPolicy{})
		return err
	}
	var stats [2]dram.EngineStats
	for i, at := range [][2]int{{0, 0}, {3, 5}} {
		if err := run(steadyProgram(), at[0], at[1]); err != nil {
			t.Fatalf("run at %v: %v", at, err)
		}
		stats[i] = m.Stats()
		if stats[i].DistinctUnit != 1 {
			t.Errorf("run at %v charged %d engine units, want 1", at, stats[i].DistinctUnit)
		}
	}
	if stats[0] != stats[1] {
		t.Errorf("the run at (3, 5) costs differently from the run at (0, 0):\n%+v\n%+v", stats[1], stats[0])
	}

	bad := &isa.Program{Ops: []isa.Op{isa.NewWrite(isa.Row(0), 0), isa.NewAAP(isa.Row(1), isa.T0)}}
	if err := run(bad, 3, 5); err == nil || !strings.HasPrefix(err.Error(), "op 1 at bank 3 sub 5: ") {
		t.Errorf("error %v does not name op 1 at bank 3 sub 5", err)
	}

	// steadyProgram leaves D0 written and spill slot 3 live; after a
	// Reconfigure, a run elsewhere sees neither.
	for _, probe := range []struct {
		op   isa.Op
		want string
	}{
		{isa.NewRead(isa.Row(0), 0), "uninitialized"},
		{isa.NewSpillIn(isa.Row(1), 3), "unwritten slot 3"},
	} {
		if err := run(steadyProgram(), 0, 0); err != nil {
			t.Fatal(err)
		}
		err := run(&isa.Program{Ops: []isa.Op{probe.op}}, 2, 1)
		if err == nil || !strings.HasPrefix(err.Error(), "op 0 at bank 2 sub 1: ") || !strings.Contains(err.Error(), probe.want) {
			t.Errorf("%v after Reconfigure: error %v, want op 0 at bank 2 sub 1 and %q", probe.op, err, probe.want)
		}
	}
}

func TestRunProgram(t *testing.T) {
	prog := &isa.Program{}
	prog.Append(
		isa.NewWrite(isa.Row(0), 0),
		isa.NewAAP(isa.Row(0), isa.T0),
		isa.NewRead(isa.Row(0), 1),
	)
	var out []uint64
	io := &HostIO{
		WriteData: func(int) []uint64 { return []uint64{0x55} },
		ReadSink:  func(tag int, data []uint64) { out = data },
	}
	mk, err := RunProgram(prog, isa.SIMDRAM, dram.DefaultGeometry(), 64, io)
	if err != nil {
		t.Fatal(err)
	}
	if mk <= 0 || out == nil || out[0] != 0x55 {
		t.Errorf("mk=%f out=%v", mk, out)
	}
}

func TestFunctionalErrorAborts(t *testing.T) {
	m := NewMachine(MachineConfig{Geom: dram.DefaultGeometry(), Arch: isa.Ambit, Lanes: 64})
	prog := &isa.Program{Ops: []isa.Op{isa.NewAAP(isa.Row(0), isa.T0)}}
	if _, _, err := m.RunRecoveredCtx(nil, Decode(prog), 0, 0, nil, guard.Budget{}, RecoveryPolicy{}); err == nil {
		t.Error("uninitialized read did not abort run")
	}
}

// TestConfigureSmallerSubarray: a subarray reconfigured to fewer D rows at
// the same row width (a pooled machine passing from one kernel's geometry
// to a smaller one's) backs no row past its new size, so the walks over
// its backed rows — parity arming, the parity sweep, the vote digest —
// stay inside its presence bitmap.
func TestConfigureSmallerSubarray(t *testing.T) {
	s := NewSubarray(1006, 64)
	exec(t, s, isa.NewRowInit(isa.Row(600), 0xF0), nil, nil)
	s.Configure(64, 64)
	s.SetParityTracking(true)
	if n := s.ParitySweep(); n != 0 {
		t.Errorf("a fresh subarray's sweep found %d mismatches", n)
	}
	if r := s.Row(isa.Row(600)); r != nil {
		t.Errorf("row 600 survived the shrink: %x", r)
	}

	big := dram.DefaultGeometry()
	small := planGeom(64)
	m := NewMachine(MachineConfig{Geom: big, Arch: isa.Ambit, Lanes: 64})
	far := &isa.Program{Ops: []isa.Op{isa.NewRowInit(isa.Row(900), 1)}}
	if _, _, err := m.RunRecoveredCtx(nil, Decode(far), 0, 0, nil, guard.Budget{}, RecoveryPolicy{}); err != nil {
		t.Fatal(err)
	}
	for _, det := range []DetectorKind{DetectParity, DetectVote} {
		m.Reconfigure(MachineConfig{Geom: small, Arch: isa.Ambit, Lanes: 64})
		var log readLog
		if _, _, err := runRecovered(t, m, recProgram(3), recIO(&log), guard.Budget{}, RecoveryPolicy{Detector: det}); err != nil {
			t.Fatalf("detector %d: %v", det, err)
		}
		checkReads(t, &log, 3)
	}
}

// TestDeviceContract holds the simulator to the rows and subarrays the
// device has. An op that names a row the subarray lacks — a D row at or
// past dRows, an id that is no row — fails at that op on every execution
// path, with the row in its text: it stores nothing, no hook sees it, and
// the READs before it are delivered. A run placed outside the geometry
// fails before its first op.
func TestDeviceContract(t *testing.T) {
	const dRows = 8
	geom := dram.Geometry{Banks: 2, SubarraysPB: 4, RowsPerSub: dRows, RowBytes: 8}
	past, none := isa.Row(dRows), isa.Row(-20)
	pastErr, noneErr := "sim: row D8 beyond D-group size 8", "sim: no row R?-20 in the subarray"
	bad := []struct {
		op   isa.Op
		want string
	}{
		{isa.NewAAP(isa.Row(0), past), pastErr},
		{isa.NewAAP(isa.Row(0), isa.T0, none), noneErr},
		{isa.NewWrite(past, 1), pastErr},
		{isa.NewWrite(none, 1), noneErr},
		{isa.NewRowInit(past, 5), pastErr},
		{isa.NewRowInit(none, 5), noneErr},
		{isa.NewSpillIn(past, 0), pastErr},
		{isa.NewSpillIn(none, 0), noneErr},
		{isa.NewRead(none, 2), noneErr},
	}
	prefix := []isa.Op{isa.NewWrite(isa.Row(0), 1), isa.NewSpillOut(isa.Row(0), 0), isa.NewRead(isa.Row(0), 1)}
	stepwise := func(decoded bool) func(*Machine, *isa.Program, *HostIO) error {
		return func(m *Machine, p *isa.Program, io *HostIO) error {
			d := Decode(p)
			for i := range p.Ops {
				var err error
				if decoded {
					err = m.sub.ExecDecoded(d, i, io, &m.spill)
				} else {
					err = m.sub.Exec(&p.Ops[i], io, &m.spill)
				}
				if err != nil {
					return fmt.Errorf("op %d at bank 0 sub 0: %w", i, err)
				}
			}
			return nil
		}
	}
	recovered := func(det DetectorKind) func(*Machine, *isa.Program, *HostIO) error {
		return func(m *Machine, p *isa.Program, io *HostIO) error {
			_, _, err := m.RunRecoveredCtx(nil, Decode(p), 0, 0, io, guard.Budget{}, RecoveryPolicy{Detector: det, EpochUops: len(prefix)})
			return err
		}
	}
	paths := []struct {
		name string
		run  func(*Machine, *isa.Program, *HostIO) error
	}{
		{"Exec", stepwise(false)},
		{"ExecDecoded", stepwise(true)},
		{"RunFunctionalCtx", func(m *Machine, p *isa.Program, io *HostIO) error {
			return m.RunFunctionalCtx(nil, Decode(p), io, guard.Budget{})
		}},
		{"RunRecoveredCtx", recovered(DetectNone)},
		{"RunRecoveredCtx/parity", recovered(DetectParity)},
		{"RunRecoveredCtx/vote", recovered(DetectVote)},
	}
	// run executes p on a fresh machine and returns the error, the READs
	// delivered, the hook calls and every row of the subarray.
	run := func(path func(*Machine, *isa.Program, *HostIO) error, p *isa.Program) (string, []string, []string, [][]uint64) {
		h := &traceHook{}
		m := NewMachine(MachineConfig{Geom: geom, Arch: isa.Ambit, Lanes: 64, Fault: h})
		var reads []string
		msg := ""
		if err := path(m, p, testIO(1, 42, &reads)); err != nil {
			msg = err.Error()
		}
		var rows [][]uint64
		for r := isa.DCC1N; r < dRows; r++ {
			rows = append(rows, m.sub.Row(r))
		}
		return msg, reads, h.events, rows
	}
	for _, path := range paths {
		_, wantReads, _, wantRows := run(path.run, &isa.Program{Ops: prefix})
		for _, tc := range bad {
			p := &isa.Program{Ops: append(slices.Clone(prefix), tc.op, isa.NewRead(isa.Row(0), 3))}
			msg, reads, trace, rows := run(path.run, p)
			if want := "op 3 at bank 0 sub 0: " + tc.want; msg != want {
				t.Errorf("%s %v: error %q, want %q", path.name, tc.op, msg, want)
			}
			if !slices.Equal(reads, wantReads) {
				t.Errorf("%s %v: READs %q, want the prefix's %q", path.name, tc.op, reads, wantReads)
			}
			if i := slices.IndexFunc(trace, func(e string) bool { return strings.Contains(e, " op3 ") }); i >= 0 {
				t.Errorf("%s %v: a hook saw the failing op: %s", path.name, tc.op, trace[i])
			}
			if !slices.EqualFunc(rows, wantRows, eqWords) {
				t.Errorf("%s %v: the subarray's rows changed:\n got %x\nwant %x", path.name, tc.op, rows, wantRows)
			}
		}
	}

	m := NewMachine(MachineConfig{Geom: geom, Arch: isa.Ambit, Lanes: 64})
	good := Decode(&isa.Program{Ops: prefix})
	for _, det := range []DetectorKind{DetectNone, DetectVote} {
		for _, at := range [][2]int{{geom.Banks, 0}, {0, geom.SubarraysPB}, {-1, 0}, {geom.Banks - 1, geom.SubarraysPB - 1}} {
			m.Reconfigure(MachineConfig{Geom: geom, Arch: isa.Ambit, Lanes: 64})
			var reads []string
			_, _, err := m.RunRecoveredCtx(nil, good, at[0], at[1], testIO(1, 42, &reads), guard.Budget{}, RecoveryPolicy{Detector: det})
			want := fmt.Sprintf("sim: bank %d sub %d outside the geometry's 2 banks x 4 subarrays", at[0], at[1])
			if at[0] == geom.Banks-1 {
				want = ""
			}
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != want {
				t.Errorf("detector %d at %v: error %q, want %q", det, at, got, want)
			}
			if ran := len(reads) > 0 || m.Stats().Ops > 0; ran != (want == "") {
				t.Errorf("detector %d at %v: ran %v (%d READs, %d commands)", det, at, ran, len(reads), m.Stats().Ops)
			}
		}
	}
}
