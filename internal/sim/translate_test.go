package sim

// The translated run against the interpreter. A translation is only worth
// running if it reproduces, for every program Translate accepts, what
// RunFunctionalCtx does with the program: the same WriteData and ReadSink
// calls in the same order, the same READ payloads, the same error at the
// same op, and ctx looked at the same number of times. The programs are
// seedref's random streams (planStreams' four variants and a long one)
// and, for each Translate rejects, the part of it that it accepts; the hosts include every way a
// host can fail a run and payloads shorter and longer than a row.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"chopper/internal/fault"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// TestTranslatedOpSize pins the translated instruction record at 20 bytes:
// a clean run strides the translation instruction by instruction, and a
// kernel that only runs clean retains it beside its program.
func TestTranslatedOpSize(t *testing.T) {
	if got := unsafe.Sizeof(tins{}); got != 20 {
		t.Fatalf("unsafe.Sizeof(tins{}) = %d, want 20", got)
	}
}

// transHost is one way a host serves a run: it builds a HostIO over words
// that records every call, in order, into calls.
type transHost struct {
	name string
	io   func(words int, calls *[]string) *HostIO
}

var transHosts = []transHost{
	{"full", func(words int, calls *[]string) *HostIO {
		return recordingIO(words, calls, func(int) int { return words })
	}},
	{"short", func(words int, calls *[]string) *HostIO {
		return recordingIO(words, calls, func(int) int { return words - 1 })
	}},
	{"long", func(words int, calls *[]string) *HostIO {
		return recordingIO(words, calls, func(int) int { return words + 1 })
	}},
	{"holes", func(words int, calls *[]string) *HostIO {
		return recordingIO(words, calls, func(tag int) int {
			if tag == 3 {
				return -1
			}
			return words
		})
	}},
	{"nil", func(int, *[]string) *HostIO { return nil }},
	{"nosink", func(words int, calls *[]string) *HostIO {
		io := recordingIO(words, calls, func(int) int { return words })
		io.ReadSink = nil
		return io
	}},
	{"nosource", func(words int, calls *[]string) *HostIO {
		io := recordingIO(words, calls, func(int) int { return words })
		io.WriteData = nil
		return io
	}},
}

// recordingIO serves WRITE tag with a payload of size(tag) words (nil if
// negative) and records each call. Each WriteData call returns a fresh
// payload, so a run that kept one would be caught by the next.
func recordingIO(words int, calls *[]string, size func(tag int) int) *HostIO {
	return &HostIO{
		WriteData: func(tag int) []uint64 {
			*calls = append(*calls, fmt.Sprintf("write tag%d", tag))
			n := size(tag)
			if n < 0 {
				return nil
			}
			row := make([]uint64, n)
			for i := range row {
				row[i] = uint64(tag+1)*0x9e3779b97f4a7c15 ^ uint64(i)*1099511628211 ^ uint64(len(*calls))<<40
			}
			return row
		},
		ReadSink: func(tag int, data []uint64) {
			*calls = append(*calls, fmt.Sprintf("read tag%d %x", tag, hashRow(data)))
			data[0] ^= 1 // a sink may scribble on the buffer it is lent
		},
	}
}

// countCtx is a context whose Err counts its calls and reports Canceled
// from call live+1 on.
type countCtx struct {
	context.Context
	live, looks int
}

func (c *countCtx) Err() error {
	if c.looks++; c.looks > c.live {
		return context.Canceled
	}
	return nil
}

// transOutcome is what a run did: its host calls, its error and its ctx
// looks.
type transOutcome struct {
	calls []string
	err   string
	looks int
}

func (o transOutcome) String() string {
	return fmt.Sprintf("err %q, %d looks, calls %q", o.err, o.looks, o.calls)
}

// runBoth runs prog through RunFunctionalCtx and its translation t through
// RunTranslatedCtx, each on a fresh machine, under host h and a ctx that
// cancels at look live.
func runBoth(prog *isa.Program, t *Translated, dRows, lanes int, h transHost, live int) (got, want transOutcome, translatable bool) {
	run := func(do func(*Machine, context.Context, *HostIO) error) (o transOutcome, m *Machine) {
		m = NewMachine(MachineConfig{Geom: planGeom(dRows), Arch: isa.Ambit, Lanes: lanes})
		ctx := &countCtx{Context: context.Background(), live: live}
		if err := do(m, ctx, h.io(m.sub.words, &o.calls)); err != nil {
			o.err = err.Error()
		}
		o.looks = ctx.looks
		return o, m
	}
	want, _ = run(func(m *Machine, ctx context.Context, io *HostIO) error {
		return m.RunFunctionalCtx(ctx, Decode(prog), io, guard.Budget{})
	})
	got, _ = run(func(m *Machine, ctx context.Context, io *HostIO) error {
		if translatable = m.Translatable(t, guard.Budget{}); !translatable {
			return nil
		}
		return m.RunTranslatedCtx(ctx, t, io)
	})
	return got, want, translatable
}

// translatedPart is the program of the ops of prog, in order, that each
// leave the program so far one Translate accepts, and its translation.
func translatedPart(prog *isa.Program) (*isa.Program, *Translated) {
	p := &isa.Program{DRowsUsed: prog.DRowsUsed, SpillSlots: prog.SpillSlots}
	t, _ := Translate(p)
	for _, op := range prog.Ops {
		p.Ops = append(p.Ops, op)
		if next, err := Translate(p); err == nil {
			t = next
		} else {
			p.Ops = p.Ops[:len(p.Ops)-1]
		}
	}
	return p, t
}

// transStreams is planStreams(seed) and, so that a run crosses several
// ctx checkpoints, the part of its last variant (which runs to the end)
// that Translate accepts, six times over: a program it accepts.
func transStreams(seed int64) (int, []*isa.Program) {
	dRows, progs := planStreams(seed)
	whole, _ := translatedPart(progs[len(progs)-1])
	long := &isa.Program{DRowsUsed: whole.DRowsUsed, SpillSlots: whole.SpillSlots}
	for range 6 {
		long.Ops = append(long.Ops, whole.Ops...)
	}
	return dRows, append(progs, long)
}

// checkRejected holds Translate's rejection err of prog to the
// interpreter: prog's run under the full host on a dRows-row subarray
// fails at the op the rejection names.
func checkRejected(t *testing.T, name string, prog *isa.Program, dRows int, err error) {
	t.Helper()
	var te *TranslateError
	if !errors.As(err, &te) {
		t.Fatalf("%s: Translate returned %v, want a *TranslateError", name, err)
	}
	m := NewMachine(MachineConfig{Geom: planGeom(dRows), Arch: isa.Ambit, Lanes: 64})
	var calls []string
	run := m.RunFunctionalCtx(context.Background(), Decode(prog), transHosts[0].io(m.sub.words, &calls), guard.Budget{})
	if run == nil || !strings.HasPrefix(run.Error(), fmt.Sprintf("op %d ", te.Op)) {
		t.Fatalf("%s: Translate rejects op %d (%s), but the interpreted run ends in %v", name, te.Op, te.Reason, run)
	}
}

// checkTranslated holds the translated runs of transStreams(seed)'s
// accepted programs, and of the accepted part of each rejected one, against the interpreter at each lane count, under every host, with
// ctx live throughout and canceled at each look; and each rejection to
// the op its interpreted run fails at (checkRejected). It returns how many
// of the programs Translate accepted, and of how many.
func checkTranslated(t *testing.T, seed int64, laneCounts []int) (accepted, total int) {
	dRows, progs := transStreams(seed)
	for v, prog := range progs {
		tr, err := Translate(prog)
		if err == nil {
			accepted++
		} else {
			checkRejected(t, fmt.Sprintf("seed %d variant %d", seed, v), prog, dRows, err)
			prog, tr = translatedPart(prog)
		}
		for _, lanes := range laneCounts {
			for _, h := range transHosts {
				for live := 1 << 30; live >= 0; live-- {
					got, want, ok := runBoth(prog, tr, dRows, lanes, h, live)
					name := fmt.Sprintf("seed %d variant %d (%d of %d ops) lanes %d host %s ctx live %d", seed, v, len(prog.Ops), len(progs[v].Ops), lanes, h.name, live)
					if !ok {
						t.Fatalf("%s: an accepted translation with no row past D%d is not translatable", name, dRows-1)
					}
					if got.err != want.err || got.looks != want.looks || !slices.Equal(got.calls, want.calls) {
						t.Fatalf("%s:\n got %v\nwant %v", name, got, want)
					}
					if live == 1<<30 {
						live = want.looks // then cancel at each look the full run made
					}
				}
			}
		}
	}
	return accepted, len(progs)
}

// TestTranslatedMatchesInterpreter: every translated run of the random
// corpus is its interpreted run, call for call. The corpus must hold
// programs Translate accepts and programs it rejects (whose accepted parts
// are checked instead), or the check would prove nothing about
// one of the two.
func TestTranslatedMatchesInterpreter(t *testing.T) {
	accepted, total := 0, 0
	for seed := int64(0); seed < 24; seed++ {
		a, n := checkTranslated(t, seed, []int{1, 63, 64, 65, 128, 1024})
		accepted, total = accepted+a, total+n
	}
	if accepted == 0 || accepted == total {
		t.Fatalf("Translate accepted %d of %d programs; the corpus must hold both kinds", accepted, total)
	}
}

// FuzzTranslate widens TestTranslatedMatchesInterpreter to any planStreams
// seed and lane count.
func FuzzTranslate(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint16(60+seed*13))
	}
	f.Fuzz(func(t *testing.T, seed int64, l uint16) {
		checkTranslated(t, seed, []int{int(l)%1100 + 1})
	})
}

// TestTranslateResolvesCopies: a translation keeps an op that computes or
// crosses the host boundary and drops every copy, and reads a dual-contact
// partner as the complement of what its pair was given. A program it
// rejects names the op and the reason, and its interpreted run fails at
// that op: the table holds the rejections the random corpus never makes.
func TestTranslateResolvesCopies(t *testing.T) {
	prog := &isa.Program{Ops: []isa.Op{
		isa.NewWrite(isa.Row(0), 0),
		isa.NewWrite(isa.Row(1), 1),
		isa.NewAAP(isa.Row(0), isa.T0),
		isa.NewAAP(isa.Row(1), isa.DCC0),
		isa.NewAAP(isa.DCC0N, isa.T1),
		isa.NewAAP(isa.C1, isa.T2),
		isa.NewAP(isa.T0, isa.T1, isa.T2),
		isa.NewSpillOut(isa.T0, 3),
		isa.NewSpillIn(isa.Row(4), 3),
		isa.NewAAP(isa.Row(4), isa.Row(5)),
		isa.NewRead(isa.Row(5), 2),
	}}
	tr, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []uint8
	for _, in := range tr.ins {
		kinds = append(kinds, in.kind)
	}
	if want := []uint8{tLoad, tLoad, tOr, tRead}; !slices.Equal(kinds, want) {
		t.Fatalf("instruction kinds %v, want %v", kinds, want)
	}
	// The AP beside C1 is row 0 OR NOT row 1, which the READ reads as is.
	if or, read := tr.ins[2], tr.ins[3]; or.neg != 0b10 || read.neg != 0 || read.a != or.dst {
		t.Fatalf("OR %+v, READ %+v: want row 0 OR NOT row 1, read uncomplemented", or, read)
	}
	for _, tc := range []struct {
		name string
		prog *isa.Program
		want string // the reason Translate gives at the last op
	}{
		{"uninitialized read", &isa.Program{Ops: []isa.Op{isa.NewAAP(isa.Row(3), isa.T0)}}, "read of undefined row D3"},
		{"unwritten spill slot", &isa.Program{Ops: []isa.Op{isa.NewWrite(isa.Row(0), 0), isa.NewSpillIn(isa.Row(0), 1)}}, "SPILL_IN of unwritten slot 1"},
		{"AAP into C0", &isa.Program{Ops: []isa.Op{isa.NewAAP(isa.C1, isa.C0)}}, "AAP into constant row C0"},
		{"WRITE into C1", &isa.Program{Ops: []isa.Op{isa.NewAAP(isa.C1, isa.T0), isa.NewWrite(isa.C1, 0)}}, "WRITE into constant row C1"},
		{"AAP into C0 at its second destination", &isa.Program{Ops: []isa.Op{isa.NewAAP(isa.C1, isa.T0, isa.C0)}}, "AAP into constant row C0"},
		{"no such row", &isa.Program{Ops: []isa.Op{isa.NewAAP(isa.C1, isa.T0), isa.NewAAP(isa.C1, isa.Row(-20))}}, "write to row R?-20 outside the subarray"},
		{"unknown kind", &isa.Program{Ops: []isa.Op{{Kind: isa.OpKind(99)}}}, "unknown op kind 99"},
	} {
		tr, err := Translate(tc.prog)
		var te *TranslateError
		if op := len(tc.prog.Ops) - 1; tr != nil || !errors.As(err, &te) || te.Op != op || te.Reason != tc.want {
			t.Errorf("%s: %v, %v; want a rejection at op %d: %s", tc.name, tr, err, op, tc.want)
			continue
		}
		checkRejected(t, tc.name, tc.prog, 8, err)
	}

	// A SPILL_IN into C0 stores like a WRITE: rejected where it stores, so
	// the copy out of C0 after it never reads the spilled row.
	spilled := &isa.Program{Ops: []isa.Op{isa.NewWrite(isa.Row(0), 0), isa.NewSpillOut(isa.Row(0), 0),
		isa.NewSpillIn(isa.C0, 0), isa.NewAAP(isa.C0, isa.Row(1)), isa.NewRead(isa.Row(1), 0)}, SpillSlots: 1}
	const reason = "SPILL_IN into constant row C0"
	tr, err = Translate(spilled)
	if te := (*TranslateError)(nil); tr != nil || !errors.As(err, &te) || te.Op != 2 || te.Reason != reason {
		t.Errorf("SPILL_IN into C0: %v, %v; want a rejection at op 2: %s", tr, err, reason)
	}
	m := NewMachine(MachineConfig{Geom: planGeom(8), Arch: isa.Ambit, Lanes: 64})
	var calls []string
	if run := m.RunFunctionalCtx(context.Background(), Decode(spilled), transHosts[0].io(m.sub.words, &calls), guard.Budget{}); run == nil ||
		!strings.HasPrefix(run.Error(), "op 2 ") || !strings.Contains(run.Error(), reason) {
		t.Errorf("SPILL_IN into C0: the interpreted run ends in %v, want op 2: %s", run, reason)
	}
}

// TestTranslatableOnlyWhenUnwatched: a fault hook, parity tracking, a row
// past the subarray's D rows or a budget that stops inside the stream each
// send the run to the interpreter.
func TestTranslatableOnlyWhenUnwatched(t *testing.T) {
	prog, tr := translatedPart(steadyProgram())
	n := len(prog.Ops)
	m := NewMachine(MachineConfig{Geom: planGeom(8), Arch: isa.Ambit, Lanes: 64})
	if !m.Translatable(tr, guard.Budget{}) || !m.Translatable(tr, guard.Budget{MaxSimSteps: n, MaxDRAMCommands: n}) {
		t.Fatal("a clean run is not translatable")
	}
	for name, b := range map[string]guard.Budget{"steps": {MaxSimSteps: n - 1}, "commands": {MaxDRAMCommands: n - 1}} {
		if m.Translatable(tr, b) {
			t.Errorf("a %s budget that stops at op %d is translatable", name, n-1)
		}
	}
	if m.Translatable(nil, guard.Budget{}) {
		t.Error("a rejected program is translatable")
	}
	m.sub.SetParityTracking(true)
	if m.Translatable(tr, guard.Budget{}) {
		t.Error("a parity-tracked run is translatable")
	}
	m.Reconfigure(MachineConfig{Geom: planGeom(8), Arch: isa.Ambit, Lanes: 64, Fault: &traceHook{}})
	if m.Translatable(tr, guard.Budget{}) {
		t.Error("a hooked run is translatable")
	}
	m.Reconfigure(MachineConfig{Geom: planGeom(5), Arch: isa.Ambit, Lanes: 64})
	if m.Translatable(tr, guard.Budget{}) {
		t.Error("a run naming D5 on a 5-row subarray is translatable")
	}
}

// TestRunTranslatedZeroAlloc: a warm translated run allocates nothing; the
// register file is the machine's, and MemBytes counts it.
func TestRunTranslatedZeroAlloc(t *testing.T) {
	dRows, progs := transStreams(1)
	tr, _ := Translate(progs[len(progs)-1])
	if tr == nil || len(tr.ins) < 100 || len(tr.cuts) < 3 {
		t.Fatal("the stream is too short to gate")
	}
	m := NewMachine(MachineConfig{Geom: planGeom(dRows), Arch: isa.Ambit, Lanes: 256})
	io := steadyIO(m.sub.words)
	before := m.MemBytes()
	run := func() {
		if err := m.RunTranslatedCtx(context.Background(), tr, io); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm translated run allocates %v times, want 0", allocs)
	}
	if grew, regs := m.MemBytes()-before, int64(tr.regs*m.sub.words*8); grew < regs {
		t.Fatalf("MemBytes grew %d bytes over a run with a %d-byte register file", grew, regs)
	}
}

// TestTRAFlipsTranslatedMatchInterpreter: under a fault.Injector of TRA
// flips alone, a run of TranslateTRAs's translation is the interpreted run
// of its program under the same injector — the same host calls and READ
// payloads, the same error, ctx looks and fault counts — across the random
// corpus at rates 0.05 and 1, and with one fault (rate 1, MaxFaults 1) at
// each AP in turn, live, dead or folded. The corpus must hold all three.
func TestTRAFlipsTranslatedMatchInterpreter(t *testing.T) {
	var fates [3]int
	for seed := int64(0); seed < 8; seed++ {
		dRows, progs := transStreams(seed)
		for v, prog := range progs {
			clean, err := Translate(prog)
			if err != nil {
				prog, clean = translatedPart(prog)
			}
			tr := TranslateTRAs(prog, clean)
			live, dead, folded := APFates(prog)
			fates[0], fates[1], fates[2] = fates[0]+len(live), fates[1]+len(dead), fates[2]+len(folded)
			cfgs := []fault.Config{{TRAFlipRate: 0.05}, {TRAFlipRate: 1}}
			for _, op := range slices.Concat(live, dead, folded) {
				cfgs = append(cfgs, fault.Config{TRAFlipRate: 1, MaxFaults: 1, FirstOp: op})
			}
			for _, lanes := range []int{1, 65, 130} {
				for c, cfg := range cfgs {
					got, want := runFlips(prog, tr, dRows, lanes, cfg, seed+int64(c))
					if got != want {
						t.Fatalf("seed %d variant %d lanes %d %+v:\n got %s\nwant %s", seed, v, lanes, cfg, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d live, %d dead and %d folded APs", fates[0], fates[1], fates[2])
	if fates[0] == 0 || fates[1] == 0 || fates[2] == 0 {
		t.Fatalf("the corpus has %d live, %d dead and %d folded APs; it needs each", fates[0], fates[1], fates[2])
	}
}

// runFlips runs prog on the interpreter and its TRA translation t, each on
// a fresh machine under a fresh injector of cfg and seed and the full host,
// and describes each run: its outcome and the faults it drew.
func runFlips(prog *isa.Program, t *Translated, dRows, lanes int, cfg fault.Config, seed int64) (got, want string) {
	run := func(do func(*Machine, context.Context, *HostIO) error) string {
		inj := fault.New(cfg, seed)
		m := NewMachine(MachineConfig{Geom: planGeom(dRows), Arch: isa.Ambit, Lanes: lanes, Fault: inj})
		ctx := &countCtx{Context: context.Background(), live: 1 << 30}
		var o transOutcome
		if err := do(m, ctx, transHosts[0].io(m.sub.words, &o.calls)); err != nil {
			o.err = err.Error()
		}
		o.looks = ctx.looks
		return fmt.Sprintf("%v, faults %+v", o, inj.Counts())
	}
	want = run(func(m *Machine, ctx context.Context, io *HostIO) error {
		return m.RunFunctionalCtx(ctx, Decode(prog), io, guard.Budget{})
	})
	got = run(func(m *Machine, ctx context.Context, io *HostIO) error {
		if !m.Translatable(t, guard.Budget{}) {
			return fmt.Errorf("not translatable")
		}
		return m.RunTranslatedCtx(ctx, t, io)
	})
	return got, want
}
