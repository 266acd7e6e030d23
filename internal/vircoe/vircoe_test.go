package vircoe

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/isa"
	"chopper/internal/sim"
)

// testProgram builds a kernel-shaped program: interleaved writes and
// computation, ending with a read. w writes, c computes per write.
func testProgram(writes, computesPer int) *isa.Program {
	p := &isa.Program{}
	for i := 0; i < writes; i++ {
		p.Append(isa.NewWrite(isa.Row(i), i))
		for j := 0; j < computesPer; j++ {
			p.Append(isa.NewAAP(isa.Row(i), isa.T0))
			p.Append(isa.NewAP(isa.T0, isa.T1, isa.T2))
		}
	}
	p.Append(isa.NewRead(isa.Row(0), 0))
	p.DRowsUsed = writes
	return p
}

// serialStream materializes the naive broadcast.
func serialStream(prog *isa.Program, ps []Placement) []dram.Placed {
	var stream []dram.Placed
	SerialTo(prog, ps, collect(&stream, prog, ps))
	return stream
}

func makespan(t *testing.T, stream []dram.Placed, salp bool) float64 {
	t.Helper()
	g := dram.DefaultGeometry()
	eng := dram.NewEngine(g, dram.TimingFor(isa.Ambit, g), salp)
	ns, _ := eng.RunCtx(nil, stream, 0)
	return ns
}

func TestPlacements(t *testing.T) {
	g := dram.DefaultGeometry()
	ps := mustPlacements(t, g, 20)
	if len(ps) != 20 {
		t.Fatalf("got %d placements", len(ps))
	}
	// First 16 must land in 16 distinct banks (bank-major order).
	banks := make(map[int]bool)
	for _, p := range ps[:16] {
		banks[p.Bank] = true
	}
	if len(banks) != 16 {
		t.Errorf("first 16 placements span %d banks", len(banks))
	}
	if ps[16].Subarray != 1 {
		t.Errorf("17th placement subarray = %d, want 1", ps[16].Subarray)
	}
	if _, err := Placements(g, g.Banks*g.SubarraysPB+1); err == nil {
		t.Error("oversubscription did not error")
	}
	if _, err := Placements(g, -1); err == nil {
		t.Error("negative placement count did not error")
	}
}

// mustPlacements is Placements for tests whose geometry is known to fit.
func mustPlacements(t *testing.T, g dram.Geometry, n int) []Placement {
	t.Helper()
	ps, err := Placements(g, n)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestEmitPreservesPerSubarrayOrder(t *testing.T) {
	prog := testProgram(6, 3)
	g := dram.DefaultGeometry()
	ps := mustPlacements(t, g, 8)
	stream, st := Emit(prog, ps, BankAware, dram.TimingFor(isa.Ambit, g))
	if st.Ops != len(prog.Ops)*8 || len(stream) != st.Ops {
		t.Fatalf("ops = %d, want %d", st.Ops, len(prog.Ops)*8)
	}
	// Per placement, the op subsequence must equal the program.
	idx := make(map[[2]int]int)
	for _, pl := range stream {
		key := [2]int{pl.Bank, pl.Subarray}
		want := prog.Ops[idx[key]]
		if pl.Op.String() != want.String() {
			t.Fatalf("subarray %v op %d = %v, want %v", key, idx[key], pl.Op, want)
		}
		idx[key]++
	}
	for key, n := range idx {
		if n != len(prog.Ops) {
			t.Errorf("subarray %v ran %d ops", key, n)
		}
	}
}

func TestVircoeBeatsSerialBroadcast(t *testing.T) {
	prog := testProgram(8, 4)
	g := dram.DefaultGeometry()
	ps := mustPlacements(t, g, 16)
	tm := dram.TimingFor(isa.Ambit, g)

	serial := makespan(t, serialStream(prog, ps), false)
	inter, st := Emit(prog, ps, BankAware, tm)
	vir := makespan(t, inter, false)
	if vir >= serial {
		t.Fatalf("VIRCOE (%.0f ns) not faster than serial broadcast (%.0f ns)", vir, serial)
	}
	if st.Interleave == 0 {
		t.Error("no interleaving happened")
	}
	// The win should be substantial: transfers hidden under computation.
	if vir > 0.8*serial {
		t.Errorf("VIRCOE win too small: %.0f vs %.0f ns", vir, serial)
	}
}

// Figure 12's shape: without SALP, subarray-aware emission is worse than
// bank-aware (its parallelism assumption is wrong); with SALP it is better.
func TestModeVsSALP(t *testing.T) {
	// A compute-dominated regime (small rows, long compute runs) with
	// oversubscribed banks: 64 placements on 16 banks = 4 subarrays per
	// bank, so same-bank scheduling decisions matter.
	prog := testProgram(4, 25)
	g := dram.DefaultGeometry()
	g.RowBytes = 512
	ps := mustPlacements(t, g, 64)
	tm := dram.TimingFor(isa.Ambit, g)

	bankStream, _ := Emit(prog, ps, BankAware, tm)
	subStream, _ := Emit(prog, ps, SubarrayAware, tm)

	mk := func(stream []dram.Placed, salp bool) float64 {
		eng := dram.NewEngine(g, tm, salp)
		ns, _ := eng.RunCtx(nil, stream, 0)
		return ns
	}
	bankNoSALP := mk(bankStream, false)
	subNoSALP := mk(subStream, false)
	bankSALP := mk(bankStream, true)
	subSALP := mk(subStream, true)
	t.Logf("bank/noSALP=%.0f sub/noSALP=%.0f bank/SALP=%.0f sub/SALP=%.0f",
		bankNoSALP, subNoSALP, bankSALP, subSALP)

	if subNoSALP < bankNoSALP {
		t.Errorf("without SALP, subarray-aware (%.0f) should not beat bank-aware (%.0f)", subNoSALP, bankNoSALP)
	}
	if subSALP >= subNoSALP {
		t.Errorf("SALP did not help subarray-aware emission: %.0f vs %.0f", subSALP, subNoSALP)
	}
	if subSALP >= bankSALP {
		t.Errorf("with SALP, subarray-aware (%.0f) should beat bank-aware (%.0f)", subSALP, bankSALP)
	}
}

func TestEmitFunctionallyCorrectPerSubarray(t *testing.T) {
	// Each subarray gets its own tile: write a value, AND it with itself
	// (identity), read it back; results must match per subarray.
	prog := &isa.Program{}
	prog.Append(
		isa.NewWrite(isa.Row(0), 0),
		isa.NewAAP(isa.Row(0), isa.T0, isa.T1),
		isa.NewAAP(isa.C1, isa.T2),
		isa.NewAP(isa.T0, isa.T1, isa.T2),
		isa.NewAAP(isa.T0, isa.Row(1)),
		isa.NewRead(isa.Row(1), 0),
	)
	prog.DRowsUsed = 2
	g := dram.DefaultGeometry()
	ps := mustPlacements(t, g, 6)
	stream, _ := Emit(prog, ps, BankAware, dram.TimingFor(isa.Ambit, g))

	// The stream's ops are decoded once; each placement executes its ops on
	// a subarray of its own, with host data bound to that placement.
	ops := make([]isa.Op, len(stream))
	for i := range stream {
		ops[i] = stream[i].Op
	}
	d := sim.Decode(&isa.Program{Ops: ops, DRowsUsed: prog.DRowsUsed})
	got := make(map[[2]int]uint64)
	subs := make(map[[2]int]*sim.Subarray)
	for i := range stream {
		p := &stream[i]
		at := [2]int{p.Bank, p.Subarray}
		s := subs[at]
		if s == nil {
			s = sim.NewSubarray(g.DRows(), 64)
			subs[at] = s
		}
		io := &sim.HostIO{
			WriteData: func(tag int) []uint64 { return []uint64{uint64(at[0]*100 + at[1] + 7)} },
			ReadSink:  func(tag int, data []uint64) { got[at] = data[0] },
		}
		if err := s.ExecDecoded(d, i, io, nil); err != nil {
			t.Fatalf("op %d at %v: %v", i, at, err)
		}
	}
	if len(got) != 6 {
		t.Fatalf("read back %d tiles, want 6", len(got))
	}
	for _, p := range ps {
		want := uint64(p.Bank*100 + p.Subarray + 7)
		if got[[2]int{p.Bank, p.Subarray}] != want {
			t.Errorf("tile %v = %d, want %d", p, got[[2]int{p.Bank, p.Subarray}], want)
		}
	}
}

func TestSerialStreamShape(t *testing.T) {
	prog := testProgram(2, 1)
	ps := []Placement{{0, 0}, {1, 0}}
	stream := serialStream(prog, ps)
	if len(stream) != 2*len(prog.Ops) {
		t.Fatalf("stream len %d", len(stream))
	}
	// First half all bank 0.
	for _, pl := range stream[:len(prog.Ops)] {
		if pl.Bank != 0 {
			t.Fatal("serial broadcast interleaved")
		}
	}
}

func TestModeStrings(t *testing.T) {
	if BankAware.String() != "bank-aware" || SubarrayAware.String() != "subarray-aware" {
		t.Error("mode names wrong")
	}
}

// referenceEmitTo is VIRCOE's rule written as the O(ops·n) linear scan it
// specifies, the oracle EmitTo must match op for op and in its Stats: at
// every step it issues the next op of the placement that can start
// earliest under the emitter's device model, ties going to the placement
// that has waited longest (the lowest issue stamp; before its first issue a
// placement's stamp is its position in placements). It computes every
// start from scratch and numbers units in order of first appearance, so it
// shares no bookkeeping with EmitTo.
func referenceEmitTo(prog *isa.Program, placements []Placement, mode Mode, t dram.Timing, sink Sink) Stats {
	n := len(placements)
	ops := prog.Ops
	st := Stats{Subarrays: n}
	pcs := make([]int, n)
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = i
	}
	units := map[Placement]int{}
	unitOf := make([]int, n)
	for i, p := range placements {
		if mode != SubarrayAware {
			p.Subarray = 0
		}
		if _, ok := units[p]; !ok {
			units[p] = len(units)
		}
		unitOf[i] = units[p]
	}
	unitFree := make([]float64, len(units))
	subSeq := make([]float64, n)
	var busFree, lastStart float64
	const issueGap = 0.833
	last := -1
	for st.Ops < n*len(ops) {
		best := -1
		var bestStart float64
		for i := 0; i < n; i++ {
			if pcs[i] == len(ops) {
				continue
			}
			start := max(subSeq[i], unitFree[unitOf[i]])
			if ops[pcs[i]].IsTransfer() {
				start = max(start, busFree)
			}
			if best < 0 || start < bestStart || start == bestStart && stamp[i] < stamp[best] {
				best, bestStart = i, start
			}
		}
		if st.Ops > 0 {
			bestStart = max(bestStart, lastStart+issueGap)
		}
		op := &ops[pcs[best]]
		if !sink(placements[best].Bank, placements[best].Subarray, op) {
			return st
		}
		if last >= 0 && best != last && pcs[last] < len(ops) {
			st.Interleave++
		}
		last = best
		if op.IsTransfer() {
			st.Transfers++
			busFree = bestStart + t.BusLatency(op)
			st.BusBusyNs += t.BusLatency(op)
		}
		end := bestStart + t.OpLatency(op)
		unitFree[unitOf[best]] = end
		subSeq[best] = end
		lastStart = bestStart
		st.SpanNs = max(st.SpanNs, end)
		pcs[best]++
		stamp[best] = n + st.Ops
		st.Ops++
	}
	return st
}

// issued is one command as a sink saw it: the subarray and the index of
// the op in the program.
type issued struct{ bank, sub, op int32 }

// matchReference runs EmitTo and referenceEmitTo through sinks that accept
// the first limit commands (all of them when limit < 0) and fails on the
// first command or Stats field where they differ.
func matchReference(t testing.TB, name string, prog *isa.Program, ps []Placement, mode Mode, tm dram.Timing, limit int) {
	t.Helper()
	var base uintptr
	if len(prog.Ops) > 0 {
		base = reflect.ValueOf(&prog.Ops[0]).Pointer()
	}
	size := reflect.TypeOf(isa.Op{}).Size()
	run := func(emit func(*isa.Program, []Placement, Mode, dram.Timing, Sink) Stats) ([]issued, Stats) {
		got := make([]issued, 0, len(prog.Ops)*len(ps))
		st := emit(prog, ps, mode, tm, func(bank, sub int, op *isa.Op) bool {
			if len(got) == limit {
				return false
			}
			idx := (reflect.ValueOf(op).Pointer() - base) / size
			got = append(got, issued{int32(bank), int32(sub), int32(idx)})
			return true
		})
		return got, st
	}
	got, gotSt := run(EmitTo)
	want, wantSt := run(referenceEmitTo)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s %v: command %d is %+v, reference %+v", name, mode, i, got[i], want[i])
		}
	}
	if len(got) != len(want) || gotSt != wantSt {
		t.Fatalf("%s %v: %d commands %+v, reference %d commands %+v", name, mode, len(got), gotSt, len(want), wantSt)
	}
}

// randomProgram draws a program of up to maxOps micro-ops of every kind,
// transfers and computation mixed in any order.
func randomProgram(r *rand.Rand, maxOps int) *isa.Program {
	p := &isa.Program{}
	for i := r.Intn(maxOps + 1); i > 0; i-- {
		row := isa.Row(r.Intn(8))
		switch r.Intn(7) {
		case 0:
			p.Append(isa.NewWrite(row, i))
		case 1:
			p.Append(isa.NewRead(row, i))
		case 2:
			p.Append(isa.NewSpillOut(row, uint64(i)))
		case 3:
			p.Append(isa.NewSpillIn(row, uint64(i)))
		case 4:
			p.Append(isa.NewCopy(isa.C0, row))
		case 5:
			p.Append(isa.NewAP(isa.T0, isa.T1, isa.T2))
		default:
			p.Append(isa.NewAAP(row, isa.T0))
		}
	}
	p.DRowsUsed = 8
	return p
}

// randomPlacements draws n placements on a banks x subs grid, duplicates
// allowed, in random order.
func randomPlacements(r *rand.Rand, n, banks, subs int) []Placement {
	ps := make([]Placement, n)
	for i := range ps {
		ps[i] = Placement{Bank: r.Intn(banks), Subarray: r.Intn(subs)}
	}
	return ps
}

// namedTiming is one timing EmitTo can be given.
type namedTiming struct {
	name string
	t    dram.Timing
}

// referenceTimings are the three architectures' timings on the default
// geometry and on one with short rows, where computation dominates.
func referenceTimings() []namedTiming {
	small := dram.DefaultGeometry()
	small.RowBytes = 512
	var out []namedTiming
	for _, arch := range []isa.Arch{isa.Ambit, isa.ELP2IM, isa.SIMDRAM} {
		out = append(out,
			namedTiming{arch.String(), dram.TimingFor(arch, dram.DefaultGeometry())},
			namedTiming{arch.String() + "/512B", dram.TimingFor(arch, small)})
	}
	return out
}

// EmitTo must issue exactly the reference scan's stream, with its Stats:
// on random programs and placements (duplicated, shuffled, bank-major,
// none), an empty program, every architecture's timing, both modes, and
// sinks that stop part-way.
func TestEmitHeapMatchesReference(t *testing.T) {
	g := dram.DefaultGeometry()
	r := rand.New(rand.NewSource(1))
	for _, nt := range referenceTimings() {
		tname, tm := nt.name, nt.t
		for trial := 0; trial < 40; trial++ {
			prog := randomProgram(r, 60)
			var ps []Placement
			switch trial % 4 {
			case 0:
				ps = mustPlacements(t, g, r.Intn(70))
			case 1:
				ps = randomPlacements(r, r.Intn(24), 4, 4)
			case 2:
				ps = randomPlacements(r, r.Intn(40), 2, 16)
			default:
				ps = mustPlacements(t, g, r.Intn(40))
				r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			}
			for _, mode := range []Mode{BankAware, SubarrayAware} {
				name := fmt.Sprintf("%s trial %d (%d ops, %d placements)", tname, trial, len(prog.Ops), len(ps))
				matchReference(t, name, prog, ps, mode, tm, -1)
				matchReference(t, name+" stopped", prog, ps, mode, tm, r.Intn(len(prog.Ops)*len(ps)+1))
			}
		}
		for _, mode := range []Mode{BankAware, SubarrayAware} {
			matchReference(t, tname+" empty program", &isa.Program{}, mustPlacements(t, g, 8), mode, tm, -1)
			matchReference(t, tname+" no placements", testProgram(3, 2), nil, mode, tm, -1)
			matchReference(t, tname+" kernel-shaped", testProgram(6, 3), mustPlacements(t, g, 33), mode, tm, -1)
		}
	}
}

// FuzzEmitOrder holds EmitTo to the reference scan on any program, any
// placement list and either mode. data[0] picks the mode (bit 0), the
// timing (bits 1-3, of referenceTimings) and whether the sink stops
// part-way (bit 4, at the command data[1] names, scaled); data[2] is the
// placement count and each of the next that many bytes a placement (bank =
// high nibble, subarray = low nibble, so duplicates and any order occur);
// every byte after them is one op, of kind b % 8 (7 is a kind no timing
// knows, which costs nothing).
func FuzzEmitOrder(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0x00, 0x10, 0x20, 0x30, 2, 0, 0, 1, 0, 0, 3})
	f.Add([]byte{1, 0, 6, 0x00, 0x01, 0x02, 0x10, 0x11, 0x00, 2, 0, 1, 2, 6, 1, 1, 3, 4, 5})
	f.Add([]byte{0x1e, 90, 5, 0x33, 0x33, 0x03, 0x30, 0x00, 2, 2, 0, 1, 0, 1, 0, 1, 3, 3, 7, 5, 4})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 3+20*i+r.Intn(200))
		r.Read(data)
		data[2] %= 40
		f.Add(data)
	}
	timings := referenceTimings()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 4096 {
			return
		}
		mode := Mode(data[0] & 1)
		nt := timings[int(data[0]>>1&7)%len(timings)]
		n := min(int(data[2])%65, len(data)-3)
		ps := make([]Placement, n)
		for i, b := range data[3 : 3+n] {
			ps[i] = Placement{Bank: int(b >> 4), Subarray: int(b & 15)}
		}
		prog := &isa.Program{}
		for _, b := range data[3+n:] {
			op := isa.NewAP(isa.T0, isa.T1, isa.T2)
			op.Kind = isa.OpKind(b % 8)
			prog.Append(op)
		}
		limit := -1
		if data[0]&16 != 0 {
			limit = int(data[1]) * (len(prog.Ops)*n + 1) / 256
		}
		matchReference(t, nt.name, prog, ps, mode, nt.t, limit)
	})
}

// TestEmitToAllocGate: EmitTo allocates its per-placement and per-unit
// tables once, up front — a fixed number of allocations, and bytes bounded
// by the program and the placements — and nothing as the emission runs, so
// no heap entry, queue node or stream grows with the number of commands
// (placements x program length).
func TestEmitToAllocGate(t *testing.T) {
	g := dram.DefaultGeometry()
	tm := dram.TimingFor(isa.Ambit, g)
	sink := func(int, int, *isa.Op) bool { return true }
	for _, mode := range []Mode{BankAware, SubarrayAware} {
		for _, writes := range []int{4, 40} {
			prog := testProgram(writes, 12)
			for _, n := range []int{1, 16, 64} {
				ps := mustPlacements(t, g, n)
				emit := func() { EmitTo(prog, ps, mode, tm, sink) }
				allocs := testing.AllocsPerRun(5, emit)
				const runs = 5
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					emit()
				}
				runtime.ReadMemStats(&after)
				perRun := (after.TotalAlloc - before.TotalAlloc) / runs
				bound := uint64(32*len(prog.Ops) + 256*n + 1024)
				t.Logf("%v %d ops x %d placements = %d commands: %.0f allocs, %d B (bound %d B)",
					mode, len(prog.Ops), n, n*len(prog.Ops), allocs, perRun, bound)
				if allocs > 16 {
					t.Errorf("%v %d ops x %d placements: %.0f allocations per EmitTo, want at most 16", mode, len(prog.Ops), n, allocs)
				}
				if perRun > bound {
					t.Errorf("%v %d ops x %d placements: %d B per EmitTo, over the %d B bound", mode, len(prog.Ops), n, perRun, bound)
				}
			}
		}
	}
}

// The materializing sink allocates a stream once, at its exact length,
// instead of growing it by append, whichever emitter feeds it.
func TestMaterializedStreamsArePresized(t *testing.T) {
	prog := testProgram(5, 2)
	g := dram.DefaultGeometry()
	ps := mustPlacements(t, g, 20)
	want := len(prog.Ops) * len(ps)
	emitted, _ := Emit(prog, ps, BankAware, dram.TimingFor(isa.Ambit, g))
	var lockstep []dram.Placed
	LockstepTo(prog, ps, collect(&lockstep, prog, ps))
	for name, stream := range map[string][]dram.Placed{
		"Emit": emitted, "SerialTo": serialStream(prog, ps), "LockstepTo": lockstep,
	} {
		if len(stream) != want || cap(stream) != want {
			t.Errorf("%s: len %d cap %d, want both %d", name, len(stream), cap(stream), want)
		}
	}
}

// A sink that reports "stop" ends the emission at once: it is not called
// again, and the returned stats count the ops it accepted.
func TestStreamingEmittersStopWhenSinkSaysSo(t *testing.T) {
	prog := testProgram(6, 3)
	g := dram.DefaultGeometry()
	ps := mustPlacements(t, g, 8)
	tm := dram.TimingFor(isa.Ambit, g)
	const accept = 37
	for name, run := range map[string]func(Sink) int{
		"EmitTo":     func(s Sink) int { return EmitTo(prog, ps, BankAware, tm, s).Ops },
		"SerialTo":   func(s Sink) int { SerialTo(prog, ps, s); return accept },
		"LockstepTo": func(s Sink) int { LockstepTo(prog, ps, s); return accept },
	} {
		calls := 0
		ops := run(func(bank, sub int, op *isa.Op) bool {
			calls++
			return calls <= accept
		})
		if calls != accept+1 {
			t.Errorf("%s: sink called %d times, want %d (stop not honored)", name, calls, accept+1)
		}
		if ops != accept {
			t.Errorf("%s: stats count %d ops, want the %d accepted", name, ops, accept)
		}
	}
}

// The emitter's resource slots are dense arithmetic on (bank, subarray), so
// only the placements' relative positions may matter: shifting every
// placement by a constant, or listing them sparsely and out of order, must
// emit the same interleaving.
func TestEmitUnitNumberingIsPositionIndependent(t *testing.T) {
	prog := testProgram(4, 2)
	g := dram.DefaultGeometry()
	tm := dram.TimingFor(isa.Ambit, g)
	base := []Placement{{2, 1}, {0, 3}, {2, 0}, {1, 1}, {0, 0}, {2, 3}, {1, 0}}
	shifted := make([]Placement, len(base))
	for i, p := range base {
		shifted[i] = Placement{Bank: p.Bank + 5, Subarray: p.Subarray + 9}
	}
	for _, mode := range []Mode{BankAware, SubarrayAware} {
		a, sa := Emit(prog, base, mode, tm)
		b, sb := Emit(prog, shifted, mode, tm)
		if sa != sb {
			t.Fatalf("%v: stats differ under a placement shift: %+v vs %+v", mode, sa, sb)
		}
		for i := range a {
			b[i].Bank -= 5
			b[i].Subarray -= 9
			if a[i].Bank != b[i].Bank || a[i].Subarray != b[i].Subarray || a[i].Op.Kind != b[i].Op.Kind {
				t.Fatalf("%v: op %d differs under a placement shift: %+v vs %+v", mode, i, a[i], b[i])
			}
		}
	}
}

// Stats.Merge must account for every field: a field added to Stats without
// a line in Merge fails here.
func TestStatsMergeCoversEveryField(t *testing.T) {
	maxFields := map[string]bool{"SpanNs": true}
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		var one Stats
		f := reflect.ValueOf(&one).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(3)
		case reflect.Float64:
			f.SetFloat(3)
		default:
			t.Fatalf("field %s has kind %v: teach Merge and this test about it", typ.Field(i).Name, f.Kind())
		}
		var sum Stats
		sum.Merge(one)
		sum.Merge(one)
		want := one
		if !maxFields[typ.Field(i).Name] {
			w := reflect.ValueOf(&want).Elem().Field(i)
			if w.Kind() == reflect.Int {
				w.SetInt(6)
			} else {
				w.SetFloat(6)
			}
		}
		if sum != want {
			t.Errorf("field %s: merging it twice gave %+v, want %+v", typ.Field(i).Name, sum, want)
		}
	}
}
