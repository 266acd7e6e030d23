package codegen

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/obs"
	"chopper/internal/sim"
)

// adderNet builds a w-bit adder legalized for arch.
func adderNet(t *testing.T, w int, arch isa.Arch, fold bool) *logic.Net {
	t.Helper()
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: fold})
	x := b.InputWord("x", w)
	y := b.InputWord("y", w)
	b.OutputWord("z", b.Add(x, y))
	n := b.Net()
	leg, err := logic.Legalize(n, arch, logic.BuilderOptions{Fold: fold})
	if err != nil {
		t.Fatal(err)
	}
	return leg.DCE()
}

// runOn compiles and functionally executes a net over 64 identical lanes,
// checking outputs against net.Eval.
func runOn(t *testing.T, net *logic.Net, arch isa.Arch, v obs.Variant, dRows int, inputs map[string]uint64) map[string]uint64 {
	t.Helper()
	res, err := Generate(net, Options{Arch: arch, Variant: v, DRows: dRows})
	if err != nil {
		t.Fatalf("%v/%v: %v", arch, v, err)
	}
	got := make(map[string]uint64)
	io := &sim.HostIO{
		WriteData: func(tag int) []uint64 {
			for name, tg := range res.InputTag {
				if tg == tag {
					return []uint64{inputs[name]}
				}
			}
			if pat, ok := res.ConstPattern[tag]; ok {
				return []uint64{pat}
			}
			return nil
		},
		ReadSink: func(tag int, data []uint64) {
			for name, tg := range res.OutputTag {
				if tg == tag {
					got[name] = data[0]
				}
			}
		},
	}
	geom := dram.DefaultGeometry()
	geom.RowsPerSub = dRows + geom.ReservedRows
	if _, err := sim.RunProgram(res.Prog, arch, geom, 64, io); err != nil {
		t.Fatalf("%v/%v run: %v", arch, v, err)
	}
	want, err := net.Eval(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("%v/%v output %s = %#x, want %#x", arch, v, name, got[name], w)
		}
	}
	return got
}

func randInputs(rng *rand.Rand, net *logic.Net) map[string]uint64 {
	in := make(map[string]uint64, len(net.InputNames))
	for _, name := range net.InputNames {
		in[name] = rng.Uint64()
	}
	return in
}

func TestGenerateCorrectAllVariantsAllArchs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, arch := range isa.AllArchs {
		for _, v := range obs.AllVariants {
			net := adderNet(t, 8, arch, v.HasReuse())
			runOn(t, net, arch, v, 100, randInputs(rng, net))
		}
	}
}

func TestGenerateRejectsUnlegalizedNet(t *testing.T) {
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: true})
	x := b.Input("x")
	y := b.Input("y")
	b.Output("z", b.Xor(x, y))
	n := b.Net()
	if _, err := Generate(n, Options{Arch: isa.Ambit, Variant: obs.Rename, DRows: 64}); err == nil {
		t.Error("XOR net accepted for Ambit")
	}
}

func TestGenerateRejectsTinyPool(t *testing.T) {
	net := adderNet(t, 8, isa.Ambit, true)
	if _, err := Generate(net, Options{Arch: isa.Ambit, Variant: obs.Rename, DRows: 2}); err == nil {
		t.Error("2-row pool accepted")
	}
}

func TestRenameShortensPrograms(t *testing.T) {
	for _, arch := range isa.AllArchs {
		net := adderNet(t, 16, arch, true)
		r3, err := Generate(net, Options{Arch: arch, Variant: obs.Rename, DRows: 200})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Generate(net, Options{Arch: arch, Variant: obs.Reuse, DRows: 200})
		if err != nil {
			t.Fatal(err)
		}
		if len(r3.Prog.Ops) >= len(r2.Prog.Ops) {
			t.Errorf("%v: rename %d ops, reuse %d ops", arch, len(r3.Prog.Ops), len(r2.Prog.Ops))
		}
		if r3.Stats.StoresElided == 0 {
			t.Errorf("%v: no stores elided", arch)
		}
		if r3.Stats.MaxLiveRows > r2.Stats.MaxLiveRows {
			t.Errorf("%v: rename raised pressure %d -> %d", arch, r2.Stats.MaxLiveRows, r3.Stats.MaxLiveRows)
		}
	}
}

func TestReuseEliminatesConstWrites(t *testing.T) {
	// A net with explicit constant operands: x + 0b1010 (unfolded).
	build := func(fold bool) *logic.Net {
		b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: fold})
		x := b.InputWord("x", 8)
		c := b.ConstWord(0xAA, 8)
		b.OutputWord("z", b.Add(x, c))
		n := b.Net()
		leg, err := logic.Legalize(n, isa.Ambit, logic.BuilderOptions{Fold: fold})
		if err != nil {
			t.Fatal(err)
		}
		return leg.DCE()
	}
	noReuse, err := Generate(build(false), Options{Arch: isa.Ambit, Variant: obs.Schedule, DRows: 200})
	if err != nil {
		t.Fatal(err)
	}
	withReuse, err := Generate(build(true), Options{Arch: isa.Ambit, Variant: obs.Reuse, DRows: 200})
	if err != nil {
		t.Fatal(err)
	}
	if noReuse.Stats.ConstWrites == 0 {
		t.Error("no-reuse variant wrote no constants")
	}
	if withReuse.Stats.ConstWrites != 0 {
		t.Errorf("reuse variant wrote %d constants", withReuse.Stats.ConstWrites)
	}
	if len(withReuse.ConstPattern) != 0 {
		t.Error("reuse variant exposes host const tags")
	}
}

func TestSpillInsertedAndCorrect(t *testing.T) {
	// High-pressure net: interleave products so many values stay live.
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: true})
	x := b.InputWord("x", 8)
	y := b.InputWord("y", 8)
	var words []logic.Word
	for i := 0; i < 6; i++ {
		words = append(words, b.Mul(b.ShiftLeft(x, i), y, 8))
	}
	acc := words[0]
	for _, w := range words[1:] {
		acc = b.Add(acc, w)
	}
	b.OutputWord("z", acc)
	n := b.Net()
	leg, err := logic.Legalize(n, isa.Ambit, logic.BuilderOptions{Fold: true})
	if err != nil {
		t.Fatal(err)
	}
	leg = leg.DCE()

	big, err := Generate(leg, Options{Arch: isa.Ambit, Variant: obs.Bitslice, DRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Generate(leg, Options{Arch: isa.Ambit, Variant: obs.Bitslice, DRows: big.Stats.MaxLiveRows / 2})
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.SpillOuts == 0 && small.Stats.Drops == 0 {
		t.Fatal("halving the pool caused no eviction")
	}
	// Both must compute the same thing.
	rng := rand.New(rand.NewSource(2))
	in := randInputs(rng, leg)
	runOn(t, leg, isa.Ambit, obs.Bitslice, 1000, in)
	runOn(t, leg, isa.Ambit, obs.Bitslice, big.Stats.MaxLiveRows/2, in)
}

func TestInputDropsPreferredOverSpills(t *testing.T) {
	// Inputs are cheap to evict (host re-writes them); verify drops happen
	// before SSD spills when inputs dominate the resident set.
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: true})
	var bits []logic.NodeID
	for i := 0; i < 40; i++ {
		bits = append(bits, b.Input(fmt.Sprintf("x%d[0]", i)))
	}
	acc := bits[0]
	for _, bit := range bits[1:] {
		acc = b.And(acc, bit)
	}
	// Touch every input again so they stay live across the whole program.
	acc2 := bits[0]
	for _, bit := range bits[1:] {
		acc2 = b.Or(acc2, bit)
	}
	b.Output("z[0]", b.And(acc, acc2))
	n := b.Net()
	leg, err := logic.Legalize(n, isa.Ambit, logic.BuilderOptions{Fold: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(leg.DCE(), Options{Arch: isa.Ambit, Variant: obs.Bitslice, DRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Drops == 0 {
		t.Error("no input rows dropped under pressure")
	}
	if res.Stats.SpillOuts > res.Stats.Drops {
		t.Errorf("spills (%d) dominate drops (%d): inputs should be dropped first", res.Stats.SpillOuts, res.Stats.Drops)
	}
}

func TestDirectWritesForOneShotInputs(t *testing.T) {
	// A bitwise net: every input bit has exactly one use, so with O3 all
	// of them can be host-written straight into the compute rows.
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: true})
	x := b.InputWord("x", 8)
	y := b.InputWord("y", 8)
	b.OutputWord("z", b.BitwiseAnd(x, y))
	raw := b.Net()
	leg, err0 := logic.Legalize(raw, isa.Ambit, logic.BuilderOptions{Fold: true})
	if err0 != nil {
		t.Fatal(err0)
	}
	net := leg.DCE()
	res, err := Generate(net, Options{Arch: isa.Ambit, Variant: obs.Rename, DRows: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DirectWrites == 0 {
		t.Error("rename produced no direct-to-compute-row writes")
	}
	noRen, err := Generate(net, Options{Arch: isa.Ambit, Variant: obs.Reuse, DRows: 200})
	if err != nil {
		t.Fatal(err)
	}
	if noRen.Stats.DirectWrites != 0 {
		t.Error("reuse level should not direct-write")
	}
}

func TestProgramValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, arch := range isa.AllArchs {
		net := adderNet(t, 12, arch, true)
		res, err := Generate(net, Options{Arch: arch, Variant: obs.Rename, DRows: 50})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Prog.Validate(50); err != nil {
			t.Errorf("%v: %v", arch, err)
		}
		_ = rng
	}
}

func TestNotChains(t *testing.T) {
	// Deep NOT chains exercise the DCC pairs and their eviction. Folding
	// is disabled so consecutive NOTs are not cancelled.
	b := new(logic.Scratch).Builder(logic.BuilderOptions{Fold: false})
	x := b.Input("x[0]")
	y := b.Input("y[0]")
	n1 := b.Not(x)
	n2 := b.Not(n1)
	n3 := b.Not(n2)
	a := b.And(n1, y)
	o := b.Or(n3, a)
	b.Output("z[0]", o)
	net := b.Net()
	runOn(t, net, isa.Ambit, obs.Rename, 50, map[string]uint64{"x[0]": 0xF0F0, "y[0]": 0xFF00})
	runOn(t, net, isa.Ambit, obs.Bitslice, 50, map[string]uint64{"x[0]": 0xF0F0, "y[0]": 0xFF00})
}

// Every Generate caller gets a validated program, with or without a kept
// scratch: a program broken before the check comes back as
// ErrInvalidProgram, never as a Result. The scratch that staged the broken
// program must emit the intact one on its next use, and the Result's op
// stream must be its own copy, not the scratch's staging buffer.
func TestGenerateValidatesStagedProgram(t *testing.T) {
	net := adderNet(t, 8, isa.Ambit, true)
	want, err := Generate(net, Options{Arch: isa.Ambit, Variant: obs.Rename, DRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	for _, scratch := range []*Scratch{nil, &sc} {
		TestBreakHook = func(_ obs.Variant, prog *isa.Program) { prog.Ops[len(prog.Ops)-1].Src = isa.RowNone }
		res, err := Generate(net, Options{Arch: isa.Ambit, Variant: obs.Rename, DRows: 64, Scratch: scratch})
		TestBreakHook = nil
		if res != nil || !errors.Is(err, ErrInvalidProgram) {
			t.Fatalf("broken program: result %v, error %v; want ErrInvalidProgram", res != nil, err)
		}
	}
	first, err := Generate(net, Options{Arch: isa.Ambit, Variant: obs.Rename, DRows: 64, Scratch: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(adderNet(t, 4, isa.Ambit, true), Options{Arch: isa.Ambit, Variant: obs.Bitslice, DRows: 64, Scratch: &sc}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Prog, want.Prog) {
		t.Fatal("program staged on a reused scratch differs, or was overwritten by the scratch's next program")
	}
	if got := cap(first.Prog.Ops); got > len(first.Prog.Ops)+len(first.Prog.Ops)/8+16 {
		t.Fatalf("Result holds %d op slots for %d ops; want an exact-length copy", got, len(first.Prog.Ops))
	}
}

// Ambit XOR as (a|b) & ~(a&b), written ~(a&b) & (a|b) so that the
// schedule emits the OR first, then a&b and its NOT, then the final AND,
// the OR's one consumer. (The builder would order the AND's operands by
// id, and the schedule would then chain the OR itself.) O3 chains the OR
// right before the AND, so its result never leaves the compute rows: the
// program loses its store to a D row and its refill, exactly two AAPs,
// and still computes XOR.
func TestChainXorLosesTwoAAPs(t *testing.T) {
	const a, c, or, and, not, xor = 0, 1, 2, 3, 4, 5
	gate := func(k logic.GateKind, args ...logic.NodeID) logic.Gate {
		g := logic.Gate{Kind: k, Args: [3]logic.NodeID{logic.None, logic.None, logic.None}}
		copy(g.Args[:], args)
		return g
	}
	net := &logic.Net{
		Gates: []logic.Gate{
			gate(logic.GInput), gate(logic.GInput),
			gate(logic.GOr, a, c), gate(logic.GAnd, a, c), gate(logic.GNot, and), gate(logic.GAnd, not, or),
		},
		Inputs: []logic.NodeID{a, c}, InputNames: []string{"a", "c"},
		Outputs: []logic.NodeID{xor}, OutputNames: []string{"x"},
	}
	if order := obs.ScheduleGates(net, true); order[0] != or {
		t.Fatalf("schedule %v does not start with the OR", order)
	}
	gen := func(chain bool) *Result {
		t.Helper()
		defer SetChain(chain)()
		res, err := Generate(net, Options{Arch: isa.Ambit, Variant: obs.Rename, DRows: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, chained := gen(false), gen(true)
	if d := len(plain.Prog.Ops) - len(chained.Prog.Ops); d != 2 {
		t.Errorf("chaining saved %d micro-ops, want 2\nunchained:\n%s\nchained:\n%s", d, plain.Prog.Format(), chained.Prog.Format())
	}
	if d := plain.Stats.AAPs - chained.Stats.AAPs; d != 2 {
		t.Errorf("chaining saved %d AAPs, want 2", d)
	}
	for _, in := range []map[string]uint64{{"a": 0x0f0f, "c": 0x00ff}, {"a": ^uint64(0), "c": 0x1234}} {
		runOn(t, net, isa.Ambit, obs.Rename, 8, in)
	}
}
