package baseline

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"chopper/internal/dfg"
	"chopper/internal/dram"
	"chopper/internal/dsl"
	"chopper/internal/guard"
	"chopper/internal/isa"
	"chopper/internal/sim"
	"chopper/internal/typecheck"
)

func buildGraph(t *testing.T, src string) *dfg.Graph {
	t.Helper()
	prog, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := typecheck.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.BuildNode(ch, ch.Prog.Entry().Name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runBaseline executes a baseline program functionally (all lanes identical)
// and compares against the dataflow evaluator.
func runBaseline(t *testing.T, g *dfg.Graph, res *Result, arch isa.Arch, dRows int, inputs map[string]*big.Int) {
	t.Helper()
	io := &sim.HostIO{
		WriteData: func(tag int) []uint64 {
			for name, tg := range res.InputTag {
				if tg != tag {
					continue
				}
				// name is "base[bit]".
				var base string
				var bit int
				if _, err := fmt.Sscanf(name, "%s", &base); err != nil {
					t.Fatal(err)
				}
				idx := -1
				for i := len(name) - 1; i >= 0; i-- {
					if name[i] == '[' {
						idx = i
						break
					}
				}
				base = name[:idx]
				fmt.Sscanf(name[idx+1:len(name)-1], "%d", &bit)
				if inputs[base].Bit(bit) == 1 {
					return []uint64{^uint64(0)}
				}
				return []uint64{0}
			}
			if pat, ok := res.ConstPattern[tag]; ok {
				return []uint64{pat}
			}
			return nil
		},
	}
	gotBits := make(map[int]uint64)
	io.ReadSink = func(tag int, data []uint64) { gotBits[tag] = data[0] }

	geom := dram.DefaultGeometry()
	geom.RowsPerSub = dRows + geom.ReservedRows
	if _, err := sim.RunProgram(res.Prog, arch, geom, 64, io); err != nil {
		t.Fatalf("run: %v", err)
	}

	want, err := g.Eval(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, tag := range res.OutputTag {
		idx := -1
		for i := len(name) - 1; i >= 0; i-- {
			if name[i] == '[' {
				idx = i
				break
			}
		}
		base := name[:idx]
		var bit int
		fmt.Sscanf(name[idx+1:len(name)-1], "%d", &bit)
		wantBit := want[base].Bit(bit)
		got := gotBits[tag]
		if got != 0 && got != ^uint64(0) {
			t.Fatalf("output %s lanes disagree: %#x", name, got)
		}
		var gotBit uint
		if got == ^uint64(0) {
			gotBit = 1
		}
		if gotBit != wantBit {
			t.Fatalf("output %s = %d, want %d", name, gotBit, wantBit)
		}
	}
}

const mixedSrc = `
node main(a: u8, b: u8) returns (z: u8, c: u1)
vars s: u8, d: u8;
let
  s = a + b;
  d = s - 3;
  z = mux(a < b, d, s ^ b);
  c = d >= 100;
tel`

func TestBaselineCorrectAllArchs(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	rng := rand.New(rand.NewSource(1))
	for _, arch := range isa.AllArchs {
		res, err := Generate(g, Options{Arch: arch, DRows: 1006})
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		for trial := 0; trial < 5; trial++ {
			in := map[string]*big.Int{
				"a": big.NewInt(rng.Int63n(256)),
				"b": big.NewInt(rng.Int63n(256)),
			}
			runBaseline(t, g, res, arch, 1006, in)
		}
	}
}

func TestBaselineShiftsAndResize(t *testing.T) {
	g := buildGraph(t, `
node main(a: u8) returns (z: u16)
vars w: u16;
let
  w = u16(a >> 2);
  z = (w << 3) + 5;
tel`)
	res, err := Generate(g, Options{Arch: isa.Ambit, DRows: 1006})
	if err != nil {
		t.Fatal(err)
	}
	runBaseline(t, g, res, isa.Ambit, 1006, map[string]*big.Int{"a": big.NewInt(0xC7)})
}

func TestBaselineWritesConstantsUpfront(t *testing.T) {
	g := buildGraph(t, "node main(a: u8) returns (z: u8) let z = a + 42; tel")
	res, err := Generate(g, Options{Arch: isa.Ambit, DRows: 1006})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ConstWrites != 8 {
		t.Errorf("const writes = %d, want 8 (full-width constant)", res.Stats.ConstWrites)
	}
	// Input writes all precede the first compute op (bbop_trsp_init style).
	firstCompute := -1
	lastWrite := -1
	for i := range res.Prog.Ops {
		switch res.Prog.Ops[i].Kind {
		case isa.OpWrite:
			lastWrite = i
		case isa.OpAP:
			if firstCompute < 0 {
				firstCompute = i
			}
		}
	}
	if firstCompute >= 0 && lastWrite > firstCompute {
		t.Error("baseline interleaved writes with computation")
	}
}

func TestBaselineSpillsFullWidth(t *testing.T) {
	// Many live 32-bit values in 100 data rows force full-width spilling.
	g := buildGraph(t, `
node main(a: u32, b: u32, c: u32, d: u32) returns (z: u32)
vars t1: u32, t2: u32, t3: u32, t4: u32;
let
  t1 = a + b;
  t2 = c + d;
  t3 = a ^ d;
  t4 = t1 + t2;
  z = t4 + t3;
tel`)
	res, err := Generate(g, Options{Arch: isa.Ambit, DRows: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledValues == 0 {
		t.Fatal("no values spilled with 150 rows and 9 32-bit values")
	}
	if res.Stats.SpilledRows%32 != 0 {
		t.Errorf("spilled rows = %d, not a multiple of the operand width", res.Stats.SpilledRows)
	}
	// Still correct.
	rng := rand.New(rand.NewSource(2))
	in := map[string]*big.Int{
		"a": big.NewInt(rng.Int63n(1 << 32)), "b": big.NewInt(rng.Int63n(1 << 32)),
		"c": big.NewInt(rng.Int63n(1 << 32)), "d": big.NewInt(rng.Int63n(1 << 32)),
	}
	runBaseline(t, g, res, isa.Ambit, 150, in)
}

func TestBaselineRejectsTinySubarray(t *testing.T) {
	g := buildGraph(t, "node main(a: u8) returns (z: u8) let z = a + 1; tel")
	if _, err := Generate(g, Options{Arch: isa.Ambit, DRows: 10}); err == nil {
		t.Error("10-row subarray accepted")
	}
}

func TestBaselineProgramValidates(t *testing.T) {
	g := buildGraph(t, mixedSrc)
	res, err := Generate(g, Options{Arch: isa.SIMDRAM, DRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Prog.Validate(500); err != nil {
		t.Error(err)
	}
	if res.Prog.DRowsUsed == 0 {
		t.Error("no row usage recorded")
	}
}

func TestBaselineRewireWithSpilledOperands(t *testing.T) {
	// Enough 32-bit values that linear scan spills some; the shifted
	// value's rewiring must go through the staging row and stay correct.
	g := buildGraph(t, `
node main(a: u32, b: u32, c: u32) returns (z: u32)
vars t1: u32, t2: u32, t3: u32, t4: u32;
let
  t1 = a + b;
  t2 = b + c;
  t3 = t1 << 5;
  t4 = t2 >> 3;
  z = u32(t3 ^ t4) + a;
tel`)
	res, err := Generate(g, Options{Arch: isa.Ambit, DRows: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledValues == 0 {
		t.Skip("allocation fit; spill-path rewiring not exercised at this size")
	}
	in := map[string]*big.Int{
		"a": big.NewInt(0x1234ABCD), "b": big.NewInt(0x0F0F0F0F), "c": big.NewInt(0xCAFE1234),
	}
	runBaseline(t, g, res, isa.Ambit, 120, in)
}

func TestBaselineConstWrittenJustInTime(t *testing.T) {
	// The constant row's WRITE must appear after the input prolog, right
	// before its consuming operation — not at program start.
	g := buildGraph(t, `
node main(a: u8, b: u8) returns (z: u8)
vars t: u8;
let
  t = a + b;
  z = t + 42;
tel`)
	res, err := Generate(g, Options{Arch: isa.Ambit, DRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	constTags := map[int]bool{}
	for tag := range res.ConstPattern {
		constTags[tag] = true
	}
	firstConstWrite, firstAP := -1, -1
	for i, op := range res.Prog.Ops {
		switch {
		case op.Kind == isa.OpWrite && constTags[int(op.Tag)] && firstConstWrite < 0:
			firstConstWrite = i
		case op.Kind == isa.OpAP && firstAP < 0:
			firstAP = i
		}
	}
	if firstConstWrite < 0 {
		t.Fatal("no constant write emitted")
	}
	if firstConstWrite < firstAP {
		t.Errorf("constant written at op %d, before any computation (op %d): not just-in-time", firstConstWrite, firstAP)
	}
}

// TestBaselineBudgetCheckedPerOperation: MaxOps is enforced after every
// multi-bit operation, so a capped generation stops within one operation's
// routine of the limit. The program is a chain of identical 8-bit adds, so
// one operation's cost is the uncapped total over the chain length, rounded
// up.
func TestBaselineBudgetCheckedPerOperation(t *testing.T) {
	g := buildGraph(t, `
node main(a: u8, b: u8) returns (z: u8)
vars t1: u8, t2: u8, t3: u8, t4: u8, t5: u8, t6: u8, t7: u8;
let
  t1 = a + b; t2 = t1 + b; t3 = t2 + b; t4 = t3 + b;
  t5 = t4 + b; t6 = t5 + b; t7 = t6 + b; z = t7 + b;
tel`)
	opts := Options{Arch: isa.Ambit, DRows: dram.DefaultGeometry().DRows()}
	full, err := Generate(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := len(full.Prog.Ops)
	perOp := (total + g.OpCount() - 1) / g.OpCount()
	opts.MaxOps = total / 2
	_, err = Generate(g, opts)
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Dimension != guard.DimMicroOps {
		t.Fatalf("want a %s BudgetError, got %v", guard.DimMicroOps, err)
	}
	if be.Count <= be.Limit || be.Count > be.Limit+perOp {
		t.Fatalf("stopped at %d micro-ops under a limit of %d; one operation is at most %d", be.Count, be.Limit, perOp)
	}
	// A limit the program fits is no limit.
	opts.MaxOps = total
	if _, err := Generate(g, opts); err != nil {
		t.Fatalf("limit == program length: %v", err)
	}
}
