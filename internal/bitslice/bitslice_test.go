package bitslice

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"chopper/internal/dfg"
	"chopper/internal/dsl"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/typecheck"
)

func lower(t *testing.T, src string, opts Options) (*dfg.Graph, *logic.Net) {
	t.Helper()
	prog, err := dsl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ch, err := typecheck.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	g, err := dfg.BuildNode(ch, ch.Prog.Entry().Name)
	if err != nil {
		t.Fatalf("dfg: %v", err)
	}
	n, err := Lower(g, opts)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid net: %v", err)
	}
	return g, n
}

// evalBoth runs one random lane through the dataflow evaluator and through
// the bit-sliced net (and each legalized variant), comparing outputs.
func evalBoth(t *testing.T, g *dfg.Graph, n *logic.Net, rng *rand.Rand) {
	t.Helper()
	inputs := make(map[string]*big.Int)
	widths := make(map[string]int)
	for _, in := range g.Inputs {
		v := g.Values[in]
		val := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(v.Width)))
		inputs[v.Name] = val
		widths[v.Name] = v.Width
	}
	want, err := g.Eval(inputs)
	if err != nil {
		t.Fatalf("dfg eval: %v", err)
	}

	nets := map[string]*logic.Net{"generic": n}
	for _, arch := range isa.AllArchs {
		leg, err := logic.Legalize(n, arch, logic.BuilderOptions{Fold: true})
		if err != nil {
			t.Fatalf("legalize %v: %v", arch, err)
		}
		nets[arch.String()] = leg
	}

	bundles := make(map[string]uint64)
	for name, val := range inputs {
		for bit := 0; bit < widths[name]; bit++ {
			var bun uint64
			if val.Bit(bit) == 1 {
				bun = ^uint64(0) // same value in all 64 lanes
			}
			bundles[fmt.Sprintf("%s[%d]", name, bit)] = bun
		}
	}
	for label, net := range nets {
		got, err := net.Eval(bundles)
		if err != nil {
			t.Fatalf("%s eval: %v", label, err)
		}
		for i, out := range g.Outputs {
			name := g.OutputNames[i]
			w := g.Values[out].Width
			for bit := 0; bit < w; bit++ {
				bun, ok := got[fmt.Sprintf("%s[%d]", name, bit)]
				if !ok {
					t.Fatalf("%s: missing output %s[%d]", label, name, bit)
				}
				wantBit := want[name].Bit(bit)
				gotBit := uint(bun & 1)
				if bun != 0 && bun != ^uint64(0) {
					t.Fatalf("%s: output %s[%d] lanes disagree: %#x", label, name, bit, bun)
				}
				if gotBit != wantBit {
					t.Fatalf("%s: output %s bit %d = %d, want %d (inputs %v)", label, name, bit, gotBit, wantBit, inputs)
				}
			}
		}
	}
}

const kitchenSink = `
node f(a: u8, b: u8, c: u1) returns (
  s: u8, d: u8, p: u8, cmp: u1, m: u8, pc: u8, sh: u8)
let
  s = a + b;
  d = a - b;
  p = a * b;
  cmp = a < b;
  m = mux(c, min(a, b), absdiff(a, b));
  pc = popcount(a ^ b);
  sh = (a << 3) | (b >> 2);
tel`

func TestLowerMatchesDFGSemantics(t *testing.T) {
	for _, fold := range []bool{true, false} {
		t.Run(fmt.Sprintf("fold=%v", fold), func(t *testing.T) {
			g, n := lower(t, kitchenSink, Options{Fold: fold})
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 25; i++ {
				evalBoth(t, g, n, rng)
			}
		})
	}
}

func TestLowerConstantsFold(t *testing.T) {
	// x + 0 with folding collapses to a wire; without folding it keeps a
	// full ripple adder.
	src := "node f(a: u8) returns (z: u8) let z = a + 0; tel"
	_, folded := lower(t, src, Options{Fold: true})
	_, unfolded := lower(t, src, Options{Fold: false})
	if folded.OpGates() != 0 {
		t.Errorf("a+0 with fold has %d gates, want 0", folded.OpGates())
	}
	if unfolded.OpGates() == 0 {
		t.Errorf("a+0 without fold folded anyway")
	}
}

func TestBitLevelSparsity(t *testing.T) {
	// Adding a sparse constant (single set bit) should synthesize far
	// fewer gates than adding a dense operand: the OBS-2 effect.
	sparse := "node f(a: u16) returns (z: u16) let z = a + 256; tel"
	dense := "node f(a: u16, b: u16) returns (z: u16) let z = a + b; tel"
	_, ns := lower(t, sparse, Options{Fold: true})
	_, nd := lower(t, dense, Options{Fold: true})
	if ns.OpGates() >= nd.OpGates() {
		t.Errorf("sparse-constant add (%d gates) not cheaper than dense add (%d gates)", ns.OpGates(), nd.OpGates())
	}
}

func TestLowerInputsOutputsNamed(t *testing.T) {
	g, n := lower(t, "node f(a: u4) returns (z: u4) let z = ~a; tel", Options{Fold: true})
	_ = g
	if len(n.Inputs) != 4 {
		t.Fatalf("inputs = %d", len(n.Inputs))
	}
	if n.InputNames[0] != "a[0]" || n.InputNames[3] != "a[3]" {
		t.Errorf("input names: %v", n.InputNames)
	}
	if len(n.Outputs) != 4 || n.OutputNames[0] != "z[0]" {
		t.Errorf("output names: %v", n.OutputNames)
	}
}

func TestWideOperands(t *testing.T) {
	g, n := lower(t, "node f(a: u96, b: u96) returns (z: u96) let z = a + b; tel", Options{Fold: true})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		evalBoth(t, g, n, rng)
	}
}

func TestMuxConditionWidthChecked(t *testing.T) {
	// Construct a malformed graph directly: mux with wide condition.
	g := &dfg.Graph{
		Values: []dfg.Value{
			{Kind: dfg.OpInput, Width: 2, Name: "c"},
			{Kind: dfg.OpInput, Width: 4, Name: "a"},
			{Kind: dfg.OpInput, Width: 4, Name: "b"},
			{Kind: dfg.OpMux, Width: 4, Args: []dfg.ValueID{0, 1, 2}},
		},
		Inputs:      []dfg.ValueID{0, 1, 2},
		Outputs:     []dfg.ValueID{3},
		OutputNames: []string{"z"},
	}
	if _, err := Lower(g, Options{Fold: true}); err == nil {
		t.Error("wide mux condition accepted")
	}
}

func TestLowerAllNewOps(t *testing.T) {
	// Variable shifts, signed comparisons, and div/mod all lower and
	// match the dataflow evaluator on every architecture.
	g, n := lower(t, `
node main(a: u8, b: u8, s: u4) returns (
  l: u8, r: u8, ls: u1, ge: u1, q: u8, m: u8)
let
  l = a << s;
  r = b >> s;
  ls = slt(a, b);
  ge = sge(a, b);
  q = div(a, b);
  m = mod(a, b);
tel`, Options{Fold: true})
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 20; i++ {
		evalBoth(t, g, n, rng)
	}
}

func TestLowerUnfoldedVariants(t *testing.T) {
	g, n := lower(t, `
node main(a: u8, b: u8) returns (z: u8)
let z = div(a + 3, max(b, 1:u8)); tel`, Options{Fold: false})
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 10; i++ {
		evalBoth(t, g, n, rng)
	}
}
