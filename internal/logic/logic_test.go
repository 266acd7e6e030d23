package logic

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"chopper/internal/isa"
)

// evalWordNet evaluates a net built with InputWord/OutputWord on per-lane
// operand values and returns the named output word per lane.
func evalWordNet(t *testing.T, n *Net, widths map[string]int, inputs map[string][]uint64, out string, outWidth int) []uint64 {
	t.Helper()
	bundles := make(map[string]uint64)
	lanes := 0
	for base, vals := range inputs {
		w := widths[base]
		if len(vals) > lanes {
			lanes = len(vals)
		}
		for bit := 0; bit < w; bit++ {
			var bun uint64
			for l, v := range vals {
				bun |= (v >> uint(bit) & 1) << uint(l)
			}
			bundles[fmt.Sprintf("%s[%d]", base, bit)] = bun
		}
	}
	res, err := n.Eval(bundles)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	outs := make([]uint64, lanes)
	for bit := 0; bit < outWidth; bit++ {
		bun, ok := res[fmt.Sprintf("%s[%d]", out, bit)]
		if !ok {
			t.Fatalf("missing output %s[%d]", out, bit)
		}
		for l := 0; l < lanes; l++ {
			outs[l] |= (bun >> uint(l) & 1) << uint(bit)
		}
	}
	return outs
}

func randVals(rng *rand.Rand, n, width int) []uint64 {
	mask := ^uint64(0)
	if width < 64 {
		mask = (uint64(1) << uint(width)) - 1
	}
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() & mask
	}
	return vals
}

func TestBuilderConstantFolding(t *testing.T) {
	b := new(Scratch).Builder(BuilderOptions{Fold: true})
	x := b.Input("x")
	zero := b.Const(false)
	one := b.Const(true)

	if got := b.And(x, zero); got != zero {
		t.Errorf("x&0: got node %d, want const0 %d", got, zero)
	}
	if got := b.And(x, one); got != x {
		t.Errorf("x&1: got node %d, want x %d", got, x)
	}
	if got := b.Or(x, one); got != one {
		t.Errorf("x|1: got node %d, want const1", got)
	}
	if got := b.Or(x, zero); got != x {
		t.Errorf("x|0: got node %d, want x", got)
	}
	if got := b.Xor(x, x); got != zero {
		t.Errorf("x^x: got node %d, want const0", got)
	}
	nx := b.Not(x)
	if got := b.Not(nx); got != x {
		t.Errorf("~~x: got node %d, want x", got)
	}
	if got := b.And(x, nx); got != zero {
		t.Errorf("x&~x: got node %d, want const0", got)
	}
	if got := b.Or(x, nx); got != one {
		t.Errorf("x|~x: got node %d, want const1", got)
	}
	if got := b.Maj(x, x, nx); got != x {
		t.Errorf("maj(x,x,~x): got node %d, want x", got)
	}
	y := b.Input("y")
	if got := b.Maj(x, y, zero); got != b.And(x, y) {
		t.Errorf("maj(x,y,0) != and(x,y)")
	}
	if got := b.Maj(x, y, one); got != b.Or(x, y) {
		t.Errorf("maj(x,y,1) != or(x,y)")
	}
}

func TestBuilderCSE(t *testing.T) {
	b := new(Scratch).Builder(BuilderOptions{Fold: true})
	x := b.Input("x")
	y := b.Input("y")
	a1 := b.And(x, y)
	a2 := b.And(y, x) // commuted
	if a1 != a2 {
		t.Errorf("CSE missed commuted AND: %d vs %d", a1, a2)
	}
	m1 := b.Maj(x, y, a1)
	m2 := b.Maj(a1, x, y)
	if m1 != m2 {
		t.Errorf("CSE missed permuted MAJ: %d vs %d", m1, m2)
	}
}

func TestBuilderNoFoldKeepsGates(t *testing.T) {
	b := new(Scratch).Builder(BuilderOptions{Fold: false})
	x := b.Input("x")
	one := b.Const(true)
	got := b.And(x, one)
	if got == x {
		t.Errorf("fold disabled but x&1 simplified")
	}
	b.Output("o", got)
	n := b.Net()
	if n.OpGates() != 1 {
		t.Errorf("expected 1 op gate, got %d", n.OpGates())
	}
}

func buildBinop(t *testing.T, w int, f func(b *Builder, x, y Word) Word) *Net {
	t.Helper()
	b := new(Scratch).Builder(BuilderOptions{Fold: true})
	x := b.InputWord("x", w)
	y := b.InputWord("y", w)
	b.OutputWord("z", f(b, x, y))
	n := b.Net()
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid net: %v", err)
	}
	return n
}

func TestArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{1, 3, 8, 16, 31, 64}
	cases := []struct {
		name string
		f    func(b *Builder, x, y Word) Word
		ref  func(x, y, mask uint64, w int) uint64
	}{
		{"add", func(b *Builder, x, y Word) Word { return b.Add(x, y) },
			func(x, y, mask uint64, w int) uint64 { return (x + y) & mask }},
		{"sub", func(b *Builder, x, y Word) Word { return b.Sub(x, y) },
			func(x, y, mask uint64, w int) uint64 { return (x - y) & mask }},
		{"and", func(b *Builder, x, y Word) Word { return b.BitwiseAnd(x, y) },
			func(x, y, mask uint64, w int) uint64 { return x & y }},
		{"or", func(b *Builder, x, y Word) Word { return b.BitwiseOr(x, y) },
			func(x, y, mask uint64, w int) uint64 { return x | y }},
		{"xor", func(b *Builder, x, y Word) Word { return b.BitwiseXor(x, y) },
			func(x, y, mask uint64, w int) uint64 { return x ^ y }},
		{"min", func(b *Builder, x, y Word) Word { return b.MinU(x, y) },
			func(x, y, mask uint64, w int) uint64 { return min(x, y) }},
		{"max", func(b *Builder, x, y Word) Word { return b.MaxU(x, y) },
			func(x, y, mask uint64, w int) uint64 { return max(x, y) }},
		{"absdiff", func(b *Builder, x, y Word) Word { return b.AbsDiff(x, y) },
			func(x, y, mask uint64, w int) uint64 {
				if x >= y {
					return (x - y) & mask
				}
				return (y - x) & mask
			}},
	}
	for _, tc := range cases {
		for _, w := range widths {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, w), func(t *testing.T) {
				n := buildBinop(t, w, tc.f)
				mask := ^uint64(0)
				if w < 64 {
					mask = (uint64(1) << uint(w)) - 1
				}
				xs := randVals(rng, 64, w)
				ys := randVals(rng, 64, w)
				got := evalWordNet(t, n, map[string]int{"x": w, "y": w},
					map[string][]uint64{"x": xs, "y": ys}, "z", w)
				for l := range xs {
					want := tc.ref(xs[l], ys[l], mask, w)
					if got[l] != want {
						t.Fatalf("lane %d: %s(%#x,%#x) = %#x, want %#x", l, tc.name, xs[l], ys[l], got[l], want)
					}
				}
			})
		}
	}
}

func TestComparisons(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := 16
	preds := []struct {
		name string
		f    func(b *Builder, x, y Word) NodeID
		ref  func(x, y uint64) bool
	}{
		{"ltu", (*Builder).LtU, func(x, y uint64) bool { return x < y }},
		{"geu", (*Builder).GeU, func(x, y uint64) bool { return x >= y }},
		{"gtu", (*Builder).GtU, func(x, y uint64) bool { return x > y }},
		{"leu", (*Builder).LeU, func(x, y uint64) bool { return x <= y }},
		{"eq", (*Builder).Eq, func(x, y uint64) bool { return x == y }},
		{"ne", (*Builder).Ne, func(x, y uint64) bool { return x != y }},
		{"lts", (*Builder).LtS, func(x, y uint64) bool { return int16(x) < int16(y) }},
	}
	for _, p := range preds {
		t.Run(p.name, func(t *testing.T) {
			b := new(Scratch).Builder(BuilderOptions{Fold: true})
			x := b.InputWord("x", w)
			y := b.InputWord("y", w)
			b.Output("z[0]", p.f(b, x, y))
			n := b.Net()
			xs := randVals(rng, 64, w)
			ys := randVals(rng, 64, w)
			// Force some equal pairs for eq/ne/le/ge edges.
			for i := 0; i < 8; i++ {
				ys[i] = xs[i]
			}
			got := evalWordNet(t, n, map[string]int{"x": w, "y": w},
				map[string][]uint64{"x": xs, "y": ys}, "z", 1)
			for l := range xs {
				want := uint64(0)
				if p.ref(xs[l], ys[l]) {
					want = 1
				}
				if got[l] != want {
					t.Fatalf("lane %d: %s(%#x,%#x) = %d, want %d", l, p.name, xs[l], ys[l], got[l], want)
				}
			}
		})
	}
}

func TestMul(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, w := range []int{4, 8, 12} {
		b := new(Scratch).Builder(BuilderOptions{Fold: true})
		x := b.InputWord("x", w)
		y := b.InputWord("y", w)
		b.OutputWord("z", b.Mul(x, y, 2*w))
		n := b.Net()
		mask := (uint64(1) << uint(2*w)) - 1
		xs := randVals(rng, 64, w)
		ys := randVals(rng, 64, w)
		got := evalWordNet(t, n, map[string]int{"x": w, "y": w},
			map[string][]uint64{"x": xs, "y": ys}, "z", 2*w)
		for l := range xs {
			want := (xs[l] * ys[l]) & mask
			if got[l] != want {
				t.Fatalf("w=%d lane %d: %d*%d = %d, want %d", w, l, xs[l], ys[l], got[l], want)
			}
		}
	}
}

func TestShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := 16
	xs := randVals(rng, 64, w)
	for _, k := range []int{0, 1, 5, 15, 16, 20} {
		b := new(Scratch).Builder(BuilderOptions{Fold: true})
		x := b.InputWord("x", w)
		b.OutputWord("l", b.ShiftLeft(x, k))
		b.OutputWord("r", b.ShiftRight(x, k, false))
		b.OutputWord("a", b.ShiftRight(x, k, true))
		n := b.Net()
		mask := (uint64(1) << uint(w)) - 1
		gotL := evalWordNet(t, n, map[string]int{"x": w}, map[string][]uint64{"x": xs}, "l", w)
		gotR := evalWordNet(t, n, map[string]int{"x": w}, map[string][]uint64{"x": xs}, "r", w)
		gotA := evalWordNet(t, n, map[string]int{"x": w}, map[string][]uint64{"x": xs}, "a", w)
		for l := range xs {
			wantL := xs[l] << uint(k) & mask
			wantR := xs[l] >> uint(k)
			wantA := uint64(uint16(int16(uint16(xs[l])) >> uint(min(k, 15))))
			if k >= 64 {
				wantR = 0
			}
			if gotL[l] != wantL || gotR[l] != wantR || gotA[l] != wantA {
				t.Fatalf("k=%d lane %d x=%#x: l=%#x/%#x r=%#x/%#x a=%#x/%#x",
					k, l, xs[l], gotL[l], wantL, gotR[l], wantR, gotA[l], wantA)
			}
		}
	}
}

func TestPopCount(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, w := range []int{1, 7, 16, 33} {
		b := new(Scratch).Builder(BuilderOptions{Fold: true})
		x := b.InputWord("x", w)
		pc := b.PopCount(x)
		b.OutputWord("z", pc)
		n := b.Net()
		xs := randVals(rng, 64, w)
		got := evalWordNet(t, n, map[string]int{"x": w}, map[string][]uint64{"x": xs}, "z", len(pc))
		for l := range xs {
			want := uint64(popcount(xs[l]))
			if got[l] != want {
				t.Fatalf("w=%d lane %d: popcount(%#x) = %d, want %d", w, l, xs[l], got[l], want)
			}
		}
	}
}

func popcount(v uint64) int {
	c := 0
	for v != 0 {
		v &= v - 1
		c++
	}
	return c
}

func TestMuxWord(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w := 12
	b := new(Scratch).Builder(BuilderOptions{Fold: true})
	c := b.Input("c[0]")
	x := b.InputWord("x", w)
	y := b.InputWord("y", w)
	b.OutputWord("z", b.MuxWord(c, x, y))
	n := b.Net()
	xs := randVals(rng, 64, w)
	ys := randVals(rng, 64, w)
	cs := randVals(rng, 64, 1)
	got := evalWordNet(t, n, map[string]int{"x": w, "y": w, "c": 1},
		map[string][]uint64{"x": xs, "y": ys, "c": cs}, "z", w)
	for l := range xs {
		want := ys[l]
		if cs[l] == 1 {
			want = xs[l]
		}
		if got[l] != want {
			t.Fatalf("lane %d: mux(%d,%#x,%#x) = %#x, want %#x", l, cs[l], xs[l], ys[l], got[l], want)
		}
	}
}

func TestLegalizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	w := 10
	build := func() *Net {
		b := new(Scratch).Builder(BuilderOptions{Fold: true})
		x := b.InputWord("x", w)
		y := b.InputWord("y", w)
		sum := b.Add(x, y)
		lt := b.LtU(x, y)
		sel := b.MuxWord(lt, sum, b.Sub(x, y))
		b.OutputWord("z", sel)
		return b.Net()
	}
	ref := build()
	xs := randVals(rng, 64, w)
	ys := randVals(rng, 64, w)
	want := evalWordNet(t, ref, map[string]int{"x": w, "y": w},
		map[string][]uint64{"x": xs, "y": ys}, "z", w)
	for _, arch := range isa.AllArchs {
		leg, err := Legalize(ref, arch, BuilderOptions{Fold: true})
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if err := leg.CheckGateSet(NativeGates(arch)); err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		got := evalWordNet(t, leg, map[string]int{"x": w, "y": w},
			map[string][]uint64{"x": xs, "y": ys}, "z", w)
		for l := range want {
			if got[l] != want[l] {
				t.Fatalf("%v lane %d: got %#x want %#x", arch, l, got[l], want[l])
			}
		}
	}
}

// TestLegalizeGateSets legalizes every source gate kind — AND, OR, NOT,
// XOR, MAJ, and MAJ with a constant arm — for every target, with folding
// on and off. Each result must be native to the target's gate set, hold
// MAJ only on SIMDRAM and never XOR, and compute its source on random
// 64-lane words.
func TestLegalizeGateSets(t *testing.T) {
	src := new(Scratch).Builder(BuilderOptions{}) // no folding: every gate stays as asked
	x, y, z := src.Input("x"), src.Input("y"), src.Input("z")
	src.Output("and", src.And(x, y))
	src.Output("or", src.Or(x, y))
	src.Output("not", src.Not(x))
	src.Output("xor", src.Xor(x, y))
	src.Output("maj", src.Maj(x, y, z))
	src.Output("maj0", src.Maj(x, y, src.Const(false)))
	src.Output("maj1", src.Maj(src.Const(true), y, z))
	n := src.Net()
	rng := rand.New(rand.NewSource(48))
	for _, arch := range isa.AllArchs {
		gs := NativeGates(arch)
		if err := n.CheckGateSet(gs); err == nil {
			t.Errorf("%v: a net with XOR passed CheckGateSet", arch)
		}
		for _, fold := range []bool{false, true} {
			leg, err := Legalize(n, arch, BuilderOptions{Fold: fold})
			if err != nil {
				t.Fatalf("%v fold=%v: %v", arch, fold, err)
			}
			if err := leg.CheckGateSet(gs); err != nil {
				t.Errorf("%v fold=%v: %v", arch, fold, err)
			}
			majs := 0
			for i := range leg.Gates {
				switch leg.Gates[i].Kind {
				case GXor:
					t.Errorf("%v fold=%v: legalized net contains an xor gate", arch, fold)
				case GMaj:
					majs++
				}
			}
			if (majs > 0) != (arch == isa.SIMDRAM) {
				t.Errorf("%v fold=%v: legalized net has %d MAJ gates", arch, fold, majs)
			}
			for range 8 {
				in := map[string]uint64{"x": rng.Uint64(), "y": rng.Uint64(), "z": rng.Uint64()}
				want, err := n.Eval(in)
				if err != nil {
					t.Fatal(err)
				}
				got, err := leg.Eval(in)
				if err != nil {
					t.Fatal(err)
				}
				if !maps.Equal(got, want) {
					t.Fatalf("%v fold=%v on %v: got %v, want %v", arch, fold, in, got, want)
				}
			}
		}
	}
}

func TestSIMDRAMAdderCheaperThanAmbit(t *testing.T) {
	// The reason SIMDRAM exists: MAJ-native synthesis needs fewer in-DRAM
	// steps per full adder than AND/OR/NOT synthesis.
	w := 32
	b := new(Scratch).Builder(BuilderOptions{Fold: true})
	x := b.InputWord("x", w)
	y := b.InputWord("y", w)
	b.OutputWord("z", b.Add(x, y))
	n := b.Net()
	amb, err := Legalize(n, isa.Ambit, BuilderOptions{Fold: true})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := Legalize(n, isa.SIMDRAM, BuilderOptions{Fold: true})
	if err != nil {
		t.Fatal(err)
	}
	if sd.OpGates() >= amb.OpGates() {
		t.Errorf("SIMDRAM adder (%d gates) not cheaper than Ambit (%d gates)", sd.OpGates(), amb.OpGates())
	}
}

func TestDCE(t *testing.T) {
	b := new(Scratch).Builder(BuilderOptions{Fold: true})
	x := b.Input("x")
	y := b.Input("y")
	used := b.And(x, y)
	_ = b.Or(x, y) // dead
	b.Output("z", used)
	n := b.Net()
	before := len(n.Gates)
	after := n.DCE()
	if err := after.Validate(); err != nil {
		t.Fatalf("DCE produced invalid net: %v", err)
	}
	if len(after.Gates) >= before {
		t.Errorf("DCE removed nothing: %d -> %d", before, len(after.Gates))
	}
	res, err := after.Eval(map[string]uint64{"x": 0b1100, "y": 0b1010})
	if err != nil {
		t.Fatal(err)
	}
	if res["z"] != 0b1000 {
		t.Errorf("DCE changed semantics: got %#x", res["z"])
	}
	if len(after.Inputs) != 2 {
		t.Errorf("DCE dropped inputs: %d", len(after.Inputs))
	}
}

// Property: for random widths and operands, the synthesized adder matches
// machine addition on all three architectures after legalization.
func TestQuickAdderAllArchs(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(31))}
	prop := func(xr, yr uint64, wRaw uint8) bool {
		w := int(wRaw)%32 + 1
		mask := (uint64(1) << uint(w)) - 1
		if w == 64 {
			mask = ^uint64(0)
		}
		x, y := xr&mask, yr&mask
		b := new(Scratch).Builder(BuilderOptions{Fold: true})
		xw := b.InputWord("x", w)
		yw := b.InputWord("y", w)
		b.OutputWord("z", b.Add(xw, yw))
		n := b.Net()
		for _, arch := range isa.AllArchs {
			leg, err := Legalize(n, arch, BuilderOptions{Fold: true})
			if err != nil {
				return false
			}
			in := make(map[string]uint64)
			for bit := 0; bit < w; bit++ {
				var xb, yb uint64
				if x>>uint(bit)&1 == 1 {
					xb = ^uint64(0)
				}
				if y>>uint(bit)&1 == 1 {
					yb = ^uint64(0)
				}
				in[fmt.Sprintf("x[%d]", bit)] = xb
				in[fmt.Sprintf("y[%d]", bit)] = yb
			}
			out, err := leg.Eval(in)
			if err != nil {
				return false
			}
			want := (x + y) & mask
			for bit := 0; bit < w; bit++ {
				got := out[fmt.Sprintf("z[%d]", bit)]
				wantBit := uint64(0)
				if want>>uint(bit)&1 == 1 {
					wantBit = ^uint64(0)
				}
				if got != wantBit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: DCE never changes output values.
func TestQuickDCEPreserves(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(37))}
	prop := func(seed int64, xv, yv uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := new(Scratch).Builder(BuilderOptions{Fold: true})
		nodes := []NodeID{b.Input("x"), b.Input("y")}
		for i := 0; i < 30; i++ {
			pick := func() NodeID { return nodes[rng.Intn(len(nodes))] }
			var id NodeID
			switch rng.Intn(5) {
			case 0:
				id = b.And(pick(), pick())
			case 1:
				id = b.Or(pick(), pick())
			case 2:
				id = b.Xor(pick(), pick())
			case 3:
				id = b.Not(pick())
			case 4:
				id = b.Maj(pick(), pick(), pick())
			}
			nodes = append(nodes, id)
		}
		b.Output("z", nodes[len(nodes)-1])
		n := b.Net()
		d := n.DCE()
		if err := d.Validate(); err != nil {
			return false
		}
		in := map[string]uint64{"x": xv, "y": yv}
		r1, err1 := n.Eval(in)
		r2, err2 := d.Eval(in)
		if err1 != nil || err2 != nil {
			return false
		}
		return r1["z"] == r2["z"]
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadNets(t *testing.T) {
	n := &Net{
		Gates:       []Gate{{Kind: GAnd, Args: [3]NodeID{1, 0, None}}, {Kind: GInput}},
		Inputs:      []NodeID{1},
		InputNames:  []string{"x"},
		Outputs:     []NodeID{0},
		OutputNames: []string{"z"},
	}
	if err := n.Validate(); err == nil {
		t.Error("forward reference not caught")
	}
	n2 := &Net{
		Gates:       []Gate{{Kind: GInput}},
		Inputs:      []NodeID{0},
		InputNames:  []string{"x"},
		Outputs:     []NodeID{5},
		OutputNames: []string{"z"},
	}
	if err := n2.Validate(); err == nil {
		t.Error("out-of-range output not caught")
	}
}

func TestDivMod(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, w := range []int{4, 9, 16} {
		b := new(Scratch).Builder(BuilderOptions{Fold: true})
		x := b.InputWord("x", w)
		y := b.InputWord("y", w)
		q, r := b.DivMod(x, y)
		b.OutputWord("q", q)
		b.OutputWord("r", r)
		n := b.Net()
		mask := (uint64(1) << uint(w)) - 1
		xs := randVals(rng, 64, w)
		ys := randVals(rng, 64, w)
		ys[0] = 0 // divide by zero
		ys[1] = 1
		xs[2] = 0
		gotQ := evalWordNet(t, n, map[string]int{"x": w, "y": w},
			map[string][]uint64{"x": xs, "y": ys}, "q", w)
		gotR := evalWordNet(t, n, map[string]int{"x": w, "y": w},
			map[string][]uint64{"x": xs, "y": ys}, "r", w)
		for l := range xs {
			var wantQ, wantR uint64
			if ys[l] == 0 {
				wantQ, wantR = mask, xs[l]
			} else {
				wantQ, wantR = xs[l]/ys[l], xs[l]%ys[l]
			}
			if gotQ[l] != wantQ || gotR[l] != wantR {
				t.Fatalf("w=%d lane %d: %d/%d = %d rem %d, want %d rem %d",
					w, l, xs[l], ys[l], gotQ[l], gotR[l], wantQ, wantR)
			}
		}
	}
}
