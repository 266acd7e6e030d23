package dfg

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// The differential harness for the lane-batched evaluator: a graph is
// decoded from a byte program (so the fuzzer mutates structure, not just a
// seed), every value is made an output, and every value of every lane must
// equal what Graph.Eval computes for that lane.

var (
	laneWidths = []int{1, 7, 63, 64, 65, 128, 200}
	laneCounts = []int{1, 63, 64, 65, 128}

	// laneConsts are OpConst immediates worth meeting: negatives (masked as
	// two's complement), limb boundaries, and small shift amounts around
	// every width in laneWidths.
	laneConsts = func() []*big.Int {
		out := []*big.Int{}
		for _, v := range []int64{0, 1, 2, 3, 6, 7, 8, 62, 63, 64, 65, 66, 127, 128, 129, 199, 200, 201, -1, -2, -128, -1 << 63} {
			out = append(out, big.NewInt(v))
		}
		for _, sh := range []uint{63, 64, 65, 127, 128, 199, 200} {
			p := new(big.Int).Lsh(big.NewInt(1), sh)
			out = append(out, p, new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Neg(p))
		}
		return out
	}()
)

const (
	laneHeader = 2 // lanes selector, operand seed
	laneRecord = 6 // kind, a, b, c, width selector, immediate
)

// rec encodes one value of a byte program. a, b, c pick operands among the
// values defined so far (modulo their count); w indexes laneWidths; imm is
// the shift amount (Shl, Shr, Sra) or indexes laneConsts (OpConst).
func rec(kind OpKind, a, b, c, w, imm int) []byte {
	return []byte{byte(kind), byte(a), byte(b), byte(c), byte(w), byte(imm)}
}

func laneProg(lanesSel, seed int, recs ...[]byte) []byte {
	p := []byte{byte(lanesSel), byte(seed)}
	for _, r := range recs {
		p = append(p, r...)
	}
	return p
}

// decodeLaneProg builds the graph a byte program describes. Any byte string
// decodes to a valid graph: kinds wrap modulo the op count, operand
// selectors modulo the values so far, and a program that starts with an
// operation gets an input first.
func decodeLaneProg(data []byte) (g *Graph, lanes int, seed int64) {
	g = &Graph{}
	if len(data) < laneHeader {
		data = append(data, make([]byte, laneHeader)...)
	}
	lanes, seed = laneCounts[int(data[0])%len(laneCounts)], int64(data[1])
	add := func(v Value) {
		id := ValueID(len(g.Values))
		g.Values = append(g.Values, v)
		g.Outputs = append(g.Outputs, id)
		g.OutputNames = append(g.OutputNames, fmt.Sprintf("v%d", id))
		if v.Kind == OpInput {
			g.Inputs = append(g.Inputs, id)
		}
	}
	for body := data[laneHeader:]; len(body) >= laneRecord && len(g.Values) < 256; body = body[laneRecord:] {
		kind := OpKind(int(body[0]) % len(opNames))
		width := laneWidths[int(body[4])%len(laneWidths)]
		if kind == OpInput || len(g.Values) == 0 {
			add(Value{Kind: OpInput, Width: width, Name: fmt.Sprintf("i%d", len(g.Values))})
			continue
		}
		pick := func(b byte) ValueID { return ValueID(int(b) % len(g.Values)) }
		v := Value{Kind: kind, Width: width}
		switch kind {
		case OpConst:
			v.Imm = laneConsts[int(body[5])%len(laneConsts)]
		case OpNot, OpNeg, OpPopCount, OpResize:
			v.Args = []ValueID{pick(body[1])}
		case OpShl, OpShr, OpSra:
			v.Args = []ValueID{pick(body[1])}
			v.Imm = big.NewInt(int64(body[5]))
		case OpMux:
			v.Args = []ValueID{pick(body[1]), pick(body[2]), pick(body[3])}
		default:
			v.Args = []ValueID{pick(body[1]), pick(body[2])}
		}
		add(v)
	}
	if len(g.Values) == 0 {
		add(Value{Kind: OpInput, Width: 1, Name: "i0"})
	}
	return g, lanes, seed
}

// laneOperand draws one operand of the given width, biased toward the
// values where limb and sign handling go wrong.
func laneOperand(rng *rand.Rand, width int) []uint64 {
	n := (width + 63) / 64
	v := make([]uint64, n)
	switch rng.Intn(8) {
	case 0: // zero
	case 1:
		v[0] = 1
	case 2: // all ones
		for i := range v {
			v[i] = ^uint64(0)
		}
	case 3: // sign bit only
		v[(width-1)/64] = 1 << (uint(width-1) % 64)
	case 4: // a shift amount around the interesting widths
		v[0] = uint64(rng.Intn(260))
	case 5: // one limb's worth
		v[0] = rng.Uint64()
	default:
		for i := range v {
			v[i] = rng.Uint64()
		}
	}
	v[n-1] &= lowMask(width)
	return v
}

// checkLaneProg evaluates a byte program both ways and compares every
// value of every lane.
func checkLaneProg(t *testing.T, data []byte) {
	t.Helper()
	g, lanes, seed := decodeLaneProg(data)
	if err := g.Validate(); err != nil {
		t.Fatalf("decoded graph invalid: %v", err)
	}
	checkLaneEval(t, g, laneInputs(rand.New(rand.NewSource(seed)), g, lanes), lanes)
}

// laneInputs draws every input of g for `lanes` lanes.
func laneInputs(rng *rand.Rand, g *Graph, lanes int) map[string][][]uint64 {
	inputs := make(map[string][][]uint64, len(g.Inputs))
	for _, id := range g.Inputs {
		in := &g.Values[id]
		vals := make([][]uint64, lanes)
		for l := range vals {
			vals[l] = laneOperand(rng, in.Width)
		}
		inputs[in.Name] = vals
	}
	return inputs
}

func checkLaneEval(t *testing.T, g *Graph, inputs map[string][][]uint64, lanes int) {
	t.Helper()
	p := NewLanePlan(g)
	var s LaneScratch
	if err := p.EvalLanes(&s, inputs, lanes); err != nil {
		t.Fatalf("lane eval: %v", err)
	}
	for l := 0; l < lanes; l++ {
		ref := make(map[string]*big.Int, len(inputs))
		for name, vals := range inputs {
			ref[name] = LimbsBig(vals[l])
		}
		want, err := g.Eval(ref)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		for i, name := range g.OutputNames {
			out, ok := p.Output(&s, name)
			if !ok {
				t.Fatalf("plan has no output %q", name)
			}
			if got := LimbsBig(out.Lane(l)); got.Cmp(want[name]) != 0 {
				v := &g.Values[g.Outputs[i]]
				t.Fatalf("lane %d of %d, %s = %s%v width %d: lanes say %#x, Eval says %#x",
					l, lanes, name, v.Kind, v.Args, v.Width, got, want[name])
			}
		}
	}
}

// Value ids in the quirk programs below: inputs first, so operand
// selectors can be read off the record order.
var laneQuirks = []struct {
	name string
	prog []byte
}{
	{"unmasked pass-throughs carry the operand's limbs", laneProg(3, 1,
		rec(OpInput, 0, 0, 0, 6, 0), // v0: u200
		rec(OpInput, 0, 0, 0, 5, 0), // v1: u128
		rec(OpInput, 0, 0, 0, 1, 0), // v2: u7
		rec(OpAbsDiff, 0, 1, 0, 1, 0),
		rec(OpAnd, 0, 1, 0, 0, 0),
		rec(OpOr, 0, 2, 0, 1, 0),
		rec(OpXor, 1, 0, 0, 1, 0),
		rec(OpShr, 0, 0, 0, 1, 3),
		rec(OpShr, 0, 0, 0, 1, 64),
		rec(OpShr, 0, 0, 0, 1, 201),
		rec(OpMux, 2, 0, 1, 0, 0),
		rec(OpMin, 0, 1, 0, 1, 0),
		rec(OpMax, 2, 0, 0, 1, 0),
		rec(OpPopCount, 0, 0, 0, 0, 0),
		// and masked ops over those too-wide results
		rec(OpAdd, 3, 4, 0, 2, 0),
		rec(OpSub, 2, 3, 0, 4, 0),
		rec(OpMul, 3, 5, 0, 6, 0),
		rec(OpNot, 3, 0, 0, 1, 0),
		rec(OpNeg, 6, 0, 0, 4, 0),
		rec(OpResize, 5, 0, 0, 2, 0),
		rec(OpShl, 3, 0, 0, 5, 70),
		rec(OpEq, 3, 3, 0, 0, 0),
		rec(OpLtU, 2, 5, 0, 0, 0),
	)},
	{"variable shifts by width or more, or by more than an int64, give zero", laneProg(4, 2,
		rec(OpInput, 0, 0, 0, 3, 0), // v0: u64 value
		rec(OpInput, 0, 0, 0, 3, 0), // v1: u64 amount (bias reaches >= 2^63)
		rec(OpInput, 0, 0, 0, 5, 0), // v2: u128 amount
		rec(OpInput, 0, 0, 0, 1, 0), // v3: u7 amount
		rec(OpInput, 0, 0, 0, 6, 0), // v4: u200 value
		rec(OpShlV, 0, 1, 0, 3, 0),
		rec(OpShrV, 0, 1, 0, 3, 0),
		rec(OpShlV, 0, 2, 0, 4, 0),
		rec(OpShrV, 4, 2, 0, 2, 0),
		rec(OpShlV, 4, 3, 0, 6, 0),
		rec(OpShrV, 4, 3, 0, 6, 0),
		rec(OpShlV, 0, 3, 0, 2, 0),
		rec(OpShrV, 0, 3, 0, 1, 0),
		rec(OpShrV, 4, 3, 0, 1, 0),
	)},
	{"sign comes from the argument's width", laneProg(2, 3,
		rec(OpInput, 0, 0, 0, 1, 0), // v0: u7
		rec(OpInput, 0, 0, 0, 3, 0), // v1: u64
		rec(OpInput, 0, 0, 0, 4, 0), // v2: u65
		rec(OpInput, 0, 0, 0, 6, 0), // v3: u200
		rec(OpOr, 0, 3, 0, 1, 0),    // v4: declared u7, really 200 bits
		rec(OpSra, 0, 0, 0, 3, 2),   // narrow sign, wide result: sign-extends into it
		rec(OpSra, 1, 0, 0, 1, 70),  // amount above the width clamps
		rec(OpSra, 2, 0, 0, 6, 1),
		rec(OpSra, 3, 0, 0, 1, 199),
		rec(OpSra, 4, 0, 0, 5, 3), // sign bit 6 of a 200-bit value
		rec(OpSraV, 0, 1, 0, 1, 0),
		rec(OpSraV, 1, 0, 0, 4, 0),
		rec(OpSraV, 3, 2, 0, 6, 0),
		rec(OpSraV, 4, 0, 0, 6, 0),
		rec(OpLtS, 0, 0, 0, 0, 0),
		rec(OpLtS, 0, 1, 0, 0, 0), // second operand wider than the sign width
		rec(OpLeS, 1, 0, 0, 0, 0),
		rec(OpGtS, 2, 3, 0, 0, 0),
		rec(OpGeS, 3, 2, 0, 0, 0),
		rec(OpLtS, 4, 0, 0, 0, 0),
		rec(OpGeS, 4, 3, 0, 0, 0),
		rec(OpLeS, 1, 1, 0, 0, 0),
	)},
	{"division by zero", laneProg(1, 4,
		rec(OpInput, 0, 0, 0, 1, 0), // v0: u7
		rec(OpInput, 0, 0, 0, 3, 0), // v1: u64
		rec(OpInput, 0, 0, 0, 6, 0), // v2: u200
		rec(OpConst, 0, 0, 0, 5, 0), // v3: zero
		rec(OpDivU, 0, 3, 0, 1, 0),
		rec(OpDivU, 0, 3, 0, 4, 0), // all-ones of the *result* width
		rec(OpDivU, 2, 3, 0, 1, 0),
		rec(OpDivU, 2, 3, 0, 6, 0),
		rec(OpModU, 0, 3, 0, 3, 0), // the dividend, unmasked
		rec(OpModU, 2, 3, 0, 1, 0),
		rec(OpDivU, 1, 0, 0, 3, 0),
		rec(OpModU, 1, 0, 0, 3, 0),
		rec(OpDivU, 2, 1, 0, 6, 0),
		rec(OpModU, 2, 1, 0, 6, 0),
		rec(OpDivU, 1, 2, 0, 1, 0),
	)},
	{"negative immediates mask as two's complement", laneProg(0, 5,
		rec(OpInput, 0, 0, 0, 3, 0),
		rec(OpConst, 0, 0, 0, 1, 18), // -1 at u7
		rec(OpConst, 0, 0, 0, 3, 18), // -1 at u64
		rec(OpConst, 0, 0, 0, 4, 19), // -2 at u65
		rec(OpConst, 0, 0, 0, 6, 21), // -2^63 at u200
		rec(OpConst, 0, 0, 0, 5, 27), // -2^64 at u128
		rec(OpConst, 0, 0, 0, 0, 20), // -128 at u1
		rec(OpConst, 0, 0, 0, 2, 41), // 2^200-1 at u63
		rec(OpAdd, 0, 4, 0, 6, 0),
	)},
}

// laneMatrixProg generates the byte program for one (width, lanes) cell of
// the tier-1 matrix: every op kind at least twice, operands and widths
// drawn so the cell's width dominates but every other width mixes in.
func laneMatrixProg(rng *rand.Rand, widthSel, lanesSel int) []byte {
	w := func() int {
		if rng.Intn(3) == 0 {
			return rng.Intn(len(laneWidths))
		}
		return widthSel
	}
	recs := [][]byte{
		rec(OpInput, 0, 0, 0, widthSel, 0),
		rec(OpInput, 0, 0, 0, widthSel, 0),
		rec(OpInput, 0, 0, 0, 1, 0), // a u7: shift amounts
		rec(OpInput, 0, 0, 0, w(), 0),
	}
	kinds := rng.Perm(2 * len(opNames))
	for _, k := range kinds {
		kind := OpKind(k % len(opNames))
		imm := rng.Intn(256)
		if kind == OpShl || kind == OpShr || kind == OpSra {
			imm = rng.Intn(laneWidths[widthSel] + 3)
		}
		recs = append(recs, rec(kind, rng.Intn(256), rng.Intn(256), rng.Intn(256), w(), imm))
	}
	return laneProg(lanesSel, rng.Intn(256), recs...)
}

func laneMatrix() [][]byte {
	rng := rand.New(rand.NewSource(16))
	var progs [][]byte
	for wi := range laneWidths {
		for li := range laneCounts {
			progs = append(progs, laneMatrixProg(rng, wi, li))
		}
	}
	return progs
}

func TestLaneEvalMatchesEval(t *testing.T) {
	for _, q := range laneQuirks {
		t.Run(q.name, func(t *testing.T) {
			// Every lane count, not just the program's own.
			for li := range laneCounts {
				prog := append([]byte(nil), q.prog...)
				prog[0] = byte(li)
				checkLaneProg(t, prog)
			}
		})
	}
	seen := make(map[OpKind]bool)
	for i, prog := range laneMatrix() {
		g, lanes, _ := decodeLaneProg(prog)
		for j := range g.Values {
			seen[g.Values[j].Kind] = true
		}
		t.Run(fmt.Sprintf("u%d x %d lanes", laneWidths[i/len(laneCounts)], lanes), func(t *testing.T) {
			checkLaneProg(t, prog)
		})
	}
	if len(seen) != len(opNames) {
		t.Errorf("matrix covers %d of %d op kinds", len(seen), len(opNames))
	}
}

// TestLaneEvalOnBuiltGraphs runs the differential check on graphs the
// front end builds, where every declared width is honest.
func TestLaneEvalOnBuiltGraphs(t *testing.T) {
	for _, src := range []string{
		"node main(a: u16, b: u16, p: u16) returns (z: u16) vars s: u16, d: u16, f: u1; let s = a + b; d = absdiff(a, b); f = a > p; z = f ? s : d; tel",
		"node main(a: u64, b: u64) returns (q: u64, r: u64, s: u1, t: u64) let q = div(a, b); r = mod(a, b); s = slt(a, b); t = asr(a, b); tel",
		"node main(a: u128, b: u128, n: u8) returns (z: u128, c: u128, m: u128, s: u1) let z = a * b + (a >> 3); c = popcount(a ^ b); m = min(a, b) << n; s = sge(a, b); tel",
		"node main(a: u200, b: u200) returns (q: u200, r: u200, t: u200) let q = div(a, b); r = mod(a, b); t = asr(a, 77); tel",
	} {
		g := build(t, src)
		for _, lanes := range laneCounts {
			checkLaneEval(t, g, laneInputs(rand.New(rand.NewSource(int64(lanes))), g, lanes), lanes)
		}
	}
}

// TestLaneEvalErrors pins the two errors Eval can return to the same text.
func TestLaneEvalErrors(t *testing.T) {
	g := &Graph{
		Values:      []Value{{Kind: OpInput, Width: 8, Name: "a"}, {Kind: OpKind(99), Width: 8}},
		Outputs:     []ValueID{1},
		OutputNames: []string{"z"},
	}
	p := NewLanePlan(g)
	var s LaneScratch
	for _, in := range []map[string][][]uint64{{}, {"a": {{1}}}} {
		ref := make(map[string]*big.Int)
		for name, vals := range in {
			ref[name] = LimbsBig(vals[0])
		}
		_, want := g.Eval(ref)
		got := p.EvalLanes(&s, in, 1)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("inputs %v: lane eval says %v, Eval says %v", in, got, want)
		}
	}
}

// TestLaneScratchReuse checks a scratch carries nothing from one
// evaluation into the next, whatever plan and lane count came before.
func TestLaneScratchReuse(t *testing.T) {
	var s LaneScratch
	progs := laneMatrix()
	for _, i := range []int{34, 0, 17, 5, 34} {
		g, lanes, seed := decodeLaneProg(progs[i])
		inputs := laneInputs(rand.New(rand.NewSource(seed)), g, lanes)
		p := NewLanePlan(g)
		var fresh LaneScratch
		if err := p.EvalLanes(&s, inputs, lanes); err != nil {
			t.Fatal(err)
		}
		if err := p.EvalLanes(&fresh, inputs, lanes); err != nil {
			t.Fatal(err)
		}
		for id := range g.Values {
			a, b := p.value(&s, ValueID(id)), p.value(&fresh, ValueID(id))
			if a.N != b.N || cmpLimbs(a.V, b.V) != 0 {
				t.Fatalf("program %d value %d differs on a reused scratch", i, id)
			}
		}
	}
}

func FuzzLaneEval(f *testing.F) {
	for _, q := range laneQuirks {
		f.Add(q.prog)
	}
	for _, prog := range laneMatrix() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkLaneProg(t, prog)
	})
}
