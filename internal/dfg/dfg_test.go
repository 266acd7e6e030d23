package dfg

import (
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"chopper/internal/dsl"
	"chopper/internal/typecheck"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	prog, err := dsl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ch, err := typecheck.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	g, err := BuildNode(ch, ch.Prog.Entry().Name)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func evalOne(t *testing.T, g *Graph, in map[string]int64, out string) *big.Int {
	t.Helper()
	inputs := make(map[string]*big.Int, len(in))
	for k, v := range in {
		inputs[k] = big.NewInt(v)
	}
	res, err := g.Eval(inputs)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	v, ok := res[out]
	if !ok {
		t.Fatalf("no output %q in %v", out, res)
	}
	return v
}

func TestBuildSimple(t *testing.T) {
	g := build(t, "node f(a: u8, b: u8) returns (z: u8) let z = a + b; tel")
	if len(g.Inputs) != 2 || len(g.Outputs) != 1 {
		t.Fatalf("I/O: %d in, %d out", len(g.Inputs), len(g.Outputs))
	}
	if got := evalOne(t, g, map[string]int64{"a": 200, "b": 100}, "z"); got.Int64() != 44 {
		t.Errorf("200+100 mod 256 = %v, want 44", got)
	}
}

func TestInlining(t *testing.T) {
	g := build(t, `
node double(a: u8) returns (z: u8) let z = a + a; tel
node main(x: u8) returns (y: u8) let y = double(double(x)); tel`)
	if got := evalOne(t, g, map[string]int64{"x": 5}, "y"); got.Int64() != 20 {
		t.Errorf("4*5 = %v", got)
	}
}

func TestMultiReturnInlining(t *testing.T) {
	g := build(t, `
node addsub(a: u8, b: u8) returns (s: u8, d: u8)
let s = a + b; d = a - b; tel
node main(a: u8, b: u8) returns (x: u8, y: u8)
let (x, y) = addsub(a, b); tel`)
	if got := evalOne(t, g, map[string]int64{"a": 9, "b": 4}, "x"); got.Int64() != 13 {
		t.Errorf("sum = %v", got)
	}
	if got := evalOne(t, g, map[string]int64{"a": 9, "b": 4}, "y"); got.Int64() != 5 {
		t.Errorf("diff = %v", got)
	}
}

func TestOutOfOrderEquations(t *testing.T) {
	// Dataflow semantics: equation order is irrelevant.
	g := build(t, `
node f(a: u8) returns (z: u8)
vars t: u8;
let
  z = t + 1;
  t = a + a;
tel`)
	if got := evalOne(t, g, map[string]int64{"a": 3}, "z"); got.Int64() != 7 {
		t.Errorf("got %v, want 7", got)
	}
}

func TestCycleDetected(t *testing.T) {
	prog, err := dsl.Parse(`
node f(a: u8) returns (z: u8)
vars x: u8, y: u8;
let
  x = y + 1;
  y = x + 1;
  z = x;
tel`)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := typecheck.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildNode(ch, ch.Prog.Entry().Name); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestAllOperators(t *testing.T) {
	g := build(t, `
node f(a: u8, b: u8, c: u1) returns (
  s: u8, d: u8, p: u8, an: u8, o: u8, x: u8, n: u8, ng: u8,
  sl: u8, sr: u8, e: u1, ne_: u1, lt: u1, gt: u1, le: u1, ge: u1,
  m: u8, mn: u8, mx: u8, ad: u8, pc: u8, rz: u8)
let
  s = a + b; d = a - b; p = a * b;
  an = a & b; o = a | b; x = a ^ b; n = ~a; ng = -a;
  sl = a << 2; sr = a >> 2;
  e = a == b; ne_ = a != b; lt = a < b; gt = a > b; le = a <= b; ge = a >= b;
  m = mux(c, a, b); mn = min(a, b); mx = max(a, b); ad = absdiff(a, b);
  pc = popcount(a); rz = u8(u16(a) + u16(b));
tel`)
	a, b := int64(0xC5), int64(0x3A)
	in := map[string]int64{"a": a, "b": b, "c": 1}
	checks := map[string]int64{
		"s": (a + b) & 0xFF, "d": (a - b) & 0xFF, "p": (a * b) & 0xFF,
		"an": a & b, "o": a | b, "x": a ^ b, "n": ^a & 0xFF, "ng": -a & 0xFF,
		"sl": (a << 2) & 0xFF, "sr": a >> 2,
		"e": 0, "ne_": 1, "lt": 0, "gt": 1, "le": 0, "ge": 1,
		"m": a, "mn": b, "mx": a, "ad": a - b,
		"pc": 4, "rz": (a + b) & 0xFF,
	}
	for name, want := range checks {
		if got := evalOne(t, g, in, name); got.Int64() != want {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
}

func TestUsesAndOpCount(t *testing.T) {
	g := build(t, `
node f(a: u8, b: u8) returns (z: u8)
vars t: u8;
let
  t = a + b;
  z = t * t;
tel`)
	var addID ValueID = -1
	for i := range g.Values {
		if g.Values[i].Kind == OpAdd {
			addID = ValueID(i)
		}
	}
	if addID < 0 {
		t.Fatal("no add value")
	}
	if g.OpCount() != 2 {
		t.Errorf("op count = %d, want 2 (add, mul)", g.OpCount())
	}
}

func TestHashConsing(t *testing.T) {
	g := build(t, `
node f(a: u8, b: u8) returns (z: u8, w: u8)
let
  z = a + b;
  w = a + b;
tel`)
	adds := 0
	for i := range g.Values {
		if g.Values[i].Kind == OpAdd {
			adds++
		}
	}
	if adds != 1 {
		t.Errorf("identical adds not shared: %d", adds)
	}
}

// TestScratchReuse builds a sequence of programs on one Scratch, a failed
// build among them: each graph must equal what a fresh scratch builds, and
// stay so after the scratch builds the next one. The wide-immediate
// program keys two equal 2^100 constants as one, and neither 2^100 + 1 nor
// a 0 (the number the side table gives the first wide immediate) as it.
func TestScratchReuse(t *testing.T) {
	srcs := []string{
		"node f(a: u8, b: u8) returns (z: u8, w: u8) let z = a + b; w = (a + b) * 3; tel",
		"node f(a: u8) returns (z: u8) vars x: u8, y: u8; let x = y + 1; y = x + 1; z = x; tel",
		`node f(a: u128) returns (x: u128, y: u128, w: u128, v: u128)
let
  x = a + 1267650600228229401496703205376;
  y = a + 1267650600228229401496703205376;
  w = a + 1267650600228229401496703205377;
  v = a + 0;
tel`,
		"node f(a: u4) returns (z: u4) let z = a ^ 5; tel",
	}
	var s Scratch
	var built, fresh []*Graph
	for i, src := range srcs {
		prog, err := dsl.Parse(src)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		ch, err := typecheck.Check(prog)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		want, wantErr := BuildNode(ch, "f")
		got, err := s.BuildNode(ch, "f")
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("source %d on a used scratch: %v, %v; fresh: %v, %v", i, got, err, want, wantErr)
		}
		if got != nil {
			built, fresh = append(built, got), append(fresh, want)
		}
	}
	if consts := built[1].NumValues() - built[1].OpCount() - 1; consts != 3 {
		t.Errorf("wide program: %d constants, want 3 (2^100, 2^100+1, 0)", consts)
	}
	for i, g := range built {
		if !reflect.DeepEqual(g, fresh[i]) {
			t.Errorf("graph %d changed when the scratch built later ones", i)
		}
	}
	if got := evalOne(t, built[1], map[string]int64{"a": 1}, "v"); got.Int64() != 1 {
		t.Errorf("wide program: v = %v, want 1", got)
	}
}

func TestWideEval(t *testing.T) {
	g := build(t, "node f(a: u128, b: u128) returns (z: u128) let z = a + b; tel")
	x := new(big.Int).Lsh(big.NewInt(1), 100)
	res, err := g.Eval(map[string]*big.Int{"a": x, "b": x})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 101)
	if res["z"].Cmp(want) != 0 {
		t.Errorf("2^100+2^100 = %v", res["z"])
	}
}

func TestMissingInput(t *testing.T) {
	g := build(t, "node f(a: u8) returns (z: u8) let z = a; tel")
	if _, err := g.Eval(map[string]*big.Int{}); err == nil {
		t.Error("missing input accepted")
	}
}

func TestBuildNodeByName(t *testing.T) {
	prog, _ := dsl.Parse(`
node g(a: u8) returns (z: u8) let z = a + 1; tel
node main(a: u8) returns (z: u8) let z = a; tel`)
	ch, err := typecheck.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildNode(ch, "g")
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Eval(map[string]*big.Int{"a": big.NewInt(5)})
	if err != nil {
		t.Fatal(err)
	}
	if res["z"].Int64() != 6 {
		t.Errorf("g(5) = %v", res["z"])
	}
	if _, err := BuildNode(ch, "nosuch"); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestRandomizedSemantics(t *testing.T) {
	g := build(t, `
node clamp(x: u16, lo: u16, hi: u16) returns (z: u16)
let z = min(max(x, lo), hi); tel
node main(a: u16, b: u16) returns (z: u16)
vars s: u16;
let
  s = a + b;
  z = clamp(s, 10:u16, 1000:u16);
tel`)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		a := rng.Int63n(1 << 16)
		b := rng.Int63n(1 << 16)
		s := (a + b) & 0xFFFF
		want := s
		if want < 10 {
			want = 10
		}
		if want > 1000 {
			want = 1000
		}
		if got := evalOne(t, g, map[string]int64{"a": a, "b": b}, "z"); got.Int64() != want {
			t.Fatalf("clamp(%d+%d): got %v, want %d", a, b, got, want)
		}
	}
}
