package chopper

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/isa"
	"chopper/internal/obs"
)

var allOpts = []OptLevel{OptBitslice, OptSchedule, OptReuse, OptFull}

func randLanes(rng *rand.Rand, n, width int) []uint64 {
	mask := ^uint64(0)
	if width < 64 {
		mask = (uint64(1) << uint(width)) - 1
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() & mask
	}
	return out
}

// compileAll compiles src for every (arch, optlevel) pair.
func compileAll(t *testing.T, src string) map[string]*Kernel {
	t.Helper()
	ks := make(map[string]*Kernel)
	for _, arch := range isa.AllArchs {
		for _, lv := range allOpts {
			k, err := Compile(src, Options{Target: arch}.WithOpt(lv))
			if err != nil {
				t.Fatalf("%v/%v: %v", arch, lv, err)
			}
			ks[fmt.Sprintf("%v/%v", arch, lv)] = k
		}
	}
	return ks
}

func TestEndToEndAddSub(t *testing.T) {
	src := `
node main(a: u8, b: u8) returns (s: u8, d: u8)
let
  s = a + b;
  d = a - b;
tel`
	rng := rand.New(rand.NewSource(1))
	lanes := 100
	as := randLanes(rng, lanes, 8)
	bs := randLanes(rng, lanes, 8)
	for name, k := range compileAll(t, src) {
		out, err := k.Run(map[string][]uint64{"a": as, "b": bs}, lanes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for l := 0; l < lanes; l++ {
			if got, want := out["s"][l], (as[l]+bs[l])&0xFF; got != want {
				t.Fatalf("%s lane %d: s=%d want %d", name, l, got, want)
			}
			if got, want := out["d"][l], (as[l]-bs[l])&0xFF; got != want {
				t.Fatalf("%s lane %d: d=%d want %d", name, l, got, want)
			}
		}
	}
}

// The Figure 3 program: packed add/sub with predication.
const fig3Src = `
node addsub(a: u8, b: u8) returns (s: u8, d: u8)
let
  s = a + b;
  d = a - b;
tel
node main(a: u8, b: u8, pred: u8) returns (c: u8)
vars s: u8, d: u8, f: u1;
let
  (s, d) = addsub(a, b);
  f = a > pred;
  c = f ? s : d;
tel`

func TestEndToEndFig3(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lanes := 64
	as := randLanes(rng, lanes, 8)
	bs := randLanes(rng, lanes, 8)
	ps := randLanes(rng, lanes, 8)
	for name, k := range compileAll(t, fig3Src) {
		out, err := k.Run(map[string][]uint64{"a": as, "b": bs, "pred": ps}, lanes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for l := 0; l < lanes; l++ {
			want := (as[l] - bs[l]) & 0xFF
			if as[l] > ps[l] {
				want = (as[l] + bs[l]) & 0xFF
			}
			if out["c"][l] != want {
				t.Fatalf("%s lane %d: c=%d want %d", name, l, out["c"][l], want)
			}
		}
	}
}

func TestEndToEndKitchenSink(t *testing.T) {
	src := `
node main(a: u8, b: u8) returns (z: u8, w: u1, pc: u8)
vars m: u8, x: u16;
let
  m = mux(a < b, a * b, absdiff(a, b));
  x = u16(m) + u16(a) * 3;
  z = u8(x >> 1);
  w = x >= 100;
  pc = popcount(a ^ b);
tel`
	rng := rand.New(rand.NewSource(3))
	lanes := 70
	as := randLanes(rng, lanes, 8)
	bs := randLanes(rng, lanes, 8)
	for name, k := range compileAll(t, src) {
		out, err := k.Run(map[string][]uint64{"a": as, "b": bs}, lanes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for l := 0; l < lanes; l++ {
			var m uint64
			if as[l] < bs[l] {
				m = (as[l] * bs[l]) & 0xFF
			} else if as[l] >= bs[l] {
				if as[l] >= bs[l] {
					m = as[l] - bs[l]
				}
			}
			x := (m + as[l]*3) & 0xFFFF
			wantZ := (x >> 1) & 0xFF
			var wantW uint64
			if x >= 100 {
				wantW = 1
			}
			var wantPC uint64
			for v := as[l] ^ bs[l]; v != 0; v &= v - 1 {
				wantPC++
			}
			if out["z"][l] != wantZ || out["w"][l] != wantW || out["pc"][l] != wantPC {
				t.Fatalf("%s lane %d (a=%d b=%d): z=%d/%d w=%d/%d pc=%d/%d",
					name, l, as[l], bs[l], out["z"][l], wantZ, out["w"][l], wantW, out["pc"][l], wantPC)
			}
		}
	}
}

func TestEndToEndWide(t *testing.T) {
	src := "node main(a: u128, b: u128) returns (z: u128) let z = a + b; tel"
	rng := rand.New(rand.NewSource(4))
	lanes := 10
	mk := func() [][]uint64 {
		v := make([][]uint64, lanes)
		for i := range v {
			v[i] = []uint64{rng.Uint64(), rng.Uint64()}
		}
		return v
	}
	as, bs := mk(), mk()
	k, err := Compile(src, Options{Target: SIMDRAM})
	if err != nil {
		t.Fatal(err)
	}
	out, err := k.RunWide(map[string][][]uint64{"a": as, "b": bs}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		lo := as[l][0] + bs[l][0]
		carry := uint64(0)
		if lo < as[l][0] {
			carry = 1
		}
		hi := as[l][1] + bs[l][1] + carry
		if out["z"][l][0] != lo || out["z"][l][1] != hi {
			t.Fatalf("lane %d: got %x:%x want %x:%x", l, out["z"][l][1], out["z"][l][0], hi, lo)
		}
	}
}

func TestSpillPathCorrect(t *testing.T) {
	// A tiny subarray forces spilling; results must stay correct.
	src := `
node main(a: u16, b: u16, c: u16, d: u16) returns (z: u16)
vars t1: u16, t2: u16, t3: u16;
let
  t1 = a * b;
  t2 = c * d;
  t3 = t1 + t2;
  z = t3 * t3 + a;
tel`
	geom := dram.DefaultGeometry()
	geom.RowsPerSub = 42 // 24 data rows after the 18 reserved
	geom.SubarraysPB = 64
	k, err := Compile(src, Options{Target: Ambit, Geometry: geom}.WithOpt(OptFull))
	if err != nil {
		t.Fatal(err)
	}
	if k.Code.Prog.SpillSlots == 0 {
		t.Fatalf("expected spilling with %d data rows (max live %d)", geom.DRows(), k.Stats().MaxLiveRows)
	}
	rng := rand.New(rand.NewSource(5))
	lanes := 64
	in := map[string][]uint64{
		"a": randLanes(rng, lanes, 16), "b": randLanes(rng, lanes, 16),
		"c": randLanes(rng, lanes, 16), "d": randLanes(rng, lanes, 16),
	}
	out, err := k.Run(in, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		t3 := (in["a"][l]*in["b"][l] + in["c"][l]*in["d"][l]) & 0xFFFF
		want := (t3*t3 + in["a"][l]) & 0xFFFF
		if out["z"][l] != want {
			t.Fatalf("lane %d: z=%d want %d", l, out["z"][l], want)
		}
	}
}

func TestOptimizationsReduceWork(t *testing.T) {
	src := fig3Src
	type m struct {
		ops    int
		drows  int
		writes int
	}
	got := make(map[OptLevel]m)
	for _, lv := range allOpts {
		k, err := Compile(src, Options{Target: Ambit}.WithOpt(lv))
		if err != nil {
			t.Fatal(err)
		}
		got[lv] = m{
			ops:    len(k.Code.Prog.Ops),
			drows:  k.Stats().MaxLiveRows,
			writes: k.Stats().Writes,
		}
	}
	// O1 reduces buffering pressure.
	if got[OptSchedule].drows > got[OptBitslice].drows {
		t.Errorf("schedule increased row pressure: %d -> %d", got[OptBitslice].drows, got[OptSchedule].drows)
	}
	// O2 removes host constant writes.
	kNoReuse, _ := Compile(src, Options{Target: Ambit}.WithOpt(OptSchedule))
	kReuse, _ := Compile(src, Options{Target: Ambit}.WithOpt(OptReuse))
	if kReuse.Stats().ConstWrites != 0 {
		t.Errorf("reuse level still writes constants: %d", kReuse.Stats().ConstWrites)
	}
	if kNoReuse.Stats().ConstWrites == 0 {
		t.Errorf("schedule level should host-write constants")
	}
	// O3 shortens the program.
	if got[OptFull].ops >= got[OptReuse].ops {
		t.Errorf("rename did not shorten program: %d -> %d", got[OptReuse].ops, got[OptFull].ops)
	}
	if kFull, _ := Compile(src, Options{Target: Ambit}.WithOpt(OptFull)); kFull.Stats().StoresElided == 0 {
		t.Errorf("rename elided no stores")
	}
	// Full CHOPPER uses fewer rows and fewer ops than bitslice.
	if got[OptFull].drows > got[OptBitslice].drows {
		t.Errorf("full uses more rows than bitslice: %d vs %d", got[OptFull].drows, got[OptBitslice].drows)
	}
	if got[OptFull].ops >= got[OptBitslice].ops {
		t.Errorf("full not shorter than bitslice: %d vs %d", got[OptFull].ops, got[OptBitslice].ops)
	}
}

func TestSIMDRAMFewerTRAsThanAmbit(t *testing.T) {
	src := "node main(a: u16, b: u16) returns (z: u16) let z = a + b; tel"
	kA, err := Compile(src, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	kS, err := Compile(src, Options{Target: SIMDRAM})
	if err != nil {
		t.Fatal(err)
	}
	if kS.Code.Stats.APs >= kA.Code.Stats.APs {
		t.Errorf("SIMDRAM adder uses %d TRAs, Ambit %d", kS.Code.Stats.APs, kA.Code.Stats.APs)
	}
}

func TestNoreuseAnnotation(t *testing.T) {
	src := `
@noreuse
node main(a: u8) returns (z: u8)
let z = a + 42; tel`
	k, err := Compile(src, Options{Target: Ambit}.WithOpt(OptReuse))
	if err != nil {
		t.Fatal(err)
	}
	if k.Stats().ConstWrites == 0 {
		t.Error("@noreuse ignored: no host constant writes at the reuse level")
	}
	if k.Stats().ConstCopies > 0 {
		t.Error("@noreuse ignored: constants still sourced from the C-group")
	}
	// Without the annotation, reuse eliminates the host writes.
	plain, err := Compile(strings.Replace(src, "@noreuse", "", 1), Options{Target: Ambit}.WithOpt(OptReuse))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats().ConstWrites != 0 {
		t.Error("reuse level should not host-write constants without @noreuse")
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	if _, err := Compile("node f(", Options{}); err == nil {
		t.Error("parse error not propagated")
	}
	if _, err := Compile("node f(a: u8) returns (z: u8) let z = q; tel", Options{}); err == nil {
		t.Error("type error not propagated")
	}
	if _, err := Compile("node f(a: u8) returns (z: u8) let z = a; tel", Options{Entry: "nosuch"}); err == nil {
		t.Error("bad entry not caught")
	}
}

func TestAsmDump(t *testing.T) {
	k, err := Compile("node main(a: u4, b: u4) returns (z: u4) let z = a & b; tel", Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	asm := k.Asm()
	for _, want := range []string{"WRITE", "AP T0,T1,T2", "READ"} {
		if !contains(asm, want) {
			t.Errorf("asm missing %q:\n%s", want, asm)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && (stringIndex(s, sub) >= 0))
}

func stringIndex(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property-style sweep: random programs of chained arithmetic stay correct
// across variants and architectures.
func TestRandomProgramSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ops := []string{"+", "-", "&", "|", "^"}
	for trial := 0; trial < 10; trial++ {
		// Build a random straight-line program over u8.
		nvars := 3 + rng.Intn(3)
		src := "node main(a: u8, b: u8) returns (z: u8)\nvars "
		for i := 0; i < nvars; i++ {
			if i > 0 {
				src += ", "
			}
			src += fmt.Sprintf("t%d: u8", i)
		}
		src += ";\nlet\n"
		avail := []string{"a", "b"}
		for i := 0; i < nvars; i++ {
			x := avail[rng.Intn(len(avail))]
			y := avail[rng.Intn(len(avail))]
			op := ops[rng.Intn(len(ops))]
			src += fmt.Sprintf("  t%d = %s %s %s;\n", i, x, op, y)
			avail = append(avail, fmt.Sprintf("t%d", i))
		}
		src += fmt.Sprintf("  z = t%d;\ntel\n", nvars-1)

		lanes := 64
		as := randLanes(rng, lanes, 8)
		bs := randLanes(rng, lanes, 8)

		// Golden evaluation in Go.
		golden := func(a, b uint64) uint64 {
			vals := map[string]uint64{"a": a, "b": b}
			// Re-simulate the generated source (same RNG order as above
			// is unavailable here, so parse the src lines instead).
			return evalStraightLine(src, vals)
		}
		for _, arch := range isa.AllArchs {
			for _, lv := range []OptLevel{OptBitslice, OptFull} {
				k, err := Compile(src, Options{Target: arch}.WithOpt(lv))
				if err != nil {
					t.Fatalf("trial %d %v/%v: %v\n%s", trial, arch, lv, err, src)
				}
				out, err := k.Run(map[string][]uint64{"a": as, "b": bs}, lanes)
				if err != nil {
					t.Fatalf("trial %d %v/%v: %v", trial, arch, lv, err)
				}
				for l := 0; l < lanes; l++ {
					if want := golden(as[l], bs[l]); out["z"][l] != want {
						t.Fatalf("trial %d %v/%v lane %d: z=%d want %d\n%s",
							trial, arch, lv, l, out["z"][l], want, src)
					}
				}
			}
		}
	}
}

// evalStraightLine interprets the simple generated programs of
// TestRandomProgramSweep.
func evalStraightLine(src string, vals map[string]uint64) uint64 {
	lines := splitLines(src)
	for _, ln := range lines {
		var dst, x, op, y string
		if n, _ := fmt.Sscanf(ln, "  %s = %s %s %s;", &dst, &x, &op, &y); n == 4 {
			y = trimSemi(y)
			var v uint64
			switch op {
			case "+":
				v = vals[x] + vals[y]
			case "-":
				v = vals[x] - vals[y]
			case "&":
				v = vals[x] & vals[y]
			case "|":
				v = vals[x] | vals[y]
			case "^":
				v = vals[x] ^ vals[y]
			}
			vals[dst] = v & 0xFF
		} else if n, _ := fmt.Sscanf(ln, "  z = %s", &x); n == 1 {
			vals["z"] = vals[trimSemi(x)]
		}
	}
	return vals["z"]
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func trimSemi(s string) string {
	for len(s) > 0 && (s[len(s)-1] == ';' || s[len(s)-1] == '\n') {
		s = s[:len(s)-1]
	}
	return s
}

// TestOptFieldIsHonoured: setting Options.Opt alone selects the level — the
// levels number from 1, so only the zero OptLevel means "the default"
// (OptFull). On fig3Src reuse and rename emit different programs, so a
// dropped Opt shows as a rename program.
func TestOptFieldIsHonoured(t *testing.T) {
	compile := func(opts Options) *Kernel {
		t.Helper()
		k, err := Compile(fig3Src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	set := compile(Options{Target: Ambit, Opt: OptReuse})
	fluent := compile(Options{Target: Ambit}.WithOpt(OptReuse))
	def := compile(Options{Target: Ambit})
	if def.Asm() == fluent.Asm() {
		t.Fatal("reuse and rename emit the same program for fig3Src; the test is vacuous")
	}
	if set.Asm() != fluent.Asm() || set.Opts.Opt != OptReuse {
		t.Errorf("Options{Opt: OptReuse} compiled at %v, not as WithOpt(OptReuse)", set.Opts.Opt)
	}
	if def.Opts.Opt != OptFull {
		t.Errorf("the zero Opt compiled at %v, want %v", def.Opts.Opt, OptFull)
	}
}

func TestVariantsObeyHierarchy(t *testing.T) {
	for i, lv := range obs.AllVariants {
		if int(lv) != i+1 {
			t.Errorf("variant order broken at %d", i)
		}
	}
	if !obs.Rename.HasSchedule() || !obs.Rename.HasReuse() || !obs.Rename.HasRename() {
		t.Error("rename must include all optimizations")
	}
	if obs.Bitslice.HasSchedule() || obs.Bitslice.HasReuse() || obs.Bitslice.HasRename() {
		t.Error("bitslice must include none")
	}
}

func TestSignedComparisons(t *testing.T) {
	src := `
node main(a: u8, b: u8) returns (lt: u1, le: u1, gt: u1, ge: u1, m: u8)
let
  lt = slt(a, b);
  le = sle(a, b);
  gt = sgt(a, b);
  ge = sge(a, b);
  m = mux(slt(a, b), b, a); // signed max
tel`
	rng := rand.New(rand.NewSource(41))
	lanes := 64
	as := randLanes(rng, lanes, 8)
	bs := randLanes(rng, lanes, 8)
	for _, arch := range []Target{Ambit, SIMDRAM} {
		k, err := Compile(src, Options{Target: arch})
		if err != nil {
			t.Fatal(err)
		}
		out, err := k.Run(map[string][]uint64{"a": as, "b": bs}, lanes)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			sa, sb := int8(as[l]), int8(bs[l])
			want := map[string]uint64{"lt": 0, "le": 0, "gt": 0, "ge": 0}
			if sa < sb {
				want["lt"] = 1
			}
			if sa <= sb {
				want["le"] = 1
			}
			if sa > sb {
				want["gt"] = 1
			}
			if sa >= sb {
				want["ge"] = 1
			}
			wantM := as[l]
			if sa < sb {
				wantM = bs[l]
			}
			for name, w := range want {
				if out[name][l] != w {
					t.Fatalf("%v lane %d (%d vs %d): %s = %d, want %d", arch, l, sa, sb, name, out[name][l], w)
				}
			}
			if out["m"][l] != wantM {
				t.Fatalf("%v lane %d: m = %d, want %d", arch, l, out["m"][l], wantM)
			}
		}
	}
}

// A richer random sweep driven by the dataflow reference (Verify), covering
// every operator the language offers, at every optimization level.
func TestRandomRichProgramsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		src := randomRichProgram(rng)
		for _, arch := range isa.AllArchs {
			lv := allOpts[rng.Intn(len(allOpts))]
			k, err := Compile(src, Options{Target: arch}.WithOpt(lv))
			if err != nil {
				t.Fatalf("trial %d %v/%v: %v\n%s", trial, arch, lv, err, src)
			}
			if err := k.Verify(1, int64(trial*100)+int64(arch)); err != nil {
				t.Fatalf("trial %d %v/%v: %v\n%s", trial, arch, lv, err, src)
			}
		}
	}
}

// randomRichProgram emits a random straight-line program over u12 values
// using the full operator surface.
func randomRichProgram(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("node main(a: u12, b: u12, c: u12) returns (z: u12, f: u1)\nvars ")
	n := 4 + rng.Intn(4)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "t%d: u12", i)
	}
	sb.WriteString(", p: u1;\nlet\n")
	avail := []string{"a", "b", "c"}
	pick := func() string { return avail[rng.Intn(len(avail))] }
	for i := 0; i < n; i++ {
		var expr string
		switch rng.Intn(9) {
		case 0:
			expr = fmt.Sprintf("%s + %s", pick(), pick())
		case 1:
			expr = fmt.Sprintf("%s - %s", pick(), pick())
		case 2:
			expr = fmt.Sprintf("%s ^ (%s | %s)", pick(), pick(), pick())
		case 3:
			expr = fmt.Sprintf("min(%s, %s)", pick(), pick())
		case 4:
			expr = fmt.Sprintf("absdiff(%s, %s)", pick(), pick())
		case 5:
			expr = fmt.Sprintf("popcount(%s)", pick())
		case 6:
			expr = fmt.Sprintf("(%s << %d) | (%s >> %d)", pick(), rng.Intn(12), pick(), rng.Intn(12))
		case 7:
			expr = fmt.Sprintf("mux(%s < %s, %s, %s)", pick(), pick(), pick(), pick())
		case 8:
			expr = fmt.Sprintf("mux(slt(%s, %s), %s + %d, %s)", pick(), pick(), pick(), rng.Intn(100), pick())
		}
		fmt.Fprintf(&sb, "  t%d = %s;\n", i, expr)
		avail = append(avail, fmt.Sprintf("t%d", i))
	}
	fmt.Fprintf(&sb, "  p = %s >= %s;\n", pick(), pick())
	fmt.Fprintf(&sb, "  z = mux(p, %s, %s);\n  f = p;\ntel\n", pick(), pick())
	return sb.String()
}

func TestVariableShifts(t *testing.T) {
	src := `
node main(a: u16, s: u5) returns (l: u16, r: u16)
let
  l = a << s;
  r = a >> s;
tel`
	rng := rand.New(rand.NewSource(51))
	lanes := 64
	as := randLanes(rng, lanes, 16)
	ss := randLanes(rng, lanes, 5) // amounts 0..31, some beyond the width
	for _, arch := range []Target{Ambit, SIMDRAM} {
		k, err := Compile(src, Options{Target: arch})
		if err != nil {
			t.Fatal(err)
		}
		out, err := k.Run(map[string][]uint64{"a": as, "s": ss}, lanes)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			var wantL, wantR uint64
			if ss[l] < 16 {
				wantL = (as[l] << ss[l]) & 0xFFFF
				wantR = as[l] >> ss[l]
			}
			if out["l"][l] != wantL || out["r"][l] != wantR {
				t.Fatalf("%v lane %d (a=%#x s=%d): l=%#x/%#x r=%#x/%#x",
					arch, l, as[l], ss[l], out["l"][l], wantL, out["r"][l], wantR)
			}
		}
	}
}

func TestDivisionAndModulo(t *testing.T) {
	src := `
node main(a: u10, b: u10) returns (q: u10, r: u10)
let
  q = div(a, b);
  r = mod(a, b);
tel`
	rng := rand.New(rand.NewSource(61))
	lanes := 64
	as := randLanes(rng, lanes, 10)
	bs := randLanes(rng, lanes, 10)
	bs[0] = 0 // divide-by-zero lane
	bs[1] = 1
	as[2], bs[2] = 777, 777
	for _, arch := range []Target{Ambit, SIMDRAM} {
		k, err := Compile(src, Options{Target: arch})
		if err != nil {
			t.Fatal(err)
		}
		out, err := k.Run(map[string][]uint64{"a": as, "b": bs}, lanes)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			var wantQ, wantR uint64
			if bs[l] == 0 {
				wantQ, wantR = 1023, as[l] // RISC-V convention
			} else {
				wantQ, wantR = as[l]/bs[l], as[l]%bs[l]
			}
			if out["q"][l] != wantQ || out["r"][l] != wantR {
				t.Fatalf("%v lane %d (%d/%d): q=%d/%d r=%d/%d",
					arch, l, as[l], bs[l], out["q"][l], wantQ, out["r"][l], wantR)
			}
		}
	}
}

func TestArithmeticShiftRight(t *testing.T) {
	src := `
node main(a: u8, s: u4) returns (c: u8, v: u8)
let
  c = asr(a, 2);
  v = asr(a, s);
tel`
	rng := rand.New(rand.NewSource(67))
	lanes := 64
	as := randLanes(rng, lanes, 8)
	ss := randLanes(rng, lanes, 4)
	k, err := Compile(src, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	out, err := k.Run(map[string][]uint64{"a": as, "s": ss}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		wantC := uint64(uint8(int8(uint8(as[l])) >> 2))
		sh := ss[l]
		if sh > 8 {
			sh = 8
		}
		wantV := uint64(uint8(int8(uint8(as[l])) >> sh))
		if sh >= 8 {
			wantV = uint64(uint8(int8(uint8(as[l])) >> 7))
		}
		if out["c"][l] != wantC || out["v"][l] != wantV {
			t.Fatalf("lane %d (a=%#x s=%d): c=%#x/%#x v=%#x/%#x",
				l, as[l], ss[l], out["c"][l], wantC, out["v"][l], wantV)
		}
	}
	if err := k.Verify(2, 3); err != nil {
		t.Fatal(err)
	}
}
