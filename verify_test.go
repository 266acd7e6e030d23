package chopper

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"chopper/internal/isa"
	"chopper/internal/workloads"
)

// randWideInputs draws one batch of random operand values in wide
// (limbs-per-lane) layout, in the order a trial draws its operands (input by
// input, lane by lane, limb by limb), unclamped.
func randWideInputs(rng *rand.Rand, inputs []IOSpec, lanes int) map[string][][]uint64 {
	inWide := make(map[string][][]uint64, len(inputs))
	for _, in := range inputs {
		limbs := (in.Width + 63) / 64
		vals := make([][]uint64, lanes)
		backing := make([]uint64, lanes*limbs)
		for l := range vals {
			v := backing[l*limbs : (l+1)*limbs : (l+1)*limbs]
			for i := range v {
				v[i] = rng.Uint64()
			}
			if r := in.Width % 64; r != 0 {
				v[limbs-1] &= (uint64(1) << uint(r)) - 1
			}
			vals[l] = v
		}
		inWide[in.Name] = vals
	}
	return inWide
}

func TestVerifyAcceptsCorrectKernels(t *testing.T) {
	for _, src := range []string{
		"node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel",
		"node main(a: u48, b: u48) returns (z: u48, c: u1) let z = a - b; c = a < b; tel",
		"node main(a: u96) returns (z: u96) let z = a + 0x1_0000_0000:u96; tel",
	} {
		for _, arch := range []Target{Ambit, SIMDRAM} {
			k, err := Compile(src, Options{Target: arch})
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Verify(3, 11); err != nil {
				t.Errorf("%v: %v", arch, err)
			}
		}
	}
}

func TestVerifyWorksOnBaselineKernels(t *testing.T) {
	k, err := CompileBaseline("node main(a: u8, b: u8) returns (z: u8) let z = mux(a < b, a, b); tel",
		Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Verify(3, 13); err != nil {
		t.Error(err)
	}
}

// End-to-end coverage of the array/forall/const-table language features:
// compile through the whole stack and execute on the simulated DRAM.
func TestEndToEndArraysAndLoops(t *testing.T) {
	src := `
node main(x: u8[4]) returns (s: u8, m: u8[4])
vars acc: u8[5];
const w: u8[4] = {1, 2, 3, 4};
let
  acc[0] = 0:u8;
  forall i in 0..3 {
    acc[i+1] = acc[i] + (x[i] ^ w[i]);
    m[i] = max(x[i], w[i]);
  }
  s = acc[4];
tel`
	for _, arch := range []Target{Ambit, ELP2IM, SIMDRAM} {
		k, err := Compile(src, Options{Target: arch})
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		lanes := 32
		in := map[string][]uint64{}
		for i := 0; i < 4; i++ {
			vals := make([]uint64, lanes)
			for l := range vals {
				vals[l] = uint64((l*31 + i*17) % 256)
			}
			in["x__"+string(rune('0'+i))] = vals
		}
		out, err := k.Run(in, lanes)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		w := []uint64{1, 2, 3, 4}
		for l := 0; l < lanes; l++ {
			var acc uint64
			for i := 0; i < 4; i++ {
				x := in["x__"+string(rune('0'+i))][l]
				acc = (acc + (x ^ w[i])) & 0xFF
				wantM := x
				if w[i] > x {
					wantM = w[i]
				}
				if out["m__"+string(rune('0'+i))][l] != wantM {
					t.Fatalf("%v lane %d m[%d]: got %d want %d", arch, l, i, out["m__"+string(rune('0'+i))][l], wantM)
				}
			}
			if out["s"][l] != acc {
				t.Fatalf("%v lane %d: s=%d want %d", arch, l, out["s"][l], acc)
			}
		}
		if err := k.Verify(2, 5); err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
	}
}

func TestVerifyCatchesBrokenPrograms(t *testing.T) {
	k, err := Compile("node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel", Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: flip one TRA into an OR by swapping its control row.
	sabotaged := false
	for i := range k.prog.Ops {
		op := &k.prog.Ops[i]
		if op.Kind == 0 /* AAP */ && op.Src.IsCGroup() && !sabotaged {
			if op.Src.String() == "C0" {
				op.Src = op.Src - 1 // C0 -> C1
				sabotaged = true
			}
		}
	}
	if !sabotaged {
		t.Skip("no control-row copy to sabotage")
	}
	if err := k.Verify(3, 17); err == nil {
		t.Error("verification passed on a sabotaged kernel")
	} else if !strings.Contains(err.Error(), "reference says") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestAsmRoundTrip(t *testing.T) {
	// The assembly chopperc prints must re-assemble into the same program.
	k, err := Compile(fig3Src, Options{Target: SIMDRAM})
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := isa.ParseProgram(k.Asm())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reparsed.Format(), k.Prog().Format(); got != want {
		t.Error("assembly round trip changed the program")
	}
	if reparsed.DRowsUsed > k.Opts.Geometry.DRows() {
		t.Errorf("reconstructed DRowsUsed %d exceeds subarray", reparsed.DRowsUsed)
	}
}

// sabotageFirstC0 flips one op of a compiled program: the first control-row
// copy from C0 reads C1 instead.
func sabotageFirstC0(t *testing.T, k *Kernel) {
	t.Helper()
	for i := range k.prog.Ops {
		op := &k.prog.Ops[i]
		if op.Kind == isa.OpAAP && op.Src == isa.C0 {
			op.Src = isa.C1
			return
		}
	}
	t.Fatal("no control-row copy to sabotage")
}

// TestVerifyMismatchTextIdentical pins the discrepancy report to the text
// the per-lane big.Int comparison produced before the lane-batched
// evaluator replaced it (recorded from the parent commit): lowest trial,
// lowest lane, k.Outputs order, decimal values — at any worker count, solo
// and through the coalesced pass.
func TestVerifyMismatchTextIdentical(t *testing.T) {
	for _, tc := range []struct {
		src         string
		solo, batch string // Verify(7, 17) and the batch's second member, Verify(2, 5)
	}{
		{
			src:   "node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel",
			solo:  `chopper: verify: trial 0 lane 3: output "z" = 58, reference says 57`,
			batch: `chopper: verify: trial 0 lane 4: output "z" = 178, reference says 177`,
		},
		{
			src:   "node main(a: u128, b: u128) returns (s: u128, d: u128) let s = a + b; d = a - b; tel",
			solo:  `chopper: verify: trial 0 lane 0: output "s" = 13209175047010113025449270969486187922, reference says 13209175047010113025449270969486187921`,
			batch: `chopper: verify: trial 0 lane 1: output "s" = 89984145775192644976395314166782143624, reference says 89984145775192644976395314166782143623`,
		},
	} {
		k, err := Compile(tc.src, Options{Target: Ambit})
		if err != nil {
			t.Fatal(err)
		}
		sabotageFirstC0(t, k)
		for _, workers := range []int{1, 4} {
			err := k.VerifyCtx(nil, 7, 17, workers, FaultConfig{})
			if err == nil || err.Error() != tc.solo {
				t.Errorf("workers=%d: got %v, want %s", workers, err, tc.solo)
			}
			if !errors.Is(err, ErrVerify) {
				t.Errorf("workers=%d: %v is not ErrVerify", workers, err)
			}
		}
		per, err := k.VerifyBatchCtx(nil, []VerifySpec{{Trials: 7, Seed: 17}, {Trials: 2, Seed: 5}})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{tc.solo, tc.batch} {
			if per[i] == nil || per[i].Error() != want {
				t.Errorf("batch member %d: got %v, want %s", i, per[i], want)
			}
		}
	}
}

// TestClampAnnotatedOperands pins the operands an @range-annotated kernel's
// trials draw to what the all-big.Int clamp produced at the parent commit:
// a narrow range, the full u64 range (a span of 2^64), a range wider than a
// word (the big.Int route) and a single point.
func TestClampAnnotatedOperands(t *testing.T) {
	src := "@range(a, 3, 100)\n@range(b, 0, 18446744073709551615)\n" +
		"@range(c, 1, 340282366920938463463374607431768211455)\n@range(d, 5, 5)\n" +
		"node main(a: u8, b: u64, c: u128, d: u16) returns (z: u128) let z = u128(a) + u128(b) + c + u128(d); tel"
	k, err := Compile(src, Options{Target: Ambit, Narrow: NarrowAnnotated})
	if err != nil {
		t.Fatal(err)
	}
	var s trialScratch
	in := s.draw(k, trial{lanes: 65, seed: trialSeed(9, 2)}, 0, 65)
	h := sha256.New()
	for _, spec := range k.Inputs {
		for _, v := range in[spec.Name] {
			fmt.Fprintf(h, "%s %v\n", spec.Name, v)
		}
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "9a39d130b00e352aaa3aeeaca7dc7cf69a002d1dc8079caab719678061ab3ad0"; got != want {
		t.Errorf("clamped operands digest %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(in["a"][:6], in["b"][0], in["c"][0], in["d"][64]),
		"[[20] [63] [82] [41] [28] [49]] [9658662181372580777] [4646899980756320693 2581655659782605505] [5]"; got != want {
		t.Errorf("clamped operands %s, want %s", got, want)
	}
	if err := k.Verify(5, 9); err != nil {
		t.Error(err)
	}
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestVerifyAllocGate holds the verification glue to a few allocations per
// trial: the reference runs lane-batched in a retained arena, so nothing
// about a trial allocates per lane or per graph value (248,871 allocations
// when every lane built a map of big.Ints). In bytes, a warm 64-lane trial
// on WTC-64 (32 inputs, 192 outputs) draws its operands, compares its
// outputs and binds its rows in its worker's memory, and allocates no more
// than 64 KiB (605,903 B when a trial allocated its operands, transposed
// them into rows of its own and gathered its outputs into a slice per lane).
// The byte half does not run under the race detector, whose runtime drops
// sync.Pool puts at random, so the pooled worker is rebuilt inside the
// measured trials.
func TestVerifyAllocGate(t *testing.T) {
	spec, _ := workloads.Get("DenseNet-16")
	k, err := Compile(spec.Src, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	verify := func() {
		if err := k.Verify(4, 1); err != nil {
			t.Fatal(err)
		}
	}
	verify() // build the plan, grow the arena
	if allocs := testing.AllocsPerRun(5, verify); allocs > 5000 {
		t.Errorf("Verify(4) on DenseNet-16 allocates %.0f times, want <= 5000", allocs)
	}
	if raceDetector {
		t.Skip("the byte bound: the race runtime drops sync.Pool puts at random, so warm trials rebuild the pooled worker")
	}

	spec, _ = workloads.Get("WTC-64")
	if k, err = Compile(spec.Src, Options{Target: Ambit}); err != nil {
		t.Fatal(err)
	}
	trial := func() {
		if err := k.VerifyCtx(nil, 1, 1, 1, FaultConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	trial()
	runtime.GC() // the pooled worker survives one collection; warm it again
	trial()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		trial()
	}
	runtime.ReadMemStats(&after)
	if perTrial := (after.TotalAlloc - before.TotalAlloc) / runs; perTrial > 64<<10 {
		t.Errorf("a warm 64-lane WTC-64 trial allocates %d B, want <= %d", perTrial, 64<<10)
	}
}
