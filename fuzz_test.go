package chopper

import (
	"strings"
	"testing"

	"chopper/internal/prove"
)

// fuzzCompileSeeds is FuzzCompile's seed corpus: well-formed kernels,
// malformed and hostile sources, and one that exceeds the gate budget.
var fuzzCompileSeeds = []string{
	"",
	"node main(a: u8, b: u8) returns (s: u8) let s = a + b; tel",
	"node main(a: u8, b: u8) returns (s: u8, d: u8) let s = a + b; d = a - b; tel",
	"node main(a: u16) returns (z: u16) vars t: u16; let t = a * a; z = t ^ a; tel",
	"node main(a: u8, b: u8, p: u1) returns (c: u8) let c = p ? a : b; tel",
	"node main(a: u8) returns (z: u8) let z = mux(a < 3:u8, a, ~a); tel",
	"node main(a: u8 returns",
	"node main() returns () tel",
	"node node node ((((",
	"let tel vars returns",
	strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000),
	"node main(a: u8) returns (z: u8) let z = " + strings.Repeat("~", 3000) + "a; tel",
	"node main(a: u128, b: u128) returns (z: u128) let z = a + b; tel",
	"\x00\xff\xfe garbage \x80",
	// A 32-bit multiply lowers to thousands of gates: known to blow
	// the small gate budget below, exercising the ErrBudget path.
	"node main(a: u32, b: u32) returns (z: u32) let z = a * b; tel",
}

// FuzzCompile drives arbitrary source through the full pipeline (parse,
// typecheck, normalize, codegen). The contract under fuzzing is the
// robustness invariant of the public API: Compile returns an error or a
// kernel — it never panics, whatever the input. The recover guards convert
// any internal panic into an ErrInternal error, and the parser's recursion
// depth limit keeps hostile nesting from overflowing the stack (which Go
// could not recover). Every kernel it does return must be proved against
// its net by internal/prove: the back end preserves each output's function.
func FuzzCompile(f *testing.F) {
	for _, s := range fuzzCompileSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, opts := range []Options{
			{Target: Ambit},
			{Target: ELP2IM, Harden: true},
			// A tight guard budget: inputs that compile at all now also
			// exercise the deterministic budget-exceeded paths (net-gates
			// at bit-slicing/legalization, micro-ops during emission).
			{Target: Ambit, Budget: Budget{MaxNetGates: 256, MaxMicroOps: 1024}},
			// Recovery combos: normalization/validation and the epoch-mark
			// plumbing must hold for arbitrary programs.
			{Target: Ambit, Recovery: Recovery{Detector: DetectorParity, EpochUops: 8}},
			{Target: SIMDRAM, Harden: true, Recovery: Recovery{Detector: DetectorVote, MaxRetries: -1}},
		} {
			k, err := Compile(src, opts)
			if err == nil && k == nil {
				t.Fatalf("Compile returned neither kernel nor error for %q", src)
			}
			if err != nil && k != nil {
				t.Fatalf("Compile returned both kernel and error for %q: %v", src, err)
			}
			if k == nil {
				continue
			}
			if r := prove.Check(k.Code, k.Net); r.Verdict != prove.Proved {
				t.Fatalf("%+v: the program for %q is not proved against its net: %v", opts, src, r)
			}
		}
	})
}

// FuzzRecoveryEquivalence checks the recovery layer's zero-fault identity
// on arbitrary programs: with no faults injected, a recovery-enabled run
// must produce byte-identical outputs to a recovery-disabled run of the
// same kernel (the detector observes, buffers and charges timing, but the
// functional result is untouched).
func FuzzRecoveryEquivalence(f *testing.F) {
	seeds := []string{
		"node main(a: u8, b: u8) returns (s: u8) let s = a + b; tel",
		"node main(a: u8, b: u8, p: u1) returns (c: u8) let c = p ? a : b; tel",
		"node main(a: u16) returns (z: u16) vars t: u16; let t = a * a; z = t ^ a; tel",
		"node main(a: u8) returns (z: u8) let z = mux(a < 3:u8, a, ~a); tel",
	}
	for _, s := range seeds {
		f.Add(s, 3)
	}
	f.Fuzz(func(t *testing.T, src string, epochUops int) {
		plain, err := Compile(src, Options{Target: Ambit})
		if err != nil {
			t.Skip()
		}
		const lanes = 8
		in := make(map[string][]uint64, len(plain.Inputs))
		for _, spec := range plain.Inputs {
			if spec.Width > 64 {
				t.Skip()
			}
			vals := make([]uint64, lanes)
			mask := ^uint64(0)
			if spec.Width < 64 {
				mask = (uint64(1) << uint(spec.Width)) - 1
			}
			for l := range vals {
				vals[l] = (uint64(l)*0x9e3779b9 + 7) & mask
			}
			in[spec.Name] = vals
		}
		want, err := plain.Run(in, lanes)
		if err != nil {
			t.Skip()
		}
		epochUops &= 511 // non-negative: covers stride 0 (default) through tiny epochs
		for _, det := range []Detector{DetectorParity, DetectorVote} {
			k, err := Compile(src, Options{Target: Ambit,
				Recovery: Recovery{Detector: det, EpochUops: epochUops}})
			if err != nil {
				t.Fatalf("recovery options broke compilation: %v", err)
			}
			got, err := k.Run(in, lanes)
			if err != nil {
				t.Fatalf("%s: recovered run failed where plain run succeeded: %v", det, err)
			}
			for name, w := range want {
				if len(got[name]) != len(w) {
					t.Fatalf("%s: output %q length differs", det, name)
				}
				for l := range w {
					if got[name][l] != w[l] {
						t.Fatalf("%s: output %q lane %d = %#x, want %#x", det, name, l, got[name][l], w[l])
					}
				}
			}
		}
	})
}
