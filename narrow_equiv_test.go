package chopper

// End-to-end checks of precision-adaptive compilation: narrowed kernels
// must verify bit-identically against the original graph's reference
// semantics on every paper workload and architecture, narrowing=off must
// be byte-identical to a default compile, and a fuzz target cross-checks
// narrow-on vs narrow-off lowering on generated graphs.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chopper/internal/narrow"
	"chopper/internal/transpose"
	"chopper/internal/workloads"
)

// TestNarrowedWorkloadsVerify compiles every paper workload with safe-mode
// narrowing on every architecture, checks the pass actually engaged
// (report present, live bits below declared bits), pins what it bought,
// and verifies the narrowed program bit-exactly against the original
// graph's Eval.
func TestNarrowedWorkloadsVerify(t *testing.T) {
	// DenseNet and WTC have provable slack (reassociable popcount sums,
	// range-bounded partition cuts); DiffGen and SW are already width-tight
	// and compile to the same program either way. Micro-op counts and
	// simulated makespans are deterministic, so they are pinned exactly: any
	// change to what narrowing saves shows up here as a number to justify.
	type pin struct {
		base, narrowed     int    // emitted micro-ops with narrowing off and safe
		baseNs, narrowedNs string // 128-lane RunRows makespans; "" pins nothing
	}
	pins := map[string]map[Target]pin{
		"DenseNet-16": {
			Ambit:   {18771, 10510, "1409235.28", "788890.10"}, // 44% fewer uops, 1.79x
			ELP2IM:  {base: 18771, narrowed: 10510},
			SIMDRAM: {base: 17739, narrowed: 9703},
		},
		"WTC-64": {
			Ambit:   {base: 40352, narrowed: 33504},
			ELP2IM:  {base: 40352, narrowed: 33504},
			SIMDRAM: {27520, 21696, "2243643.23", "1810811.53"}, // 21% fewer uops, 1.24x
		},
		"DiffGen-64": {
			Ambit:   {base: 1408, narrowed: 1408},
			ELP2IM:  {base: 1408, narrowed: 1408},
			SIMDRAM: {base: 1408, narrowed: 1408},
		},
		"SW-64": {
			Ambit:   {base: 5297, narrowed: 5297},
			ELP2IM:  {base: 5297, narrowed: 5297},
			SIMDRAM: {base: 5297, narrowed: 5297},
		},
	}
	// Timing does not depend on operand values, so any operands do.
	makespan := func(t *testing.T, k *Kernel) string {
		const lanes = 128
		in := randWideInputs(rand.New(rand.NewSource(1)), k.Inputs, lanes)
		rows := make(map[string][][]uint64, len(k.Inputs))
		for _, op := range k.Inputs {
			rows[op.Name] = transpose.ToVerticalWide(in[op.Name], op.Width, lanes)
		}
		res, err := k.RunRows(rows, lanes)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%.2f", res.TimeNs)
	}
	for _, wl := range []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"} {
		spec, ok := workloads.Get(wl)
		if !ok {
			t.Fatalf("unknown workload %q", wl)
		}
		t.Run(wl, func(t *testing.T) {
			for _, arch := range []Target{Ambit, ELP2IM, SIMDRAM} {
				base, err := Compile(spec.Src, Options{Target: arch})
				if err != nil {
					t.Fatalf("%v: base compile: %v", arch, err)
				}
				k, err := Compile(spec.Src, Options{Target: arch, Narrow: NarrowSafe})
				if err != nil {
					t.Fatalf("%v: narrow compile: %v", arch, err)
				}
				if k.Narrow == nil {
					t.Fatalf("%v: narrowing fell back (Kernel.Narrow == nil)", arch)
				}
				if k.Narrow.LiveBits >= k.Narrow.DeclaredBits {
					t.Errorf("%v: live bits %d not below declared %d",
						arch, k.Narrow.LiveBits, k.Narrow.DeclaredBits)
				}
				want := pins[wl][arch]
				if u0, u1 := len(base.Prog().Ops), len(k.Prog().Ops); u0 != want.base || u1 != want.narrowed {
					t.Errorf("%v: uops %d -> %d, pinned %d -> %d", arch, u0, u1, want.base, want.narrowed)
				}
				if want.baseNs != "" {
					if ns0, ns1 := makespan(t, base), makespan(t, k); ns0 != want.baseNs || ns1 != want.narrowedNs {
						t.Errorf("%v: 128-lane makespan %s -> %s ns, pinned %s -> %s",
							arch, ns0, ns1, want.baseNs, want.narrowedNs)
					}
				}
				if err := k.Verify(2, int64(arch)+2000); err != nil {
					t.Fatalf("%v: narrowed kernel failed verification: %v", arch, err)
				}
			}
		})
	}
}

// TestNarrowOffByteIdentical pins the off switch: compiling with
// NarrowOff (the default) must produce a program byte-identical to one
// compiled without mentioning narrowing at all.
func TestNarrowOffByteIdentical(t *testing.T) {
	spec, _ := workloads.Get("SW-64")
	for _, arch := range []Target{Ambit, ELP2IM, SIMDRAM} {
		k0, err := Compile(spec.Src, Options{Target: arch})
		if err != nil {
			t.Fatal(err)
		}
		k1, err := Compile(spec.Src, Options{Target: arch, Narrow: NarrowOff})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(k0.Prog(), k1.Prog()) {
			t.Errorf("%v: NarrowOff program differs from default compile", arch)
		}
		if k1.Narrow != nil {
			t.Errorf("%v: NarrowOff kernel carries a narrow report", arch)
		}
	}
}

// TestAnnotatedNarrowing checks the @range path end to end: annotations
// tighten inputs beyond what safe mode can prove, verification draws
// in-range operands, and out-of-contract annotations are compile errors.
func TestAnnotatedNarrowing(t *testing.T) {
	src := `
@range(a, 0, 100)
@range(b, 0, 50)
node main(a: u16, b: u16) returns (z: u16)
let z = a * b + a;
tel`
	safe, err := Compile(src, Options{Narrow: NarrowSafe})
	if err != nil {
		t.Fatal(err)
	}
	ann, err := Compile(src, Options{Narrow: NarrowAnnotated})
	if err != nil {
		t.Fatal(err)
	}
	if ann.Narrow == nil || safe.Narrow == nil {
		t.Fatal("narrow report missing")
	}
	if ann.Narrow.LiveBits >= safe.Narrow.LiveBits {
		t.Errorf("annotations did not tighten: annotated %d live bits, safe %d",
			ann.Narrow.LiveBits, safe.Narrow.LiveBits)
	}
	// a*b+a <= 100*50+100 = 5100 < 2^13: the annotated product must fit
	// well below the declared 16 bits.
	if err := ann.Verify(3, 11); err != nil {
		t.Fatalf("annotated kernel failed verification: %v", err)
	}

	// Safe mode must ignore annotations entirely.
	if got, want := safe.Narrow.Mode, NarrowSafe; got != want {
		t.Errorf("mode = %v, want %v", got, want)
	}

	for _, bad := range []string{
		"@range(c, 0, 1)\nnode main(a: u8) returns (z: u8) let z = a; tel",                  // unknown name
		"@range(a, 7, 3)\nnode main(a: u8) returns (z: u8) let z = a; tel",                  // lo > hi
		"@range(a, 0, 300)\nnode main(a: u8) returns (z: u8) let z = a; tel",                // hi too wide
		"@range(a, 0, 1)\n@range(a, 0, 2)\nnode main(a: u8) returns (z: u8) let z = a; tel", // duplicate
	} {
		if _, err := Compile(bad, Options{}); err == nil {
			t.Errorf("bad annotation accepted: %q", bad)
		}
	}
}

// FuzzNarrowEquivalence is the cross-layer equivalence harness: for a
// generated well-typed graph, compiling with narrowing off and on must
// agree — both verify against the same reference semantics, across the
// lane schedule (1, 63, 64, 65 and 128 lanes).
func FuzzNarrowEquivalence(f *testing.F) {
	// Seeds biased toward the rewrite's edge cases: signed shifts and
	// compares, resize chains, shift-amount clamps.
	f.Add([]byte{})
	f.Add([]byte("sra-signed-compare"))
	f.Add([]byte{0x0f, 0xff, 0x00, 0x10, 0x80, 0x7f, 0x01, 0x02})
	f.Add([]byte("X)27071900)0C78"))                                          // historical narrow.Run soundness regression
	f.Add([]byte{0x1d, 0x1d, 0x1d, 0x1d, 0x1d, 0x1d, 0x1d, 0x1d, 0x1d, 0x1d}) // resize-heavy
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ranges := narrow.GenGraph(data)
		off, errOff := CompileGraph(g, Options{})
		on, errOn := CompileGraph(g, Options{Narrow: NarrowSafe})
		if (errOff == nil) != (errOn == nil) {
			t.Fatalf("compile disagreement: off=%v on=%v", errOff, errOn)
		}
		if errOff != nil {
			t.Skip()
		}
		_ = ranges // annotated ranges only flow through the DSL front end
		// Five trials walk the whole verification lane schedule:
		// 64, 1, 63, 65 and 128 lanes.
		if err := off.Verify(5, 5); err != nil {
			// The baseline lowering is the oracle for the graph itself;
			// if it cannot verify, the graph (not narrowing) is at fault.
			t.Fatalf("baseline kernel failed verification: %v", err)
		}
		if err := on.Verify(5, 5); err != nil {
			t.Fatalf("narrowed kernel failed verification: %v", err)
		}
	})
}
