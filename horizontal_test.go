package chopper

import (
	"errors"
	"strings"
	"testing"
)

// Bulk bitwise over packed rows: the Ambit use case.
const horizontalSrc = `
node main(a: u8, b: u8, m: u8) returns (z: u8)
let
  z = (a & m) ^ (b | ~m);
tel`

func TestHorizontalBitwiseKernel(t *testing.T) {
	k, err := CompileHorizontal(horizontalSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	// Each "lane" is one packed bit; no transposition happens.
	for _, in := range k.Inputs {
		if in.Width != 1 {
			t.Fatalf("input %s width %d, want 1 (one row per operand)", in.Name, in.Width)
		}
	}
	// One row per operand: exactly 3 writes, 1 read.
	if k.Stats().Writes != 3 {
		t.Errorf("writes = %d, want 3 (one row per operand)", k.Stats().Writes)
	}
	if k.Stats().Reads != 1 {
		t.Errorf("reads = %d, want 1", k.Stats().Reads)
	}

	lanes := 128 // 128 packed bits = 16 8-bit elements
	mk := func(seed uint64) []uint64 {
		v := make([]uint64, lanes)
		for i := range v {
			v[i] = (seed >> uint(i%64)) & 1
		}
		return v
	}
	as, bs, ms := mk(0xDEADBEEFCAFEF00D), mk(0x0123456789ABCDEF), mk(0xF0F0F0F0F0F0F0F0)
	out, err := k.Run(map[string][]uint64{"a": as, "b": bs, "m": ms}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		want := (as[l] & ms[l]) ^ (bs[l] | (^ms[l] & 1))
		if out["z"][l] != want&1 {
			t.Fatalf("bit %d: z=%d want %d", l, out["z"][l], want&1)
		}
	}
}

// The horizontal layout shares Compile's back end, so the options that
// shape it apply: hardening triplicates the logic, budgets stop the compile.
func TestHorizontalHonorsHardenAndBudget(t *testing.T) {
	plain, err := CompileHorizontal(horizontalSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := CompileHorizontal(horizontalSrc, Options{Target: Ambit, Harden: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(hard.Prog().Ops) <= len(plain.Prog().Ops) {
		t.Errorf("hardened kernel has %d micro-ops, plain %d: Harden was dropped",
			len(hard.Prog().Ops), len(plain.Prog().Ops))
	}
	if err := hard.Verify(8, 1); err != nil {
		t.Errorf("hardened kernel does not verify: %v", err)
	}

	_, err = CompileHorizontal(horizontalSrc, Options{Target: Ambit, Budget: Budget{MaxNetGates: 1}})
	if !errors.Is(err, ErrBudget) || ErrorClass(err) != "budget" {
		t.Errorf("MaxNetGates 1: error %v (class %q), want a budget stop", err, ErrorClass(err))
	}
}

func TestHorizontalUniformConstants(t *testing.T) {
	// All-ones and all-zero constants are fine (they are the C-group).
	src := "node main(a: u8) returns (z: u8) let z = a ^ 0xFF; tel"
	k, err := CompileHorizontal(src, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	out, err := k.Run(map[string][]uint64{"a": {1, 0, 1}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for l, a := range []uint64{1, 0, 1} {
		if out["z"][l] != a^1 {
			t.Fatalf("bit %d: %d", l, out["z"][l])
		}
	}
}

func TestHorizontalRejectsArithmetic(t *testing.T) {
	cases := map[string]string{
		"add":      "node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel",
		"cmp":      "node main(a: u8, b: u8) returns (z: u1) let z = a < b; tel",
		"mux":      "node main(c: u1, a: u8, b: u8) returns (z: u8) let z = mux(c, a, b); tel",
		"non-unif": "node main(a: u8) returns (z: u8) let z = a ^ 0x5A; tel",
	}
	for name, src := range cases {
		if _, err := CompileHorizontal(src, Options{Target: Ambit}); err == nil {
			t.Errorf("%s: accepted in horizontal layout", name)
		} else if name != "non-unif" && !strings.Contains(err.Error(), "vertical layout") {
			t.Errorf("%s: unhelpful error %v", name, err)
		}
	}
}

func TestHorizontalFewerOpsThanVertical(t *testing.T) {
	// The point of the layout: a bitwise kernel over u32 costs one gate
	// per operation instead of 32.
	src := "node main(a: u32, b: u32) returns (z: u32) let z = a & b; tel"
	h, err := CompileHorizontal(src, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Compile(src, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Prog().Ops)*8 > len(v.Prog().Ops) {
		t.Errorf("horizontal %d ops vs vertical %d: packing advantage lost",
			len(h.Prog().Ops), len(v.Prog().Ops))
	}
}
