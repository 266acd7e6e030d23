package logic

import "testing"

// buildSteadyNet drives one Reset+build cycle over a fixed medium circuit
// with folding on — the steady-state interning loop the compile
// fast path runs per kernel. It deliberately never calls Net(), so every
// slice and the structural-hashing buckets keep their capacity across
// cycles.
func buildSteadyNet(b *Builder) {
	b.Reset(BuilderOptions{Fold: true})
	var ins [64]NodeID
	for i := range ins {
		ins[i] = b.Input("")
	}
	acc := b.Const(false)
	carry := b.Const(true)
	for i := 0; i < 63; i++ {
		x := b.Xor(ins[i], ins[i+1])
		a := b.And(x, acc)
		m := b.Maj(x, a, carry)
		acc = b.Or(acc, m)
		carry = b.Not(m)
		// Re-derive a shared subexpression so the CSE hit path runs too.
		_ = b.Xor(ins[i], ins[i+1])
	}
	b.Output("acc", acc)
	b.Output("carry", carry)
}

// TestInternSteadyStateAllocs is the PR's allocation ceiling: once a
// builder has warmed up, repeated Reset+build cycles must not allocate at
// all. A regression here (a map rebuilt per compile, hashing buckets
// cleared by reallocation, a negation cache regrown) shows up as a
// non-zero count.
func TestInternSteadyStateAllocs(t *testing.T) {
	b := new(Scratch).Builder(BuilderOptions{})
	b.Grow(1024)
	buildSteadyNet(b) // warm-up sizes every buffer
	if n := testing.AllocsPerRun(20, func() { buildSteadyNet(b) }); n != 0 {
		t.Fatalf("steady-state build allocates %.1f times per cycle, want 0", n)
	}
}
