package logic

import "testing"

// buildSteadyNet drives one Reset+build cycle over a fixed medium circuit
// with folding and CSE on — the steady-state interning loop the compile
// fast path runs per kernel. It deliberately never calls Net(), so every
// slice and the open-addressed intern table keep their capacity across
// cycles.
func buildSteadyNet(b *Builder) {
	b.Reset(BuilderOptions{Fold: true, CSE: true})
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
// all. A regression here (a map rebuilt per compile, an intern table
// cleared by reallocation, a negation cache regrown) shows up as a
// non-zero count.
func TestInternSteadyStateAllocs(t *testing.T) {
	b := NewBuilder(BuilderOptions{})
	b.Grow(1024)
	buildSteadyNet(b) // warm-up sizes every buffer
	if n := testing.AllocsPerRun(20, func() { buildSteadyNet(b) }); n != 0 {
		t.Fatalf("steady-state build allocates %.1f times per cycle, want 0", n)
	}
}

// TestInternTableRehashAndReset drives the table through several in-place
// rehashes (no Grow hint), checks every gate is still found afterwards, and
// checks that a Reset brings the logical size back down while the capacity
// stays: the next small net must not hash over the large net's table, and
// the next large one must not allocate.
func TestInternTableRehashAndReset(t *testing.T) {
	const n = 3000
	b := NewBuilder(BuilderOptions{CSE: true})
	build := func() []NodeID {
		b.Reset(BuilderOptions{CSE: true})
		ins := make([]NodeID, n+1)
		for i := range ins {
			ins[i] = b.Input("")
		}
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = b.And(ins[i], ins[i+1])
		}
		return ids
	}
	ids := build()
	gates := len(b.net.Gates)
	if slots := len(b.intern.slots); slots*3 < n*4 || slots > 4*n {
		t.Fatalf("%d gates interned in %d slots", n, slots)
	}
	for i, want := range ids {
		if got := b.And(b.net.Inputs[i+1], b.net.Inputs[i]); got != want {
			t.Fatalf("gate %d: second request returned node %d, first %d", i, got, want)
		}
	}
	if len(b.net.Gates) != gates {
		t.Fatalf("re-requesting every gate grew the net from %d to %d gates", gates, len(b.net.Gates))
	}
	grown := cap(b.intern.slots)

	b.Reset(BuilderOptions{CSE: true})
	if got := len(b.intern.slots); got != minInternSlots {
		t.Fatalf("reset table has %d logical slots, want %d", got, minInternSlots)
	}
	if cap(b.intern.slots) != grown {
		t.Fatalf("reset dropped the table's capacity: %d -> %d", grown, cap(b.intern.slots))
	}
	if allocs := testing.AllocsPerRun(5, func() {
		b.Reset(BuilderOptions{CSE: true})
		x := b.Input("")
		for i := 0; i < n; i++ {
			x = b.Not(x)
		}
	}); allocs != 0 {
		t.Fatalf("rebuilding within retained capacity allocates %.1f times", allocs)
	}
}
