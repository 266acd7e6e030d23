package logic

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"chopper/internal/isa"
)

// mergeBoth legalizes src for arch with folding on one scratch and returns
// the plain DCE copy and the merged one, both validated.
func mergeBoth(t *testing.T, src *Net, arch isa.Arch) (plain, merged *Net) {
	t.Helper()
	s := new(Scratch)
	l, err := s.Legalize(src, arch, BuilderOptions{Fold: true})
	if err != nil {
		t.Fatal(err)
	}
	plain = s.DCE(l)
	merged, _ = s.MergeDuals(l)
	for _, n := range []*Net{plain, merged} {
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := n.CheckGateSet(NativeGates(arch)); err != nil {
			t.Fatal(err)
		}
	}
	return plain, merged
}

// tras counts a net's triple-row activations: its AND, OR and MAJ gates.
func tras(n *Net) int {
	c := 0
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case GAnd, GOr, GMaj:
			c++
		}
	}
	return c
}

// sameOnRandomWords fails unless got computes want's outputs on random
// 64-lane words.
func sameOnRandomWords(t *testing.T, rng *rand.Rand, want, got *Net, name string) {
	t.Helper()
	for range 4 {
		in := make(map[string]uint64, len(want.InputNames))
		for _, name := range want.InputNames {
			in[name] = rng.Uint64()
		}
		w, err := want.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(g, w) {
			t.Fatalf("%s on %v: got %v, want %v", name, in, g, w)
		}
	}
}

// TestMergeDualsRule holds MergeDuals to its rule on the pair OR(a,b),
// AND(ā,b̄): it merges where NOT of a gate of the pair exists or where
// both gates have two or more consumers, leaves a one-shot pair without
// a NOT as DCE does, and folds XOR(ā,b̄) into XOR(a,b).
func TestMergeDualsRule(t *testing.T) {
	cases := []struct {
		name string
		// build adds the outputs to a folding builder over inputs a..d.
		build func(b *Builder, a, bb, c, d NodeID)
		// saved is how many activations the merge removes.
		saved int
	}{
		{"not of g exists", func(b *Builder, a, bb, c, d NodeID) {
			g := b.And(b.Not(a), b.Not(bb))
			b.Output("h", b.Or(a, bb))
			b.Output("ng", b.Not(g))
			b.Output("gc", b.And(g, c))
		}, 1},
		{"both used twice", func(b *Builder, a, bb, c, d NodeID) {
			h, g := b.Or(a, bb), b.And(b.Not(a), b.Not(bb))
			b.Output("hc", b.And(h, c))
			b.Output("hd", b.And(h, d))
			b.Output("gc", b.Or(g, c))
			b.Output("gd", b.Or(g, d))
		}, 1},
		{"mirror, both used twice", func(b *Builder, a, bb, c, d NodeID) {
			h, g := b.And(a, bb), b.Or(b.Not(a), b.Not(bb))
			b.Output("hc", b.Or(h, c))
			b.Output("hd", b.Or(h, d))
			b.Output("gc", b.And(g, c))
			b.Output("gd", b.And(g, d))
		}, 1},
		{"one-shot pair", func(b *Builder, a, bb, c, d NodeID) {
			b.Output("hc", b.And(b.Or(a, bb), c))
			b.Output("gd", b.Or(b.And(b.Not(a), b.Not(bb)), d))
		}, 0},
		{"one-shot g", func(b *Builder, a, bb, c, d NodeID) {
			h := b.Or(a, bb)
			b.Output("hc", b.And(h, c))
			b.Output("hd", b.And(h, d))
			b.Output("gd", b.Or(b.And(b.Not(a), b.Not(bb)), d))
		}, 0},
	}
	rng := rand.New(rand.NewSource(49))
	for _, arch := range []isa.Arch{isa.Ambit, isa.SIMDRAM} {
		for _, tc := range cases {
			b := new(Scratch).Builder(BuilderOptions{Fold: true})
			tc.build(b, b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d"))
			src := b.Net()
			plain, merged := mergeBoth(t, src, arch)
			if got := tras(plain) - tras(merged); got != tc.saved {
				t.Errorf("%v %s: merge removed %d activations, want %d", arch, tc.name, got, tc.saved)
			}
			if tc.saved == 0 && !slices.Equal(plain.Gates, merged.Gates) {
				t.Errorf("%v %s: an unmerged net differs from its DCE copy", arch, tc.name)
			}
			sameOnRandomWords(t, rng, src, merged, arch.String()+" "+tc.name)
		}

		// Legalize expands XOR(ā,b̄) into a second copy of XOR(a,b)'s
		// gates; the merge folds it into the first whole.
		b := new(Scratch).Builder(BuilderOptions{Fold: true})
		x, y := b.Input("x"), b.Input("y")
		b.Output("p", b.Xor(x, y))
		b.Output("q", b.Xor(b.Not(x), b.Not(y)))
		src := b.Net()
		plain, merged := mergeBoth(t, src, arch)
		if plain.Outputs[0] == plain.Outputs[1] {
			t.Fatalf("%v: Legalize already shares XOR(ā,b̄) with XOR(a,b)", arch)
		}
		if merged.Outputs[0] != merged.Outputs[1] {
			t.Errorf("%v: merged XOR(ā,b̄) is node %d, XOR(a,b) node %d", arch, merged.Outputs[1], merged.Outputs[0])
		}
		sameOnRandomWords(t, rng, src, merged, arch.String()+" xor")
	}
}

// denseBlock builds a DenseNet-style block: each layer sums the popcounts
// of earlier 4-bit features XORed with random weights and keeps the top
// bits. A weight bit of one complements a feature bit, so layers hold
// XOR(ā,b̄) next to XOR(a,b) and chains of dual pairs.
func denseBlock(b *Builder, rng *rand.Rand, layers int) *Net {
	feats := []Word{b.InputWord("x", 4)}
	for range layers {
		var acc Word
		for _, f := range feats {
			pc := b.Extend(b.PopCount(b.BitwiseXor(f, b.ConstWord(uint64(rng.Intn(16)), 4))), 8, false)
			if acc == nil {
				acc = pc
			} else {
				acc = b.Add(acc, pc)
			}
		}
		feats = append(feats, b.ShiftRight(acc, 3, false)[:4])
	}
	b.OutputWord("y", feats[len(feats)-1])
	return b.Net()
}

// TestMergeDualsPreserves holds merged nets to their source on random
// 64-lane words, over random nets that complement their operands often
// enough to hold dual pairs and DenseNet-style blocks, on every target.
// A merged net is still structurally hashed: no two of its gates are
// equal.
func TestMergeDualsPreserves(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	merges := 0
	for seed := range 200 {
		b := new(Scratch).Builder(BuilderOptions{Fold: true})
		var src *Net
		if seed%10 == 0 {
			src = denseBlock(b, rng, 2+seed/40)
		} else {
			nodes := []NodeID{b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d")}
			pick := func() NodeID {
				x := nodes[rng.Intn(len(nodes))]
				if rng.Intn(3) == 0 {
					x = b.Not(x)
				}
				return x
			}
			for range 40 {
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
			for o := range 6 {
				b.Output(string(rune('p'+o)), nodes[len(nodes)-1-rng.Intn(20)])
			}
			src = b.Net()
		}
		for _, arch := range isa.AllArchs {
			plain, merged := mergeBoth(t, src, arch)
			if len(merged.Gates) < len(plain.Gates) {
				merges++
			}
			sameOnRandomWords(t, rng, src, merged, arch.String())
			seen := make(map[Gate]bool, len(merged.Gates))
			for i, g := range merged.Gates {
				if g.Kind != GInput && seen[g] {
					t.Fatalf("%v seed %d: merged gate %d %v is a duplicate", arch, seed, i, g)
				}
				seen[g] = true
			}
		}
	}
	if merges == 0 {
		t.Fatal("no random net merged: the property test sees no dual pair")
	}
	t.Logf("%d of %d merged nets shrank", merges, 200*len(isa.AllArchs))
}

// TestMergeDualsNeedsItsBuilder: the pass reads the builder's index, so a
// net the scratch did not just legalize is a caller's error.
func TestMergeDualsNeedsItsBuilder(t *testing.T) {
	b := new(Scratch).Builder(BuilderOptions{Fold: true})
	b.Output("z", b.And(b.Input("x"), b.Input("y")))
	s := new(Scratch)
	l, err := s.Legalize(b.Net(), isa.Ambit, BuilderOptions{Fold: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MergeDuals accepted a DCE copy")
		}
	}()
	s.MergeDuals(s.DCE(l))
}

// TestMergeDualsAllocs: on a warm scratch the merge allocates what DCE's
// copy does and nothing more.
func TestMergeDualsAllocs(t *testing.T) {
	b := new(Scratch).Builder(BuilderOptions{Fold: true})
	x := b.InputWord("x", 16)
	b.OutputWord("z", b.Add(b.PopCount(x), b.PopCount(b.BitwiseNot(x))))
	src := b.Net()
	s := new(Scratch)
	run := func(merge bool) func() {
		return func() {
			l, err := s.Legalize(src, isa.Ambit, BuilderOptions{Fold: true})
			if err != nil {
				t.Fatal(err)
			}
			if merge {
				s.MergeDuals(l)
			} else {
				s.DCE(l)
			}
		}
	}
	run(true)()
	plain, merged := testing.AllocsPerRun(20, run(false)), testing.AllocsPerRun(20, run(true))
	if merged != plain {
		t.Fatalf("legalize + merge allocates %.1f times, legalize + DCE %.1f", merged, plain)
	}
}
