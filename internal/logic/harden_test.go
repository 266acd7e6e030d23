package logic

import (
	"math/rand"
	"testing"

	"chopper/internal/isa"
)

// buildAdder4 constructs a 4-bit ripple adder net legalized for the Ambit
// gate set (AND/OR/NOT).
func buildAdder4(t *testing.T) *Net {
	t.Helper()
	b := new(Scratch).Builder(BuilderOptions{Fold: true, CSE: true})
	a := b.InputWord("a", 4)
	c := b.InputWord("b", 4)
	b.OutputWord("z", b.Add(a, c))
	leg, err := Legalize(b.Net(), isa.Ambit, BuilderOptions{Fold: true, CSE: true})
	if err != nil {
		t.Fatal(err)
	}
	return leg.DCE()
}

func TestTMRPreservesSemantics(t *testing.T) {
	for _, arch := range isa.AllArchs {
		gs := NativeGates(arch)
		base := buildAdder4(t)
		leg, err := Legalize(base, arch, BuilderOptions{Fold: true, CSE: true})
		if err != nil {
			t.Fatal(err)
		}
		leg = leg.DCE()
		hard, err := TMR(leg, gs)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if err := hard.Validate(); err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if err := hard.CheckGateSet(gs); err != nil {
			t.Fatalf("%v: TMR output not legal: %v", arch, err)
		}
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 20; trial++ {
			in := make(map[string]uint64, len(leg.InputNames))
			for _, name := range leg.InputNames {
				in[name] = rng.Uint64()
			}
			want, err := leg.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := hard.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			for name, w := range want {
				if got[name] != w {
					t.Fatalf("%v: output %s = %#x, want %#x", arch, name, got[name], w)
				}
			}
		}
	}
}

// The whole point of TMR is that replicas are structurally independent:
// the hardened net must carry roughly three copies of the computation plus
// the votes — CSE must not have merged them back.
func TestTMRTriplicatesGates(t *testing.T) {
	leg := buildAdder4(t)
	hard, err := TMR(leg, NativeGates(isa.Ambit))
	if err != nil {
		t.Fatal(err)
	}
	minWant := 3 * leg.OpGates()
	if hard.OpGates() < minWant {
		t.Fatalf("hardened net has %d op gates, want >= 3x%d", hard.OpGates(), leg.OpGates())
	}
	if len(hard.Inputs) != len(leg.Inputs) {
		t.Fatalf("inputs %d, want %d (inputs are shared, not triplicated)", len(hard.Inputs), len(leg.Inputs))
	}
	if len(hard.Outputs) != len(leg.Outputs) {
		t.Fatalf("outputs %d, want %d", len(hard.Outputs), len(leg.Outputs))
	}
}

// Corrupting any single replica gate must be outvoted at every output.
func TestTMRVoteMasksSingleReplicaFault(t *testing.T) {
	leg := buildAdder4(t)
	hard, err := TMR(leg, NativeGates(isa.Ambit))
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]uint64{}
	rng := rand.New(rand.NewSource(7))
	for _, name := range hard.InputNames {
		in[name] = rng.Uint64()
	}
	want, err := hard.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	// Replay evaluation with one gate's value flipped, for every replica
	// computation gate. TMR appends vote gates after all replicas, and
	// the and/or vote expansion of each output occupies the four ids
	// ending at the output node, so everything strictly below the
	// smallest output cone is replica computation.
	voteZone := len(hard.Gates)
	for _, o := range hard.Outputs {
		if start := int(o) - 3; start < voteZone {
			voteZone = start
		}
	}
	faulted := 0
	for g := 0; g < voteZone; g++ {
		switch hard.Gates[g].Kind {
		case GInput, GConst0, GConst1:
			continue
		}
		got, err := hard.EvalFaulty(in, NodeID(g), 1<<uint(g%64))
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			if got[name] != w {
				t.Fatalf("single fault at replica gate %d leaked to output %s: %#x want %#x", g, name, got[name], w)
			}
		}
		faulted++
	}
	if faulted == 0 {
		t.Fatal("no replica gates exercised")
	}
}
