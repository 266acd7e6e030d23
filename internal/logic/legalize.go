package logic

import (
	"fmt"

	"chopper/internal/isa"
)

// GateSet is a target's native gate set. Every target executes AND and OR
// (a triple-row activation beside a C-group control row) and NOT
// (dual-contact cells), and none executes XOR; they differ in whether a
// triple-row activation over three *data* rows, MAJ, is native. Inputs and
// constants are always representable: constants live in the C-group rows.
type GateSet struct {
	Maj bool
}

// NativeGates returns the gate set of arch.
//
// Ambit and ELP2IM (which implements the same gates with cheaper
// row-buffer-level operations) have AND/OR/NOT only. SIMDRAM programs the
// triple-row activation with three data operands, adding MAJ — the source
// of its advantage on carry chains (a full-adder carry is one MAJ instead
// of four AND/OR gates).
func NativeGates(arch isa.Arch) GateSet {
	switch arch {
	case isa.Ambit, isa.ELP2IM:
		return GateSet{}
	case isa.SIMDRAM:
		return GateSet{Maj: true}
	}
	panic(fmt.Sprintf("logic: unknown arch %v", arch))
}

// Legalize rewrites the net so that every computation gate belongs to the
// architecture's native gate set, preserving I/O names and semantics. The
// builder options control whether the rewrite may simplify as it goes (they
// should match the optimization level the net was built with, so the
// no-optimization compiler variant stays unoptimized).
func Legalize(n *Net, arch isa.Arch, opts BuilderOptions) (*Net, error) {
	return new(Scratch).Legalize(n, arch, opts)
}

// Legalize is the package-level Legalize on the scratch's builder and id
// map. The result shares the builder's storage: it stays valid until the
// next Builder or Legalize call on this scratch. n must not be such a net
// itself (a DCE or DCETemp copy is fine).
//
// The rewrite declares inputs first, so the rebuilt net keeps the original
// input order and names.
func (s *Scratch) Legalize(n *Net, arch isa.Arch, opts BuilderOptions) (*Net, error) {
	gs := NativeGates(arch)
	b := s.Builder(opts)
	// XOR, and MAJ off SIMDRAM, expand to AND/OR/NOT: 1.0 to 2.6x the
	// source.
	b.Grow(2 * len(n.Gates))
	if cap(s.remap) < len(n.Gates) {
		s.remap = make([]NodeID, len(n.Gates))
	}
	remap := s.remap[:len(n.Gates)]
	for i := range remap {
		remap[i] = None
	}
	for i, in := range n.Inputs {
		remap[in] = b.Input(n.InputNames[i])
	}
	for i := range n.Gates {
		if remap[i] != None {
			continue
		}
		g := &n.Gates[i]
		var id NodeID
		switch g.Kind {
		case GInput:
			return nil, fmt.Errorf("logic: input node %d not listed in Inputs", i)
		case GConst0:
			id = b.Const(false)
		case GConst1:
			id = b.Const(true)
		case GNot:
			id = b.Not(remap[g.Args[0]])
		case GAnd:
			id = b.And(remap[g.Args[0]], remap[g.Args[1]])
		case GOr:
			id = b.Or(remap[g.Args[0]], remap[g.Args[1]])
		case GXor:
			x, y := remap[g.Args[0]], remap[g.Args[1]]
			id = b.And(b.Or(x, y), b.Not(b.And(x, y)))
		case GMaj:
			x, y, z := remap[g.Args[0]], remap[g.Args[1]], remap[g.Args[2]]
			if gs.Maj {
				id = b.Maj(x, y, z)
			} else {
				id = b.Or(b.And(x, y), b.And(z, b.Or(x, y)))
			}
		default:
			return nil, fmt.Errorf("logic: gate %d has unknown kind %d", i, int(g.Kind))
		}
		remap[i] = id
	}
	for i, o := range n.Outputs {
		b.Output(n.OutputNames[i], remap[o])
	}
	out := b.Net()
	if err := out.CheckGateSet(gs); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckGateSet verifies every computation gate is native to gs: no XOR,
// and MAJ only where gs has it.
func (n *Net) CheckGateSet(gs GateSet) error {
	for i := range n.Gates {
		if k := n.Gates[i].Kind; k == GXor || k == GMaj && !gs.Maj {
			return fmt.Errorf("logic: gate %d (%s) not in native gate set", i, k)
		}
	}
	return nil
}
