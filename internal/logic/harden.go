package logic

import "fmt"

// TMR returns a triple-modular-redundancy hardened version of a net that
// is already legalized for the gate set gs: every computation gate is
// triplicated into three structurally independent replicas (inputs and
// constants stay shared — they are host-supplied or architecturally
// maintained), and each output is the bitwise majority vote of its three
// replicas. A transient fault that corrupts any single intermediate value
// — one TRA result, one copied row — lands in exactly one replica and is
// outvoted; the unhardened net has no such slack.
//
// The vote is emitted as a native MAJ gate when gs has one (SIMDRAM), and
// as the and/or expansion maj(a,b,c) = (a&b)|(c&(a|b)) otherwise, so the
// result needs no re-legalization. Replicas are built without structural
// hashing: CSE would merge the three copies back into one and undo the
// redundancy.
//
// The protection boundary is the computation: the voter itself and the
// final read-out, like any TMR voter, remain single points of failure,
// and a corrupted shared input row is common-mode (it feeds all three
// replicas). See docs/RELIABILITY.md for the measured trade-offs.
func TMR(n *Net, gs GateSet) (*Net, error) { return new(Scratch).TMR(n, gs) }

// TMR is the package-level TMR on the scratch's replica maps; the result
// is the caller's.
func (s *Scratch) TMR(n *Net, gs GateSet) (*Net, error) {
	if err := n.CheckGateSet(gs); err != nil {
		return nil, fmt.Errorf("logic: TMR input %w", err)
	}
	out := &Net{
		// Worst case: every gate triplicated plus a 4-gate expanded vote
		// per output; one allocation up front instead of append growth.
		Gates:       make([]Gate, 0, 3*len(n.Gates)+4*len(n.Outputs)),
		InputNames:  append([]string(nil), n.InputNames...),
		OutputNames: append([]string(nil), n.OutputNames...),
	}
	add := func(kind GateKind, args ...NodeID) NodeID {
		g := Gate{Kind: kind, Args: [3]NodeID{None, None, None}}
		copy(g.Args[:], args)
		id := NodeID(len(out.Gates))
		out.Gates = append(out.Gates, g)
		return id
	}

	// rep[r][old] is replica r's node for the original node old. Shared
	// nodes (inputs, constants) map to the same id in all three replicas.
	rep := &s.rep
	for r := range rep {
		if cap(rep[r]) < len(n.Gates) {
			rep[r] = make([]NodeID, len(n.Gates))
		}
		rep[r] = rep[r][:len(n.Gates)]
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		switch g.Kind {
		case GInput, GConst0, GConst1:
			id := add(g.Kind)
			for r := range rep {
				rep[r][i] = id
			}
		default:
			var args [3]NodeID
			ar := g.Kind.Arity()
			for r := range rep {
				for a := 0; a < ar; a++ {
					args[a] = rep[r][g.Args[a]]
				}
				rep[r][i] = add(g.Kind, args[:ar]...)
			}
		}
	}

	out.Inputs = make([]NodeID, len(n.Inputs))
	for i, in := range n.Inputs {
		out.Inputs[i] = rep[0][in]
	}

	vote := func(a, b, c NodeID) NodeID {
		if gs.Maj {
			return add(GMaj, a, b, c)
		}
		ab := add(GAnd, a, b)
		aob := add(GOr, a, b)
		return add(GOr, ab, add(GAnd, c, aob))
	}
	out.Outputs = make([]NodeID, len(n.Outputs))
	for i, o := range n.Outputs {
		a, b, c := rep[0][o], rep[1][o], rep[2][o]
		if a == b && b == c {
			// Shared node (input or constant passed through): no replicas
			// exist to disagree, so a vote would be dead weight.
			out.Outputs[i] = a
			continue
		}
		out.Outputs[i] = vote(a, b, c)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("logic: TMR produced invalid net: %w", err)
	}
	out.buildInputIndex()
	return out, nil
}
