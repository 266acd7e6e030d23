// Package logic defines the bit-sliced intermediate representation at the
// heart of CHOPPER: a net of 1-bit logic gates (AND/OR/NOT/XOR/MAJ plus
// constants), produced by bit-slicing the multi-bit dataflow graph and
// consumed by the PUD back-end.
//
// The package provides:
//
//   - the Net/Gate IR with structural hashing and constant folding (Builder);
//   - a synthesis library for multi-bit arithmetic over bit Words (ripple
//     adders, comparators, shifters, multipliers, multiplexers);
//   - functional evaluation of nets over 64-lane bundles (Eval), used
//     pervasively by the test suite;
//   - legalization rewrites restricting a net to the gate set a given PUD
//     architecture can execute natively.
package logic

import "fmt"

// GateKind enumerates gate types.
type GateKind uint8

const (
	GInput GateKind = iota // named 1-bit input (one bitslice of an operand)
	GConst0
	GConst1
	GNot
	GAnd
	GOr
	GXor
	GMaj
)

var gateNames = [...]string{"in", "const0", "const1", "not", "and", "or", "xor", "maj"}

func (k GateKind) String() string {
	if int(k) < len(gateNames) {
		return gateNames[k]
	}
	return fmt.Sprintf("gate?%d", int(k))
}

// Arity returns the number of arguments a gate kind takes.
func (k GateKind) Arity() int {
	switch k {
	case GInput, GConst0, GConst1:
		return 0
	case GNot:
		return 1
	case GAnd, GOr, GXor:
		return 2
	case GMaj:
		return 3
	}
	return 0
}

// NodeID indexes a gate within a Net. Gates are stored in topological order:
// every argument of gate i has id < i.
type NodeID int32

// None is the invalid node id.
const None NodeID = -1

// Gate is one node of the net.
type Gate struct {
	Kind GateKind
	Args [3]NodeID
}

// Net is a bit-level dataflow graph.
type Net struct {
	Gates []Gate

	// Inputs lists the GInput nodes in declaration order; InputNames gives
	// each one a stable name ("a[3]" = bit 3 of operand a).
	Inputs     []NodeID
	InputNames []string

	// Outputs lists the nodes whose values leave the net, with names.
	Outputs     []NodeID
	OutputNames []string

	// inIdx maps an input name to its position in Inputs, precomputed at
	// construction (Builder.Net, DCE, TMR) so Eval/EvalFaulty need not
	// rebuild it per call; inDup records the first duplicated input name.
	// Nets assembled by hand via struct literal leave inIdx nil and Eval
	// falls back to building the index locally.
	inIdx map[string]int
	inDup string
}

// buildInputIndex precomputes the input-name index (and the first
// duplicate, which Eval reports as an error exactly like the previous
// per-call construction did).
func (n *Net) buildInputIndex() {
	idx := make(map[string]int, len(n.InputNames))
	for i, name := range n.InputNames {
		if _, dup := idx[name]; dup {
			if n.inDup == "" {
				n.inDup = name
			}
			continue
		}
		idx[name] = i
	}
	n.inIdx = idx
}

// Counts tallies gates by kind.
func (n *Net) Counts() map[GateKind]int {
	m := make(map[GateKind]int)
	for i := range n.Gates {
		m[n.Gates[i].Kind]++
	}
	return m
}

// OpGates returns the number of "real" computation gates (everything except
// inputs and constants), the quantity that maps one-to-one onto in-DRAM
// computation steps.
func (n *Net) OpGates() int {
	c := 0
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case GInput, GConst0, GConst1:
		default:
			c++
		}
	}
	return c
}

// Validate checks structural invariants: topological argument order, arity,
// and output references.
func (n *Net) Validate() error {
	for i := range n.Gates {
		g := &n.Gates[i]
		ar := g.Kind.Arity()
		for a := 0; a < ar; a++ {
			if g.Args[a] < 0 || int(g.Args[a]) >= i {
				return fmt.Errorf("logic: gate %d (%s) arg %d = %d violates topological order", i, g.Kind, a, g.Args[a])
			}
		}
	}
	for idx, o := range n.Outputs {
		if o < 0 || int(o) >= len(n.Gates) {
			return fmt.Errorf("logic: output %d (%s) references node %d of %d", idx, n.OutputNames[idx], o, len(n.Gates))
		}
	}
	if len(n.Outputs) != len(n.OutputNames) || len(n.Inputs) != len(n.InputNames) {
		return fmt.Errorf("logic: name/node count mismatch")
	}
	for _, in := range n.Inputs {
		if in < 0 || int(in) >= len(n.Gates) || n.Gates[in].Kind != GInput {
			return fmt.Errorf("logic: input list references non-input node %d", in)
		}
	}
	return nil
}

// dceScratch holds the liveness mark, remap table, and DFS stack DCE
// needs, all sized to the gate count of the net being swept.
type dceScratch struct {
	live  []bool
	remap []NodeID
	stack []NodeID
}

func (s *dceScratch) reset(n int) {
	if cap(s.live) < n {
		s.live = make([]bool, n)
		s.remap = make([]NodeID, n)
	}
	s.live = s.live[:n]
	clear(s.live)
	s.remap = s.remap[:n]
	s.stack = s.stack[:0]
}

// DCE returns a copy of the net with gates unreachable from the outputs
// removed (inputs are always kept, preserving the input interface).
func (n *Net) DCE() *Net { return new(Scratch).DCE(n) }

// DCE is n.DCE() on the scratch's tables; the result is the caller's.
func (s *Scratch) DCE(n *Net) *Net { return s.sweep(n, nil) }

// DCETemp is DCE into the scratch's retained gate buffer, for a net that
// only feeds the next pass: the result is valid until the next DCETemp on
// this scratch.
func (s *Scratch) DCETemp(n *Net) *Net {
	out := s.sweep(n, s.temp[:0])
	s.temp = out.Gates
	return out
}

// sweep copies n's live gates into gates (reallocated when too small).
func (s *Scratch) sweep(n *Net, gates []Gate) *Net {
	d := &s.dce
	d.reset(len(n.Gates))
	live := d.live
	stack := d.stack
	for _, o := range n.Outputs {
		if live[o] {
			continue
		}
		live[o] = true
		stack = append(stack, o)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g := &n.Gates[v]
			for a := 0; a < g.Kind.Arity(); a++ {
				if arg := g.Args[a]; !live[arg] {
					live[arg] = true
					stack = append(stack, arg)
				}
			}
		}
	}
	d.stack = stack[:0]
	return s.copyOut(n, gates, nil)
}

// copyOut copies the gates the dce scratch marks live, and every input,
// into gates (reallocated when too small) in their order, renumbered.
// Under a non-nil rewrite (MergeDuals') a consumer reads the node that
// replaces its operand.
func (s *Scratch) copyOut(n *Net, gates []Gate, rw *dualScratch) *Net {
	live, remap := s.dce.live, s.dce.remap
	for _, in := range n.Inputs {
		live[in] = true
	}
	kept := 0
	for i := range live {
		if live[i] {
			kept++
		}
	}
	if cap(gates) < kept {
		gates = make([]Gate, 0, kept)
	}
	out := &Net{
		Gates:       gates,
		InputNames:  append([]string(nil), n.InputNames...),
		OutputNames: append([]string(nil), n.OutputNames...),
	}
	for i := range n.Gates {
		if !live[i] {
			remap[i] = None
			continue
		}
		g := n.Gates[i]
		for a := range g.Kind.Arity() {
			g.Args[a] = remap[rw.at(g.Args[a])]
		}
		remap[i] = NodeID(len(out.Gates))
		out.Gates = append(out.Gates, g)
	}
	out.Inputs = make([]NodeID, len(n.Inputs))
	for i, in := range n.Inputs {
		out.Inputs[i] = remap[in]
	}
	out.Outputs = make([]NodeID, len(n.Outputs))
	for i, o := range n.Outputs {
		out.Outputs[i] = remap[rw.at(o)]
	}
	out.buildInputIndex()
	return out
}

// String renders a compact summary.
func (n *Net) String() string {
	return fmt.Sprintf("net{gates=%d ops=%d in=%d out=%d}", len(n.Gates), n.OpGates(), len(n.Inputs), len(n.Outputs))
}
