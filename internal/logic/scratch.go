package logic

import "unsafe"

// Scratch is the logic package's share of a compile workspace: one
// Builder (gate slice, interning table, negation caches) and the dense
// per-node tables the net rewrites walk — legalization's old-to-new id
// map, DCE's mark/remap/stack, TMR's three replica maps — plus a gate
// buffer for nets that live only between two passes. A caller that keeps
// a Scratch across compiles re-grows none of it.
//
// Every method resets what it uses on entry and never on exit, so a
// Scratch abandoned by a failed or panicking pass is safe to reuse. The
// package-level Legalize, Net.DCE and TMR run on a Scratch of their own;
// on a shared Scratch, results that alias it are marked below. The zero
// value is ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	b Builder

	temp  []Gate   // DCETemp's output
	remap []NodeID // Legalize: source id -> rebuilt id
	dce   dceScratch
	rep   [3][]NodeID // TMR: source id -> replica id
}

// Builder returns the scratch's builder, reset to opts. The net it builds
// stays valid until the next Builder or Legalize call on this scratch.
func (s *Scratch) Builder(opts BuilderOptions) *Builder {
	s.b.Reset(opts)
	return &s.b
}

// Bytes is the storage the scratch retains, for a workspace's size
// ceiling. Name strings are not counted (they belong to the nets).
func (s *Scratch) Bytes() int {
	const (
		gate = int(unsafe.Sizeof(Gate{}))
		id   = int(unsafe.Sizeof(NodeID(0)))
		str  = int(unsafe.Sizeof(""))
	)
	n := &s.b.net
	return (cap(n.Gates)+cap(s.temp))*gate +
		cap(s.b.intern.slots)*int(unsafe.Sizeof(internSlot{})) +
		(cap(n.Inputs)+cap(n.Outputs)+cap(s.b.nots)+cap(s.b.notOf)+cap(s.remap)+
			cap(s.dce.remap)+cap(s.dce.stack)+cap(s.rep[0])+cap(s.rep[1])+cap(s.rep[2]))*id +
		(cap(n.InputNames)+cap(n.OutputNames))*str +
		cap(s.dce.live)
}

// InternSlots is the logical size of the builder's interning table as
// the last build left it (a test hook for the table-follows-the-net rule).
func (s *Scratch) InternSlots() int { return len(s.b.intern.slots) }
