package logic

import (
	"fmt"
	"math/bits"
)

// BuilderOptions control the local simplifications the Builder applies as
// gates are created. CHOPPER-bitslice (the no-optimization variant in the
// paper's breakdown) disables constant folding; structural hashing is part
// of bit-slicing itself (shared sub-expressions in the dataflow graph stay
// shared) and remains on in every variant.
type BuilderOptions struct {
	// Fold enables constant folding and algebraic identities
	// (x&0=0, x|1=1, ~~x=x, maj with constant arm, ...). This is the
	// builder-level half of OBS-2 "bit-sliced instruction selection":
	// exploiting bit-level patterns such as sparsity of constant operands.
	Fold bool
	// CSE enables structural hashing (identical gates share one node).
	CSE bool
	// Target, when non-nil, restricts fold rewrites to gates the target
	// architecture can execute; used when (re)building during
	// legalization so simplification never reintroduces foreign gates.
	Target *GateSet
}

// Builder constructs Nets incrementally. The structural-hashing and
// negation caches live in dense, reusable storage (an open-addressed
// interning table and NodeID-indexed slices) rather than Go maps, and a
// Reset keeps every buffer's capacity, so a retained builder (see Scratch)
// compiles in steady state without per-gate allocation.
type Builder struct {
	opts   BuilderOptions
	net    Net
	intern internTable
	zero   NodeID
	one    NodeID
	// nots[x] is the cached NOT of node x (for ~~x = x); notOf[id] is the
	// node id negates. None when absent; maintained only under Fold, with
	// length kept equal to len(net.Gates).
	nots  []NodeID
	notOf []NodeID
}

// internTable is an open-addressed (linear probing, power-of-two sized)
// hash table interning computation gates for CSE. A slot is 8 bytes — the
// node id and half of the gate's hash — and a matching fingerprint is
// confirmed against the gate itself, so the table holds no copy of the
// key. len(slots) is the logical size and follows the net being built;
// cap(slots) is whatever the largest net so far needed and is kept. A
// retained table must not hash across its high-water capacity: every
// probe of a sparse table is a cache miss, which is the cost the table
// exists to avoid.
type internTable struct {
	slots []internSlot
	n     int
}

type internSlot struct {
	idP1 int32  // NodeID + 1; 0 marks an empty slot
	fp   uint32 // high half of hashGate(kind, args)
}

// minInternSlots is the logical size a reset table starts from.
const minInternSlots = 256

func hashGate(kind GateKind, a [3]NodeID) uint64 {
	h := uint64(kind) + 1
	h = h*0x9E3779B97F4A7C15 + uint64(uint32(a[0]))
	h = h*0x9E3779B97F4A7C15 + uint64(uint32(a[1]))
	h = h*0x9E3779B97F4A7C15 + uint64(uint32(a[2]))
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// lookup returns the interned id for (kind, args) among gates, or None
// with the probe slot where it belongs; h is hashGate(kind, args).
func (t *internTable) lookup(gates []Gate, h uint64, kind GateKind, args [3]NodeID) (NodeID, int) {
	fp := uint32(h >> 32)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for {
		s := t.slots[i]
		if s.idP1 == 0 {
			return None, int(i)
		}
		if s.fp == fp {
			if g := &gates[s.idP1-1]; g.Kind == kind && g.Args == args {
				return NodeID(s.idP1 - 1), int(i)
			}
		}
		i = (i + 1) & mask
	}
}

// place stores id under hash h at the first free slot of its probe run.
func (t *internTable) place(h uint64, id NodeID) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].idP1 != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = internSlot{idP1: int32(id) + 1, fp: uint32(h >> 32)}
}

// resize empties the table at a logical size of size slots (a power of
// two), reusing retained capacity: only the slots about to be probed are
// cleared, never the high-water capacity.
func (t *internTable) resize(size int) {
	if cap(t.slots) < size {
		t.slots = make([]internSlot, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.n = 0
}

func nextPow2(n int) int {
	if n < 16 {
		return 16
	}
	return 1 << bits.Len(uint(n-1))
}

// NewBuilder creates a builder with the given options.
func NewBuilder(opts BuilderOptions) *Builder {
	b := &Builder{}
	b.Reset(opts)
	return b
}

// NewOptBuilder returns a builder with all local simplifications enabled.
func NewOptBuilder() *Builder { return NewBuilder(BuilderOptions{Fold: true, CSE: true}) }

// Reset re-initializes the builder for a fresh net under opts, keeping
// every internal buffer's capacity. It invalidates the net a previous
// Net call returned, which shares those buffers.
func (b *Builder) Reset(opts BuilderOptions) {
	b.opts = opts
	b.net.Gates = b.net.Gates[:0]
	b.net.Inputs = b.net.Inputs[:0]
	b.net.InputNames = b.net.InputNames[:0]
	b.net.Outputs = b.net.Outputs[:0]
	b.net.OutputNames = b.net.OutputNames[:0]
	b.net.inIdx = nil
	b.net.inDup = ""
	b.intern.resize(minInternSlots)
	b.zero, b.one = None, None
	b.nots = b.nots[:0]
	b.notOf = b.notOf[:0]
}

// Grow hints the expected gate count, pre-sizing the gate slice and the
// interning table so building up to that many gates neither reallocates
// nor rehashes. The table's logical size follows the hint, not the
// capacity earlier nets left behind.
func (b *Builder) Grow(gates int) {
	if cap(b.net.Gates) < gates {
		g := make([]Gate, len(b.net.Gates), gates)
		copy(g, b.net.Gates)
		b.net.Gates = g
	}
	if want := nextPow2(gates * 2); len(b.intern.slots) < want {
		b.rehash(want)
	}
	if b.opts.Fold && cap(b.nots) < gates {
		ns := make([]NodeID, len(b.nots), gates)
		copy(ns, b.nots)
		b.nots = ns
		no := make([]NodeID, len(b.notOf), gates)
		copy(no, b.notOf)
		b.notOf = no
	}
}

// rehash rebuilds the interning table at a logical size of size slots.
// Under CSE the table holds exactly the net's non-input gates, so it is
// rebuilt from the gate list, in place, with no second table.
func (b *Builder) rehash(size int) {
	b.intern.resize(size)
	if !b.opts.CSE {
		return
	}
	for id := range b.net.Gates {
		if g := &b.net.Gates[id]; g.Kind != GInput {
			b.intern.place(hashGate(g.Kind, g.Args), NodeID(id))
			b.intern.n++
		}
	}
}

var noArgs = [3]NodeID{None, None, None}

// raw appends (or, under CSE, interns) the gate; unused args are None.
func (b *Builder) raw(kind GateKind, args [3]NodeID) NodeID {
	g := Gate{Kind: kind, Args: args}
	if b.opts.CSE && kind != GInput {
		h := hashGate(kind, g.Args)
		id, slot := b.intern.lookup(b.net.Gates, h, kind, g.Args)
		if id != None {
			return id
		}
		id = NodeID(len(b.net.Gates))
		b.append(g)
		// Past 3/4 load the table doubles; the rebuild picks the new gate
		// up from the gate list.
		t := &b.intern
		if (t.n+1)*4 >= len(t.slots)*3 {
			b.rehash(len(t.slots) * 2)
		} else {
			t.slots[slot] = internSlot{idP1: int32(id) + 1, fp: uint32(h >> 32)}
			t.n++
		}
		return id
	}
	id := NodeID(len(b.net.Gates))
	b.append(g)
	return id
}

// append adds the gate, keeping the negation caches in step under Fold.
func (b *Builder) append(g Gate) {
	b.net.Gates = append(b.net.Gates, g)
	if b.opts.Fold {
		b.nots = append(b.nots, None)
		b.notOf = append(b.notOf, None)
	}
}

// Input declares a fresh named input bit.
func (b *Builder) Input(name string) NodeID {
	id := b.raw(GInput, noArgs)
	b.net.Inputs = append(b.net.Inputs, id)
	b.net.InputNames = append(b.net.InputNames, name)
	return id
}

// Const returns the constant node for v (shared).
func (b *Builder) Const(v bool) NodeID {
	if v {
		if b.one == None {
			b.one = b.raw(GConst1, noArgs)
		}
		return b.one
	}
	if b.zero == None {
		b.zero = b.raw(GConst0, noArgs)
	}
	return b.zero
}

func (b *Builder) allowAnd() bool { return b.opts.Target == nil || b.opts.Target.And }
func (b *Builder) allowOr() bool  { return b.opts.Target == nil || b.opts.Target.Or }

// isNotOf reports whether y is the negation of x (in either direction).
func (b *Builder) isNotOf(x, y NodeID) bool {
	if n := b.notOf[x]; n == y {
		return true
	}
	if n := b.notOf[y]; n == x {
		return true
	}
	return false
}

func (b *Builder) isConst(id NodeID) (val, ok bool) {
	switch b.net.Gates[id].Kind {
	case GConst0:
		return false, true
	case GConst1:
		return true, true
	}
	return false, false
}

// Not returns ~x.
func (b *Builder) Not(x NodeID) NodeID {
	if b.opts.Fold {
		if v, ok := b.isConst(x); ok {
			return b.Const(!v)
		}
		if orig := b.notOf[x]; orig != None { // ~~y = y
			return orig
		}
		if n := b.nots[x]; n != None {
			return n
		}
	}
	id := b.raw(GNot, [3]NodeID{x, None, None})
	if b.opts.Fold {
		b.nots[x] = id
		b.notOf[id] = x
	}
	return id
}

// normalize2 orders commutative arguments for better CSE hits.
func normalize2(x, y NodeID) (NodeID, NodeID) {
	if y < x {
		return y, x
	}
	return x, y
}

// And returns x & y.
func (b *Builder) And(x, y NodeID) NodeID {
	if b.opts.Fold {
		if v, ok := b.isConst(x); ok {
			if !v {
				return b.Const(false)
			}
			return y
		}
		if v, ok := b.isConst(y); ok {
			if !v {
				return b.Const(false)
			}
			return x
		}
		if x == y {
			return x
		}
		if b.isNotOf(x, y) {
			return b.Const(false)
		}
	}
	x, y = normalize2(x, y)
	return b.raw(GAnd, [3]NodeID{x, y, None})
}

// Or returns x | y.
func (b *Builder) Or(x, y NodeID) NodeID {
	if b.opts.Fold {
		if v, ok := b.isConst(x); ok {
			if v {
				return b.Const(true)
			}
			return y
		}
		if v, ok := b.isConst(y); ok {
			if v {
				return b.Const(true)
			}
			return x
		}
		if x == y {
			return x
		}
		if b.isNotOf(x, y) {
			return b.Const(true)
		}
	}
	x, y = normalize2(x, y)
	return b.raw(GOr, [3]NodeID{x, y, None})
}

// Xor returns x ^ y.
func (b *Builder) Xor(x, y NodeID) NodeID {
	if b.opts.Fold {
		if v, ok := b.isConst(x); ok {
			if v {
				return b.Not(y)
			}
			return y
		}
		if v, ok := b.isConst(y); ok {
			if v {
				return b.Not(x)
			}
			return x
		}
		if x == y {
			return b.Const(false)
		}
		if b.isNotOf(x, y) {
			return b.Const(true)
		}
	}
	x, y = normalize2(x, y)
	return b.raw(GXor, [3]NodeID{x, y, None})
}

// Maj returns the 3-input majority MAJ(x, y, z).
func (b *Builder) Maj(x, y, z NodeID) NodeID {
	if b.opts.Fold {
		// A constant arm reduces majority to AND/OR (kept as MAJ when
		// the target architecture has no native AND/OR: a MAJ with a
		// C-group operand row *is* that architecture's AND/OR).
		if _, ok := b.isConst(x); ok {
			x, z = z, x
		} else if _, ok := b.isConst(y); ok {
			y, z = z, y
		}
		if v, ok := b.isConst(z); ok {
			if v && b.allowOr() {
				return b.Or(x, y)
			}
			if !v && b.allowAnd() {
				return b.And(x, y)
			}
			// Keep the constant in the last arm and fall through to
			// gate creation (identity folds below still apply).
		}
		if x == y {
			return x
		}
		if x == z {
			return x
		}
		if y == z {
			return y
		}
		// maj(x, ~x, z) = z
		if b.isNotOf(x, y) {
			return z
		}
		if b.isNotOf(x, z) {
			return y
		}
		if b.isNotOf(y, z) {
			return x
		}
	}
	// Sort all three for CSE (majority is fully symmetric).
	if y < x {
		x, y = y, x
	}
	if z < y {
		y, z = z, y
	}
	if y < x {
		x, y = y, x
	}
	return b.raw(GMaj, [3]NodeID{x, y, z})
}

// Mux returns c ? t : f, built from AND/OR/NOT.
func (b *Builder) Mux(c, t, f NodeID) NodeID {
	if b.opts.Fold {
		if v, ok := b.isConst(c); ok {
			if v {
				return t
			}
			return f
		}
		if t == f {
			return t
		}
	}
	return b.Or(b.And(c, t), b.And(b.Not(c), f))
}

// Output registers node id as a named output.
func (b *Builder) Output(name string, id NodeID) {
	if id < 0 || int(id) >= len(b.net.Gates) {
		panic(fmt.Sprintf("logic: output %q references invalid node %d", name, id))
	}
	b.net.Outputs = append(b.net.Outputs, id)
	b.net.OutputNames = append(b.net.OutputNames, name)
}

// Net finalizes and returns the constructed net (with its input index
// precomputed). The net shares the builder's storage: it stays valid until
// the builder's next Reset, and the builder must not create further gates.
func (b *Builder) Net() *Net {
	n := b.net
	n.buildInputIndex()
	return &n
}
