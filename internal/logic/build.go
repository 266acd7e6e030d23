package logic

import (
	"fmt"
	"slices"
)

// BuilderOptions control the local simplifications the Builder applies as
// gates are created. CHOPPER-bitslice (the no-optimization variant in the
// paper's breakdown) disables constant folding; structural hashing is part
// of bit-slicing itself (shared sub-expressions in the dataflow graph stay
// shared), so every Builder applies it: identical gates share one node.
type BuilderOptions struct {
	// Fold enables constant folding and algebraic identities
	// (x&0=0, x|1=1, ~~x=x, maj with constant arm, ...). This is the
	// builder-level half of OBS-2 "bit-sliced instruction selection":
	// exploiting bit-level patterns such as sparsity of constant operands.
	Fold bool
	// CSE is accepted and ignored: structural hashing is always on.
	// benchmark/staged.go still sets it.
	CSE bool
}

// Builder constructs Nets incrementally. The structural-hashing and
// negation caches live in reusable storage indexed by NodeID, and a Reset
// keeps every buffer's capacity, so a retained builder (see Scratch)
// compiles in steady state without per-gate allocation.
//
// Structural hashing files each computation gate beside its newest
// operand, max(Args): buckets[k] holds the first four gates whose newest
// operand is node k. That node is almost always one created moments ago,
// so its bucket is still in cache, where a table hashed over the whole
// net misses on nearly every probe. A gate whose bucket is full goes to
// the over map, which a lookup reads only past a full bucket: an operand
// feeding hundreds of gates (a multiplier's broadcast bit) would make a
// per-node chain as long as its fanout.
type Builder struct {
	opts    BuilderOptions
	net     Net
	buckets []bucket
	over    map[Gate]NodeID
	// overPeak is the most gates over has held, for Scratch.Bytes.
	overPeak int
	zero     NodeID
	one      NodeID
	// nots[x] is the cached NOT of node x (for ~~x = x); notOf[id] is the
	// node id negates. None when absent; maintained only under Fold, with
	// length kept equal to len(net.Gates).
	nots  []NodeID
	notOf []NodeID
}

// bucket lists the gates filed under one node, in creation order. A gate
// is newer than its operands, so id 0 cannot be filed and marks the end.
type bucket [4]NodeID

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
	b.buckets = b.buckets[:0]
	clear(b.over)
	b.zero, b.one = None, None
	b.nots = b.nots[:0]
	b.notOf = b.notOf[:0]
}

// Grow hints the expected gate count, pre-sizing the gate slice and the
// per-node tables so building up to that many gates does not reallocate.
func (b *Builder) Grow(gates int) {
	n := max(0, gates-len(b.net.Gates))
	b.net.Gates = slices.Grow(b.net.Gates, n)
	b.buckets = slices.Grow(b.buckets, n)
	if b.opts.Fold {
		b.nots = slices.Grow(b.nots, n)
		b.notOf = slices.Grow(b.notOf, n)
	}
}

var noArgs = [3]NodeID{None, None, None}

// raw interns the gate; unused args are None.
// Inputs and constants have no operand to file under: inputs are never
// shared, and Const keeps one node per value itself.
func (b *Builder) raw(kind GateKind, args [3]NodeID) NodeID {
	g := Gate{Kind: kind, Args: args}
	id := NodeID(len(b.net.Gates))
	if k := max(args[0], args[1], args[2]); k != None {
		bk := &b.buckets[k]
		for i, e := range bk {
			if e == 0 {
				bk[i] = id // before append, which may move the buckets
				b.append(g)
				return id
			}
			if b.net.Gates[e] == g {
				return e
			}
		}
		if e, ok := b.over[g]; ok {
			return e
		}
		if b.over == nil {
			b.over = make(map[Gate]NodeID)
		}
		b.over[g] = id
		b.overPeak = max(b.overPeak, len(b.over))
	}
	b.append(g)
	return id
}

// find returns the interned gate equal to g (a computation gate), or
// None: raw's probe without the insert.
func (b *Builder) find(g Gate) NodeID {
	for _, e := range &b.buckets[max(g.Args[0], g.Args[1], g.Args[2])] {
		if e == 0 {
			return None
		}
		if b.net.Gates[e] == g {
			return e
		}
	}
	if e, ok := b.over[g]; ok && b.net.Gates[e] == g {
		return e
	}
	return None
}

// file indexes gate id under its current content, after an in-place
// rewrite changed it. The entry under its old content stays and matches
// no probe again, since a probe compares current contents.
func (b *Builder) file(id NodeID) {
	g := b.net.Gates[id]
	bk := &b.buckets[max(g.Args[0], g.Args[1], g.Args[2])]
	for i, e := range bk {
		if e == 0 {
			bk[i] = id
			return
		}
	}
	if b.over == nil {
		b.over = make(map[Gate]NodeID)
	}
	b.over[g] = id
	b.overPeak = max(b.overPeak, len(b.over))
}

// append adds the gate, keeping the per-node tables in step with it.
func (b *Builder) append(g Gate) {
	b.net.Gates = append(b.net.Gates, g)
	b.buckets = append(b.buckets, bucket{})
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

// complement returns x's existing complement under Fold: x's own NOT
// gate, or the node x negates. None when neither exists.
func (b *Builder) complement(x NodeID) NodeID {
	if n := b.nots[x]; n != None {
		return n
	}
	return b.notOf[x]
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
		// A constant arm reduces majority to AND/OR, which every
		// target has.
		if _, ok := b.isConst(x); ok {
			x, z = z, x
		} else if _, ok := b.isConst(y); ok {
			y, z = z, y
		}
		if v, ok := b.isConst(z); ok {
			if v {
				return b.Or(x, y)
			}
			return b.And(x, y)
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
	return b.raw(GMaj, sort3([3]NodeID{x, y, z}))
}

// sort3 orders a majority gate's arguments.
func sort3(a [3]NodeID) [3]NodeID {
	if a[1] < a[0] {
		a[0], a[1] = a[1], a[0]
	}
	if a[2] < a[1] {
		a[1], a[2] = a[2], a[1]
	}
	if a[1] < a[0] {
		a[0], a[1] = a[1], a[0]
	}
	return a
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
