package logic

// Complement-dual merging. The builder hashes AND, OR and NOT as separate
// kinds, so a folded net can hold OR(a,b) beside AND(ā,b̄), its
// complement, as two triple-row activations. MergeDuals finds such pairs
// in a legalized net and keeps one of them as a gate: the other becomes
// the NOT of the first, or an existing NOT of it. A NOT is one copy into
// a dual-contact row where an AND or OR is three copies and an activation.

// dualScratch is MergeDuals' share of a Scratch: per-node tables sized to
// the net being swept.
type dualScratch struct {
	// fan is each node's consumer count among live gates, an output
	// counting as one.
	fan []int32
	// sub[x] is one more than the node x's consumers read instead, always
	// an earlier one, or 0: a cleared table replaces nothing.
	sub []NodeID
}

// replace makes the consumers of x read y, an earlier node.
func (d *dualScratch) replace(x, y NodeID) { d.sub[x] = y + 1 }

// replaced reports whether x's consumers read another node.
func (d *dualScratch) replaced(x NodeID) bool { return d.sub[x] != 0 }

// at is the node a consumer of x reads: x, or its replacement. A
// replacement is always an earlier node, so the walk ends.
func (d *dualScratch) at(x NodeID) NodeID {
	if d != nil {
		for d.sub[x] != 0 {
			x = d.sub[x] - 1
		}
	}
	return x
}

func (d *dualScratch) reset(n int) {
	if cap(d.fan) < n {
		d.fan = make([]int32, n)
		d.sub = make([]NodeID, n)
	}
	d.fan, d.sub = d.fan[:n], d.sub[:n]
	clear(d.fan)
	clear(d.sub)
}

// MergeDuals is DCE that also merges complement-dual gates: n must be the
// net this scratch's last Legalize returned under Fold, whose builder
// still indexes every gate, and the rewrite uses up both (it edits n's
// gates in place). The result is the caller's, as DCE's is; merged
// reports whether any pair merged.
//
// A dual pair is OR(a,b) and AND(ā,b̄), or the mirror with AND and OR
// swapped, where ā is a's existing complement (its NOT gate, or the node
// a negates) and both gates are live. With e the earlier gate of a pair
// and l the later, l = NOT(e), and the pair merges when
//
//   - NOT(e) or NOT(l) already exists, or
//   - e and l each have two or more consumers.
//
// Then l becomes NOT(e), or is dropped for an existing NOT(e) that comes
// before it (a later one is dropped for l instead), and NOT(l) is dropped
// for e. A pair with a single-use gate and no NOT is left alone: the NOT
// consumer the merge adds would take the gate out of the producers O3
// chains to their consumer (obs.Scratch.Chain), and losing the chain
// costs about what the merge saves.
//
// A gate whose operands were redirected may then equal another gate, so
// a second sweep re-interns the rewritten gates through the builder's
// index, in order: the XOR(ā,b̄) of a popcount's complemented bits, which
// Legalize expands next to XOR(a,b), folds into it whole.
func (s *Scratch) MergeDuals(n *Net) (out *Net, merged bool) {
	b := &s.b
	if !b.opts.Fold || len(n.Gates) != len(b.net.Gates) || len(n.Gates) > 0 && &n.Gates[0] != &b.net.Gates[0] {
		panic("logic: MergeDuals needs the net the scratch's last folding Legalize returned")
	}
	gates := n.Gates
	s.dce.reset(len(gates))
	d := &s.dual
	d.reset(len(gates))
	live, fan := s.dce.live, d.fan

	liveNot := func(x NodeID) NodeID {
		if m := b.nots[x]; m != None && live[m] {
			return m
		}
		return None
	}
	// One backward sweep marks liveness, counts consumers and merges
	// pairs. Gates are in topological order, so when the sweep reaches a
	// pair's earlier gate e, it has met every consumer of e, of l and of
	// their NOTs: their liveness and counts are final, and nothing the
	// merge rewrites is met again.
	for _, o := range n.Outputs {
		live[o] = true
		fan[o]++
	}
	for i := len(gates) - 1; i >= 0; i-- {
		if !live[i] {
			continue
		}
		g := &gates[i]
		for a := range g.Kind.Arity() {
			live[g.Args[a]] = true
			fan[g.Args[a]]++
		}
		if g.Kind != GAnd && g.Kind != GOr {
			continue
		}
		x, y := b.complement(g.Args[0]), b.complement(g.Args[1])
		if x == None || y == None {
			continue
		}
		// The pair is merged at its earlier gate: the probe is symmetric,
		// and so is the rule.
		e, l := NodeID(i), b.find(Gate{Kind: GAnd + GOr - g.Kind, Args: [3]NodeID{min(x, y), max(x, y), None}})
		if l < e || !live[l] {
			continue
		}
		ne, nl := liveNot(e), liveNot(l)
		if ne == None && nl == None && (fan[e] < 2 || fan[l] < 2) {
			continue
		}
		merged = true
		if ne != None && ne < l {
			d.replace(l, ne)
		} else {
			gates[l] = Gate{Kind: GNot, Args: [3]NodeID{e, None, None}}
			b.file(l)
			if ne != None {
				d.replace(ne, l)
			}
		}
		if nl != None {
			d.replace(nl, e)
		}
	}
	if !merged {
		return s.copyOut(n, nil, nil), false
	}

	// Re-intern the gates whose operands were redirected, in order and in
	// place: one that now equals another gate is replaced by the earlier
	// of the two.
	for i := range gates {
		id := NodeID(i)
		if !live[i] || d.replaced(id) {
			continue
		}
		g := gates[i]
		changed := false
		for a := range g.Kind.Arity() {
			if y := d.at(g.Args[a]); y != g.Args[a] {
				g.Args[a], changed = y, true
			}
		}
		if !changed {
			continue
		}
		j := None
		switch g.Kind {
		case GNot:
			if x := &gates[g.Args[0]]; x.Kind == GNot {
				j = d.at(x.Args[0])
			}
		case GAnd, GOr:
			if g.Args[0] == g.Args[1] {
				j = g.Args[0]
			}
			g.Args[0], g.Args[1] = normalize2(g.Args[0], g.Args[1])
		case GMaj:
			g.Args = sort3(g.Args)
			if g.Args[1] == g.Args[0] || g.Args[1] == g.Args[2] {
				j = g.Args[1]
			}
		}
		if j == None {
			// A later gate found here has not been rewritten; one
			// redirected to an earlier gate stands for it.
			if j = b.find(g); j != None {
				j = d.at(j)
			}
		}
		switch {
		case j == None:
			gates[i] = g
			b.file(id)
		case j < id:
			d.replace(id, j)
		case j > id:
			gates[i] = g
			d.replace(j, id)
		}
	}

	// Liveness again, through the rewrite.
	clear(live)
	for _, o := range n.Outputs {
		live[d.at(o)] = true
	}
	for i := len(gates) - 1; i >= 0; i-- {
		if !live[i] {
			continue
		}
		g := &gates[i]
		for a := range g.Kind.Arity() {
			live[d.at(g.Args[a])] = true
		}
	}
	return s.copyOut(n, nil, d), true
}
