// Package obs implements CHOPPER's Optimizations for Bit-Sliced codes
// (OBS), the paper's Section V:
//
//   - O1, bit-sliced code scheduling: reorder gates so dependent
//     operations are aggregated, minimizing the number of rows needed to
//     buffer intermediate bitslices (ScheduleGates);
//   - O2, bit-sliced instruction selection: exploit bit patterns of
//     constant operands (folding at bit-slicing time) and source surviving
//     constants from the C-group rows instead of CPU writes (a flag the
//     code generator honors);
//   - O3, bit-sliced instruction renaming: shorten Store-Copy-Compute to
//     Store-Compute for one-shot bitslices (a flag the code generator
//     honors, on the order Chain builds: each one-shot producer right
//     before its consumer).
//
// The Variant type names the cumulative optimization levels of the paper's
// breakdown study (Table IV): bitslice ⊂ schedule ⊂ reuse ⊂ rename.
package obs

import (
	"fmt"
	"strings"
	"unsafe"

	"chopper/internal/logic"
)

// Variant is a cumulative optimization level, per Table IV of the paper.
// The levels number from 1, so the zero Variant names no level: a caller's
// "use the default".
type Variant int

const (
	// Bitslice: bit-slicing only, no OBS optimizations.
	Bitslice Variant = iota + 1
	// Schedule: + O1 bit-sliced code scheduling.
	Schedule
	// Reuse: + O2 bit-sliced instruction selection (constant reuse).
	Reuse
	// Rename: + O3 bit-sliced instruction renaming (full CHOPPER).
	Rename
)

var variantNames = [...]string{"bitslice", "schedule", "reuse", "rename"}

func (v Variant) String() string {
	if v >= Bitslice && v <= Rename {
		return variantNames[v-Bitslice]
	}
	return fmt.Sprintf("variant?%d", int(v))
}

// AllVariants lists the breakdown levels in cumulative order.
var AllVariants = []Variant{Bitslice, Schedule, Reuse, Rename}

// ParseVariant is String's inverse, case-insensitive: the one place an
// optimization-level name typed on a command line or sent in a request is
// read.
func ParseVariant(s string) (Variant, error) {
	for _, v := range AllVariants {
		if strings.EqualFold(s, v.String()) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown optimization level %q (valid: %s)", s, strings.Join(variantNames[:], ", "))
}

// Full is the complete CHOPPER optimization level.
const Full = Rename

// HasSchedule reports whether O1 is enabled at this level.
func (v Variant) HasSchedule() bool { return v >= Schedule }

// HasReuse reports whether O2 is enabled at this level.
func (v Variant) HasReuse() bool { return v >= Reuse }

// HasRename reports whether O3 is enabled at this level.
func (v Variant) HasRename() bool { return v >= Rename }

// TestPanicHook, when non-nil, is invoked at the top of ScheduleGates with
// the pressureAware flag. It exists so tests of the compiler's graceful
// degradation ladder can force an OBS pass to panic on demand; production
// code never sets it.
var TestPanicHook func(pressureAware bool)

// ScheduleGates computes an execution order for the net's computation gates.
// When pressureAware is false it returns the natural (creation) order,
// which mirrors the full-size-operand execution order the bit-sliced code
// inherits from the source program: every multi-bit operation completes all
// of its bitslices before the next operation starts, so whole intermediate
// words must be buffered.
//
// When true it runs the O1 scheduler. Two candidate orders are built —
// the natural order, and a depth-first post-order walk from the outputs
// that visits at each gate the operand sub-cone with the larger
// register-need label first (Sethi–Ullman ordering, generalized to the
// DAG) — and the one with lower buffering pressure (MaxLive) is kept. The
// DFS order realizes the paper's Figure 6 aggregation: bit i of a consumer
// is computed as soon as bit i of its producers exists, so intermediate
// words never need to be buffered in full, only carry-chain state stays
// live. On accumulator-shaped cones (multipliers) the natural order is
// already the aggregated one and the cost model keeps it.
func ScheduleGates(n *logic.Net, pressureAware bool) []logic.NodeID {
	return new(Scratch).ScheduleGates(n, pressureAware)
}

// Scratch is the scheduler's per-net working storage — label, visited and
// consumer-count tables, the DFS stacks, the two candidate orders, and
// Chain's links and chained order — in dense slices a caller can keep
// across nets. The zero value is ready to use; it is reset on entry to
// every method and is not safe for concurrent use.
type Scratch struct {
	label     []int32
	visited   []bool
	stack     []logic.NodeID
	phase     []bool
	natural   []logic.NodeID
	order     []logic.NodeID
	fanout    []int32
	remaining []int32
	uses      []int32
	pos       []int32
	link      []logic.NodeID
	lastUse   []int32
	chained   []logic.NodeID

	// live is the MaxLive of scheduled, the order the last pressure-aware
	// ScheduleGates returned for liveNet; Chain reuses it and the fanout
	// table when handed that order.
	liveNet   *logic.Net
	scheduled []logic.NodeID
	live      int
	outs      int // computed outputs: live from their gate to the end
}

// Bytes is the storage the scratch retains.
func (s *Scratch) Bytes() int {
	const word, id = int(unsafe.Sizeof(int32(0))), int(unsafe.Sizeof(logic.NodeID(0)))
	return (cap(s.label)+cap(s.fanout)+cap(s.remaining)+cap(s.uses)+cap(s.pos)+cap(s.lastUse))*word +
		(cap(s.stack)+cap(s.natural)+cap(s.order)+cap(s.link)+cap(s.chained))*id +
		cap(s.visited) + cap(s.phase)
}

// ScheduleGates is the package-level ScheduleGates on the scratch's
// tables. The returned order lives in the scratch: it is valid until the
// next ScheduleGates call on it.
func (s *Scratch) ScheduleGates(n *logic.Net, pressureAware bool) []logic.NodeID {
	if TestPanicHook != nil {
		TestPanicHook(pressureAware)
	}
	isComp := func(k logic.GateKind) bool {
		switch k {
		case logic.GInput, logic.GConst0, logic.GConst1:
			return false
		}
		return true
	}
	if cap(s.natural) < len(n.Gates) {
		s.natural = make([]logic.NodeID, 0, len(n.Gates))
	}
	natural := s.natural[:0]
	for i := range n.Gates {
		if isComp(n.Gates[i].Kind) {
			natural = append(natural, logic.NodeID(i))
		}
	}
	s.natural = natural
	s.liveNet = nil
	if !pressureAware {
		return natural
	}
	if cap(s.label) < len(n.Gates) {
		s.order = make([]logic.NodeID, 0, len(n.Gates))
		s.label = make([]int32, len(n.Gates))
		s.visited = make([]bool, len(n.Gates))
	}

	// Register-need labels (Sethi–Ullman, treating the DAG as a tree;
	// shared sub-cones are approximated, which is standard practice).
	label := s.label[:len(n.Gates)]
	for i := range n.Gates {
		g := &n.Gates[i]
		if !isComp(g.Kind) {
			label[i] = 0
			continue
		}
		// Gather child labels, descending (arity <= 3: sort by hand).
		var ls [3]int32
		ar := g.Kind.Arity()
		for a := 0; a < ar; a++ {
			ls[a] = label[g.Args[a]]
		}
		sortDesc3(ls[:ar])
		need := int32(1)
		for k, l := range ls[:ar] {
			if v := l + int32(k); v > need {
				need = v
			}
		}
		label[i] = need
	}

	visited := s.visited[:len(n.Gates)]
	clear(visited)
	order := s.order[:0]
	// Iterative DFS post-order; children visited heavier-label first.
	stack := s.stack[:0]
	phase := s.phase[:0]
	push := func(id logic.NodeID) {
		if !visited[id] && isComp(n.Gates[id].Kind) {
			stack = append(stack, id)
			phase = append(phase, false)
		}
	}
	for _, o := range n.Outputs {
		push(o)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			emit := phase[len(phase)-1]
			stack = stack[:len(stack)-1]
			phase = phase[:len(phase)-1]
			if visited[id] {
				continue
			}
			if emit {
				visited[id] = true
				order = append(order, id)
				continue
			}
			stack = append(stack, id)
			phase = append(phase, true)
			g := &n.Gates[id]
			// Push lighter children first so heavier pop first
			// (stable: equal labels keep argument order).
			var kids [3]logic.NodeID
			ar := g.Kind.Arity()
			for a := 0; a < ar; a++ {
				kids[a] = g.Args[a]
			}
			sortStableByLabel(kids[:ar], label)
			for _, k := range kids[:ar] {
				push(k)
			}
		}
	}
	s.stack, s.phase, s.order = stack[:0], phase[:0], order
	s.countFanout(n)
	s.liveNet = n
	if dfs, nat := s.maxLive(n, order), s.maxLive(n, natural); dfs <= nat {
		s.scheduled, s.live = order, dfs
	} else {
		s.scheduled, s.live = natural, nat
	}
	return s.scheduled
}

// Live is the MaxLive of the order the last pressure-aware ScheduleGates
// returned (or the last order Chain was handed).
func (s *Scratch) Live() int { return s.live }

// sortDesc3 sorts at most three labels descending.
func sortDesc3(ls []int32) {
	switch len(ls) {
	case 2:
		if ls[1] > ls[0] {
			ls[0], ls[1] = ls[1], ls[0]
		}
	case 3:
		if ls[1] > ls[0] {
			ls[0], ls[1] = ls[1], ls[0]
		}
		if ls[2] > ls[1] {
			ls[1], ls[2] = ls[2], ls[1]
			if ls[1] > ls[0] {
				ls[0], ls[1] = ls[1], ls[0]
			}
		}
	}
}

// sortStableByLabel stably sorts at most three node ids ascending by
// label (insertion sort, preserving argument order on ties — the same
// order sort.SliceStable produced).
func sortStableByLabel(kids []logic.NodeID, label []int32) {
	for i := 1; i < len(kids); i++ {
		for j := i; j > 0 && label[kids[j]] < label[kids[j-1]]; j-- {
			kids[j], kids[j-1] = kids[j-1], kids[j]
		}
	}
}

// MaxLive simulates a schedule and returns the maximum number of
// computation-gate results simultaneously live (still awaiting consumers
// or referenced by outputs) — the row-buffering pressure the schedule
// induces. Inputs and constants are excluded: their buffering is governed
// by O2/O3, not by O1.
func MaxLive(n *logic.Net, order []logic.NodeID) int { return new(Scratch).MaxLive(n, order) }

// MaxLive is the package-level MaxLive on the scratch's tables.
func (s *Scratch) MaxLive(n *logic.Net, order []logic.NodeID) int {
	s.countFanout(n)
	return s.maxLive(n, order)
}

// countFanout fills fanout with every node's consumer count, outputs
// included, and uses with maxLive's starting counts: the consumer count,
// plus pinned for a node whose row is never freed (an input or constant,
// which MaxLive does not count, or an output).
func (s *Scratch) countFanout(n *logic.Net) {
	s.liveNet = nil
	if cap(s.fanout) < len(n.Gates) {
		s.fanout = make([]int32, len(n.Gates))
		s.remaining = make([]int32, len(n.Gates))
		s.uses = make([]int32, len(n.Gates))
	}
	fanout := s.fanout[:len(n.Gates)]
	clear(fanout)
	for i := range n.Gates {
		g := &n.Gates[i]
		for a := 0; a < g.Kind.Arity(); a++ {
			fanout[g.Args[a]]++
		}
	}
	for _, o := range n.Outputs {
		fanout[o]++
	}
	uses := s.uses[:len(n.Gates)]
	copy(uses, fanout)
	for i := range n.Gates {
		if n.Gates[i].Kind <= logic.GConst1 {
			uses[i] += pinned
		}
	}
	s.outs = 0
	for _, o := range n.Outputs {
		if uses[o] < pinned {
			uses[o] += pinned
			s.outs++
		}
	}
}

// pinned lifts a use count out of reach of its consumers: a node whose
// count starts there never frees its row.
const pinned = 1 << 30

// maxLive simulates order against the counts countFanout left for n. A
// result becomes live if anything will consume it, and frees its row when
// its last consumer runs.
func (s *Scratch) maxLive(n *logic.Net, order []logic.NodeID) int {
	remaining := s.remaining[:len(n.Gates)]
	copy(remaining, s.uses)
	live, maxLive := 0, 0
	for _, id := range order {
		if remaining[id] > 0 {
			live++
			maxLive = max(maxLive, live)
		}
		g := &n.Gates[id]
		for a := 0; a < g.Kind.Arity(); a++ {
			arg := g.Args[a]
			if remaining[arg]--; remaining[arg] == 0 {
				live--
			}
		}
	}
	return maxLive
}

// Chain is O3's half of the schedule. The code generator keeps a TRA
// result in the compute rows, skipping its store to a D row and its
// refill into a T row, only when the gate consuming it is emitted right
// after it. Chain puts each one-shot producer there: for every
// AND/OR/MAJ/NOT gate it picks a chain operand — among the gate's
// AND/OR/MAJ operands with exactly one consumer (an output counts as
// one), the latest in order — and emits that producer, preceded by its
// own chain, immediately before the gate. The move is always legal: the
// producer's only consumer is the gate it lands next to, and every
// operand of the producer stays earlier than before.
//
// A move can lengthen its producer's operands' live ranges, so it is
// guarded by MaxLive, which the result never exceeds over order: if the
// fully chained order is worse, Chain retries moving a producer only when
// it already sits right before its consumer or its move extends the live
// range of at most one operand (constants and single-use inputs, which O3
// writes straight into the compute rows, do not count); if that is worse
// too, it returns order. moved counts the producers the result takes out
// of their place in order. The chained order lives in the scratch: it is
// valid until the next Chain call on it.
//
// Handed the order this scratch's last ScheduleGates(n, true) returned,
// Chain reuses that call's consumer counts and MaxLive.
func (s *Scratch) Chain(n *logic.Net, order []logic.NodeID) (chained []logic.NodeID, moved int) {
	if s.liveNet != n || len(order) != len(s.scheduled) || len(order) > 0 && &order[0] != &s.scheduled[0] {
		s.countFanout(n)
		s.live = s.maxLive(n, order)
	}
	if cap(s.pos) < len(n.Gates) {
		s.pos = make([]int32, len(n.Gates))
		s.link = make([]logic.NodeID, len(n.Gates))
		s.lastUse = make([]int32, len(n.Gates))
	}
	if cap(s.chained) < len(order) {
		s.chained = make([]logic.NodeID, 0, len(order))
	}
	pos := s.pos[:len(n.Gates)]
	for i := range pos {
		pos[i] = notOneShot
	}
	for _, restricted := range [2]bool{false, true} {
		if out, moved, ok := s.chainPass(n, order, restricted); ok {
			return out, moved
		}
	}
	return order, 0
}

// Chain's pos marks for nodes without a place: inputs, constants and gates
// with other than one consumer, and gates linked to their consumer.
const (
	notOneShot int32 = -1
	linked     int32 = -2
)

// isTRA reports whether a gate kind leaves its result in the compute rows.
func isTRA(k logic.GateKind) bool {
	return k == logic.GAnd || k == logic.GOr || k == logic.GMaj
}

// chainPass links every gate to its chain operand (only to one that passes
// the restricted rule when restricted is set) and emits the chained order,
// tracking its MaxLive as it goes. It reports false, as soon as the
// pressure passes s.live, when the order would be worse than the input.
func (s *Scratch) chainPass(n *logic.Net, order []logic.NodeID, restricted bool) ([]logic.NodeID, int, bool) {
	gates := n.Gates
	fanout := s.fanout[:len(gates)]
	// pos is a one-shot TRA gate's place in order, set as the sweep
	// reaches it (its operands are all earlier); every other node reads
	// notOneShot, and a gate linked to its consumer linked (it is never
	// looked up again as an operand: its only consumer has been visited).
	pos := s.pos[:len(gates)]
	link := s.link[:len(gates)]
	last := s.lastUse[:len(gates)]
	if restricted {
		for i, id := range order {
			g := &gates[id]
			for a := 0; a < g.Kind.Arity(); a++ {
				last[g.Args[a]] = int32(i)
			}
		}
		for _, o := range n.Outputs {
			last[o] = int32(len(order))
		}
	}
	count := 0
	for i, c := range order {
		g := &gates[c]
		pos[c], link[c] = notOneShot, logic.None
		if fanout[c] == 1 && isTRA(g.Kind) {
			pos[c] = int32(i)
		}
		if g.Kind == logic.GXor {
			continue
		}
		best, at := logic.None, int32(-1)
		for a := 0; a < g.Kind.Arity(); a++ {
			if x := g.Args[a]; pos[x] > at {
				best, at = x, pos[x]
			}
		}
		if best == logic.None {
			continue
		}
		adjacent := at == int32(i-1)
		if restricted && !adjacent && s.extended(n, best, int32(i)) > 1 {
			continue
		}
		link[c] = best
		pos[best] = linked
		if !adjacent {
			count++
		}
	}
	if count == 0 {
		return order, 0, true
	}

	// Emit back to front: a root's chain, read from the root down its
	// links, is the chained order reversed, so walking order backwards
	// writes each chain in place. The peak is simulated backwards too (a
	// value is live from its definition through its last use, which the
	// backward walk meets first), so a rise among the last gates, where
	// every output is live, fails the pass early.
	// seen counts the uses met so far, from 1 for a node MaxLive never
	// frees (it is counted in outs, or not at all): a value joins the live
	// set at its first count from 0, and leaves it at its gate.
	seen := s.remaining[:len(gates)]
	for i, u := range s.uses[:len(gates)] {
		seen[i] = u / pinned
	}
	out := s.chained[:len(order)]
	k, live, peak := len(order), s.outs, 0
	for i := len(order) - 1; i >= 0; i-- {
		r := order[i]
		if pos[r] == linked {
			continue // emitted with its consumer
		}
		for id := r; id != logic.None; id = link[id] {
			k--
			out[k] = id
			g := &gates[id]
			for a := 0; a < g.Kind.Arity(); a++ {
				arg := g.Args[a]
				if seen[arg] == 0 {
					live++
				}
				seen[arg]++
			}
			peak = max(peak, live)
			if seen[id] > 0 {
				live--
			}
		}
		if peak > s.live {
			return nil, 0, false
		}
	}
	s.chained = out
	return out, count, true
}

// extended counts the operands of producer p whose live range grows when
// p moves to position at: those whose last consumer in order comes before
// at. p's own chain operand moves with it, and constants and single-use
// inputs never occupy a row for it, so none of them count.
func (s *Scratch) extended(n *logic.Net, p logic.NodeID, at int32) int {
	g := &n.Gates[p]
	count := 0
	for a := 0; a < g.Kind.Arity(); a++ {
		x := g.Args[a]
		if x == s.link[p] || a > 0 && x == g.Args[a-1] || a == 2 && x == g.Args[0] {
			continue
		}
		switch n.Gates[x].Kind {
		case logic.GConst0, logic.GConst1:
			continue
		case logic.GInput:
			if s.fanout[x] == 1 {
				continue
			}
		}
		if s.lastUse[x] < at {
			count++
		}
	}
	return count
}
