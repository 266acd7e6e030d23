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
//     honors).
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
// consumer-count tables, the DFS stacks, and the two candidate orders — in
// dense slices a caller can keep across nets. The zero value is ready to
// use; it is reset on entry to every method and is not safe for
// concurrent use.
type Scratch struct {
	label     []int32
	visited   []bool
	stack     []logic.NodeID
	phase     []bool
	natural   []logic.NodeID
	order     []logic.NodeID
	fanout    []int32
	remaining []int32
	isOut     []bool
}

// Bytes is the storage the scratch retains.
func (s *Scratch) Bytes() int {
	const word, id = int(unsafe.Sizeof(int32(0))), int(unsafe.Sizeof(logic.NodeID(0)))
	return (cap(s.label)+cap(s.fanout)+cap(s.remaining))*word +
		(cap(s.stack)+cap(s.natural)+cap(s.order))*id +
		cap(s.visited) + cap(s.phase) + cap(s.isOut)
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
	if s.maxLive(n, order) <= s.maxLive(n, natural) {
		return order
	}
	return natural
}

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
// included, and isOut with the output marks.
func (s *Scratch) countFanout(n *logic.Net) {
	if cap(s.fanout) < len(n.Gates) {
		s.fanout = make([]int32, len(n.Gates))
		s.remaining = make([]int32, len(n.Gates))
		s.isOut = make([]bool, len(n.Gates))
	}
	fanout := s.fanout[:len(n.Gates)]
	clear(fanout)
	for i := range n.Gates {
		g := &n.Gates[i]
		for a := 0; a < g.Kind.Arity(); a++ {
			fanout[g.Args[a]]++
		}
	}
	outputs := s.isOut[:len(n.Gates)]
	clear(outputs)
	for _, o := range n.Outputs {
		fanout[o]++
		outputs[o] = true
	}
}

// maxLive simulates order against the fanout countFanout left for n.
func (s *Scratch) maxLive(n *logic.Net, order []logic.NodeID) int {
	remaining := s.remaining[:len(n.Gates)]
	copy(remaining, s.fanout)
	outputs := s.isOut[:len(n.Gates)]
	isComp := func(id logic.NodeID) bool {
		switch n.Gates[id].Kind {
		case logic.GInput, logic.GConst0, logic.GConst1:
			return false
		}
		return true
	}
	live := 0
	maxLive := 0
	for _, id := range order {
		g := &n.Gates[id]
		// Result becomes live if anything will consume it.
		if remaining[id] > 0 {
			live++
			if live > maxLive {
				maxLive = live
			}
		}
		for a := 0; a < g.Kind.Arity(); a++ {
			arg := g.Args[a]
			remaining[arg]--
			if remaining[arg] == 0 && isComp(arg) && !outputs[arg] {
				live--
			}
		}
	}
	return maxLive
}
