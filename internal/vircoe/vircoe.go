// Package vircoe implements the VIRtual COde Emitter, CHOPPER's
// compilation abstraction for exploiting memory-level parallelism (Section
// IV-B of the paper). A compiled kernel targets one subarray; real data is
// tiled over many subarrays across many banks. The naive approach — emit
// the whole program for subarray 1, then subarray 2, ... — serializes data
// transfer and computation, because the host issues commands in order.
//
// VIRCOE maintains a virtual program counter per subarray and emits one
// micro-op at a time: at every step it evaluates, for each subarray's next
// op, when that op could start under the emitter's device model (shared
// bus for transfers; one command at a time per bank, or per subarray when
// subarray-aware), and emits the op that can start earliest. The result is
// the Figure 5B interleaving: one bank's data transfers ride under another
// bank's triple-row activations.
//
// The mode is the emitter's *assumption* about the device. A
// subarray-aware emitter believes same-bank subarrays overlap; on hardware
// without Subarray-Level Parallelism that assumption is wrong and the
// emitted order exaggerates bank conflicts (the degradation Figure 12
// reports), while on SALP hardware it unlocks the extra parallelism.
package vircoe

import (
	"fmt"

	"chopper/internal/dram"
	"chopper/internal/isa"
)

// Mode selects the parallelism assumption of the emitter's device model.
type Mode int

const (
	// BankAware assumes banks are parallel and subarrays within a bank
	// serialize (true on any device).
	BankAware Mode = iota
	// SubarrayAware assumes every subarray is an independent unit (true
	// only with Subarray-Level Parallelism enabled).
	SubarrayAware
)

func (m Mode) String() string {
	if m == BankAware {
		return "bank-aware"
	}
	return "subarray-aware"
}

// Placement identifies a subarray instance running a copy of the program.
type Placement struct {
	Bank     int
	Subarray int
}

// Placements enumerates n subarrays spread across one channel of the
// geometry in bank-major order (subarray s of every bank before subarray
// s+1), the order that maximizes bank-level parallelism for small n. It
// errors when the geometry cannot hold n subarrays or n is negative
// (historically this panicked; callers that pre-check capacity, like the
// tiled runner, never see the error).
func Placements(g dram.Geometry, n int) ([]Placement, error) {
	if n < 0 {
		return nil, fmt.Errorf("vircoe: negative placement count %d", n)
	}
	if cap := g.Banks * g.SubarraysPB; n > cap {
		return nil, fmt.Errorf("vircoe: %d placements requested, geometry holds %d", n, cap)
	}
	out := make([]Placement, 0, n)
	for s := 0; s < g.SubarraysPB && len(out) < n; s++ {
		for b := 0; b < g.Banks && len(out) < n; b++ {
			out = append(out, Placement{Bank: b, Subarray: s})
		}
	}
	return out, nil
}

// Stats reports what the emitter did.
type Stats struct {
	Ops        int
	Transfers  int
	Subarrays  int
	SpanNs     float64 // emitter-model completion estimate
	BusBusyNs  float64
	Interleave int // ops emitted out of naive subarray-major order
}

// Merge folds the statistics of another emitter run (a further channel
// shard) into s: counters sum, SpanNs takes the max. Merging shards in a
// fixed order keeps the float sums reproducible.
func (s *Stats) Merge(o Stats) {
	s.Ops += o.Ops
	s.Transfers += o.Transfers
	s.Subarrays += o.Subarrays
	s.BusBusyNs += o.BusBusyNs
	s.Interleave += o.Interleave
	if o.SpanNs > s.SpanNs {
		s.SpanNs = o.SpanNs
	}
}

// Sink consumes micro-ops as they are emitted: op is bound to the subarray
// (bank, sub) and must not be retained past the call. Returning false stops
// the emission (a canceled replay). The streaming (To) emitters exist
// because a full issue stream for a large program over many subarrays can
// run to hundreds of millions of ops; the timing engine only needs them one
// at a time.
type Sink func(bank, sub int, op *isa.Op) bool

// collect returns a Sink that materializes the stream, presized to the
// emitters' exact output length (Emit's, and the tests' for SerialTo and
// LockstepTo).
func collect(stream *[]dram.Placed, prog *isa.Program, placements []Placement) Sink {
	*stream = make([]dram.Placed, 0, len(prog.Ops)*len(placements))
	return func(bank, sub int, op *isa.Op) bool {
		*stream = append(*stream, dram.Placed{Bank: bank, Subarray: sub, Op: *op})
		return true
	}
}

// SerialTo streams the naive broadcast into sink: the whole program for
// each subarray in turn — the emission order of the baseline methodology
// and of CHOPPER without VIRCOE.
func SerialTo(prog *isa.Program, placements []Placement, sink Sink) {
	for _, p := range placements {
		for i := range prog.Ops {
			if !sink(p.Bank, p.Subarray, &prog.Ops[i]) {
				return
			}
		}
	}
}

// LockstepTo streams the hands-tuned methodology's bank-parallel broadcast
// into sink: each micro-op is issued for every subarray before the next
// micro-op — how a bbop macro over a multi-bank array executes. Computation
// overlaps across banks (Table I: all architectures exploit BLP), but
// transfer phases and compute phases still alternate in lockstep, with no
// cross-phase overlap.
func LockstepTo(prog *isa.Program, placements []Placement, sink Sink) {
	for i := range prog.Ops {
		for _, p := range placements {
			if !sink(p.Bank, p.Subarray, &prog.Ops[i]) {
				return
			}
		}
	}
}

// Emit produces the VIRCOE-interleaved issue stream for one program
// replicated over the placements. It materializes the whole stream; the
// tiled runner streams through EmitTo instead and keeps Emit as its test
// oracle.
func Emit(prog *isa.Program, placements []Placement, mode Mode, t dram.Timing) ([]dram.Placed, Stats) {
	var stream []dram.Placed
	st := EmitTo(prog, placements, mode, t, collect(&stream, prog, placements))
	return stream, st
}

// EmitTo streams the VIRCOE-interleaved issue order into sink. When sink
// stops the emission the returned Stats cover the ops emitted so far.
//
// Every step issues the next op of the placement that can start earliest,
// ties going to the placement that has waited longest (the lowest issue
// stamp; before its first issue, its position in placements). Issuing sets
// the placement's own sequence time and its unit's free time to the same
// end, and latencies are non-negative, so unit free times only grow and
// every placement of unit u can start at unitFree[u] when its next op
// computes, or max(unitFree[u], busFree) when it transfers. Among one
// unit's placements whose next ops are of one class the longest-waiting
// therefore wins, so each unit keeps its placements in two FIFO queues by
// the class of their next op, and only the queue heads compete, through
// three heaps over units whose keys change when that unit issues:
//   - compute heads, keyed (unitFree, stamp);
//   - busy transfer heads, unitFree > busFree, keyed (unitFree, stamp);
//   - ready transfer heads, unitFree <= busFree, keyed by stamp alone, all
//     starting at busFree.
//
// busFree only grows, so a busy head turns ready at most once per issue of
// its unit, and a step costs O(log units) amortized, whatever the mode.
func EmitTo(prog *isa.Program, placements []Placement, mode Mode, t dram.Timing, sink Sink) Stats {
	n := len(placements)
	ops := prog.Ops
	st := Stats{Subarrays: n}
	if n == 0 || len(ops) == 0 {
		return st
	}

	// Map each placement to a dense unit index (its bank, or its own
	// bank x subarray slot when subarray-aware) so the inner loop is pure
	// slice arithmetic. The index only names a resource slot; emission order
	// never depends on its value.
	unitOf := func(p Placement) Placement {
		if mode != SubarrayAware {
			p.Subarray = 0 // a bank's subarrays share one unit
		}
		return p
	}
	lo, hi := unitOf(placements[0]), unitOf(placements[0])
	for _, p := range placements {
		u := unitOf(p)
		lo.Bank, hi.Bank = min(lo.Bank, u.Bank), max(hi.Bank, u.Bank)
		lo.Subarray, hi.Subarray = min(lo.Subarray, u.Subarray), max(hi.Subarray, u.Subarray)
	}
	subSpan := hi.Subarray - lo.Subarray + 1
	units := (hi.Bank - lo.Bank + 1) * subSpan
	unitIdx := make([]int, n)
	for i, p := range placements {
		u := unitOf(p)
		unitIdx[i] = (u.Bank-lo.Bank)*subSpan + u.Subarray - lo.Subarray
	}

	// Latencies depend on the op's kind alone, so they are looked up per
	// kind, as the timing engine does; unknown kinds cost nothing.
	var opLat, busLat [isa.NumOpKinds]float64
	for k := range opLat {
		op := isa.Op{Kind: isa.OpKind(k)}
		opLat[k], busLat[k] = t.OpLatency(&op), t.BusLatency(&op)
	}
	class := func(pc int) int { // a queue's class: 1 transfers, 0 computes
		if ops[pc].IsTransfer() {
			return 1
		}
		return 0
	}

	// Emitter-internal device model (mirrors the dram engine's resources).
	var busFree, lastStart float64
	unitFree := make([]float64, units)

	// Queue q = 2*unit + class is a linked list through next, -1 ending it
	// and marking an empty queue's head.
	pcs := make([]int, n)
	stamp := make([]int, n)
	next := make([]int, n)
	head := make([]int, 2*units)
	tail := make([]int, 2*units)
	for q := range head {
		head[q] = -1
	}
	enqueue := func(q, i int) {
		next[i] = -1
		if head[q] < 0 {
			head[q] = i
		} else {
			next[tail[q]] = i
		}
		tail[q] = i
	}
	for i := range placements {
		stamp[i] = i
		enqueue(2*unitIdx[i]+class(0), i)
	}

	// At time zero every unit and the bus are free: transfer heads are ready.
	compute, busy, ready := newUnitHeap(units), newUnitHeap(units), newUnitHeap(units)
	for u := 0; u < units; u++ {
		if h := head[2*u]; h >= 0 {
			compute.set(u, 0, stamp[h])
		}
		if h := head[2*u+1]; h >= 0 {
			ready.set(u, 0, stamp[h])
		}
	}

	seq := n
	lastEmitted := -1
	for {
		from, bestStart, bestSeq := (*unitHeap)(nil), 0.0, 0
		if len(compute.a) > 0 {
			from, bestStart, bestSeq = compute, compute.a[0].key, compute.a[0].seq
		}
		if len(busy.a) > 0 {
			if e := busy.a[0]; from == nil || e.key < bestStart || e.key == bestStart && e.seq < bestSeq {
				from, bestStart, bestSeq = busy, e.key, e.seq
			}
		}
		if len(ready.a) > 0 {
			if e := ready.a[0]; from == nil || busFree < bestStart || busFree == bestStart && e.seq < bestSeq {
				from, bestStart = ready, busFree
			}
		}
		if from == nil {
			return st
		}
		u := from.a[0].unit
		q := 2 * u
		if from != compute {
			q++
		}
		best := head[q]

		if s := lastStart + dram.IssueGapNs; s > bestStart && st.Ops > 0 {
			bestStart = s
		}
		pc := pcs[best]
		op := &ops[pc]
		if !sink(placements[best].Bank, placements[best].Subarray, op) {
			return st
		}
		if lastEmitted >= 0 && best != lastEmitted && pcs[lastEmitted] < len(ops) {
			st.Interleave++
		}
		lastEmitted = best

		var lat float64
		if k := int(op.Kind); k < isa.NumOpKinds {
			lat = opLat[k]
		}
		xfer := op.IsTransfer()
		if xfer {
			st.Transfers++
			busFree = bestStart + busLat[op.Kind]
			st.BusBusyNs += busLat[op.Kind]
		}
		end := bestStart + lat
		unitFree[u] = end
		lastStart = bestStart
		if end > st.SpanNs {
			st.SpanNs = end
		}
		st.Ops++
		pcs[best]++
		stamp[best] = seq
		seq++
		head[q] = next[best]
		if pcs[best] < len(ops) {
			enqueue(2*u+class(pcs[best]), best)
		}
		// Refile unit u: its free time grew, and its queue heads may differ.
		if h := head[2*u]; h >= 0 {
			compute.set(u, end, stamp[h])
		} else {
			compute.remove(u)
		}
		if h := head[2*u+1]; h < 0 {
			busy.remove(u)
			ready.remove(u)
		} else if end > busFree {
			ready.remove(u)
			busy.set(u, end, stamp[h])
		} else {
			busy.remove(u)
			ready.set(u, 0, stamp[h])
		}
		if xfer { // the bus frees later: units free by then turn ready
			for len(busy.a) > 0 && busy.a[0].key <= busFree {
				e := busy.a[0]
				busy.remove(e.unit)
				ready.set(e.unit, 0, e.seq)
			}
		}
	}
}

// unitHeap is a min-heap of units ordered by (key, seq) that knows where
// each unit sits (pos[u], -1 when absent), so a unit's entry is changed in
// place and never goes stale.
type unitHeap struct {
	a   []heapEntry
	pos []int
}

type heapEntry struct {
	key  float64
	seq  int // issue stamp of the unit's queue head: on equal keys the longest-waiting wins
	unit int
}

func newUnitHeap(units int) *unitHeap {
	h := &unitHeap{a: make([]heapEntry, 0, units), pos: make([]int, units)}
	for u := range h.pos {
		h.pos[u] = -1
	}
	return h
}

func (a heapEntry) less(b heapEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// set files unit u under (key, seq), in place or as a new entry. The hole
// at u's slot first walks down the smaller children to a leaf, one
// comparison a level, and the entry then rises from there to its place,
// shifting the entries it passes down. That places an entry wherever it
// belongs, and costs least for a key that grew — an issuing unit's, which
// usually belongs near the bottom.
func (h *unitHeap) set(u int, key float64, seq int) {
	i := h.pos[u]
	if i < 0 {
		i = len(h.a)
		h.a = h.a[:i+1] // a has room for every unit
	}
	a, pos, e := h.a, h.pos, heapEntry{key: key, seq: seq, unit: u}
	for c := 2*i + 1; c < len(a); c = 2*i + 1 {
		if c+1 < len(a) && a[c+1].less(a[c]) {
			c++
		}
		a[i] = a[c]
		pos[a[i].unit] = i
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(a[p]) {
			break
		}
		a[i] = a[p]
		pos[a[i].unit] = i
		i = p
	}
	a[i] = e
	pos[u] = i
}

// remove takes unit u out of the heap if it is there.
func (h *unitHeap) remove(u int) {
	if h.pos[u] >= 0 {
		h.delete(u)
	}
}

// delete refiles the last entry in u's slot.
func (h *unitHeap) delete(u int) {
	i, last := h.pos[u], len(h.a)-1
	h.pos[u] = -1
	e := h.a[last]
	h.a = h.a[:last]
	if i != last {
		h.pos[e.unit] = i
		h.set(e.unit, e.key, e.seq)
	}
}
