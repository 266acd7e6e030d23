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
func EmitTo(prog *isa.Program, placements []Placement, mode Mode, t dram.Timing, sink Sink) Stats {
	n := len(placements)
	ops := prog.Ops
	pcs := make([]int, n)
	st := Stats{Subarrays: n}

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
	var lo, hi Placement
	if n > 0 {
		lo, hi = unitOf(placements[0]), unitOf(placements[0])
	}
	for _, p := range placements {
		u := unitOf(p)
		lo.Bank, hi.Bank = min(lo.Bank, u.Bank), max(hi.Bank, u.Bank)
		lo.Subarray, hi.Subarray = min(lo.Subarray, u.Subarray), max(hi.Subarray, u.Subarray)
	}
	subSpan := hi.Subarray - lo.Subarray + 1
	unitIdx := make([]int, n)
	for i, p := range placements {
		u := unitOf(p)
		unitIdx[i] = (u.Bank-lo.Bank)*subSpan + u.Subarray - lo.Subarray
	}

	// Emitter-internal device model (mirrors the dram engine's resources).
	var busFree float64
	unitFree := make([]float64, (hi.Bank-lo.Bank+1)*subSpan)
	subSeq := make([]float64, n)
	var lastStart float64
	const issueGap = 0.833

	// isXfer caches the per-op transfer classification once.
	isXfer := make([]bool, len(ops))
	opLat := make([]float64, len(ops))
	busLat := make([]float64, len(ops))
	for i := range ops {
		isXfer[i] = ops[i].IsTransfer()
		opLat[i] = t.OpLatency(&ops[i])
		busLat[i] = t.BusLatency(&ops[i])
	}

	// Placements are kept in a min-heap on their estimated next start
	// time. Estimates are lazily refreshed: resource-free times only ever
	// increase, so a popped entry whose true start exceeds its key is
	// simply re-pushed with the fresh key — when a pop matches its key,
	// it is the true minimum.
	estimate := func(i int) float64 {
		start := subSeq[i]
		if u := unitFree[unitIdx[i]]; u > start {
			start = u
		}
		if isXfer[pcs[i]] && busFree > start {
			start = busFree
		}
		return start
	}
	h := &startHeap{}
	for i := 0; i < n; i++ {
		h.push(heapEntry{key: 0, seq: i, idx: i})
	}
	seq := n

	remaining := n * len(ops)
	lastEmitted := -1
	for remaining > 0 {
		var best int
		var bestStart float64
		for {
			e := h.pop()
			cur := estimate(e.idx)
			if cur > e.key {
				e.key = cur
				h.push(e)
				continue
			}
			best = e.idx
			bestStart = cur
			break
		}
		if s := lastStart + issueGap; s > bestStart && st.Ops > 0 {
			bestStart = s
		}
		pc := pcs[best]
		if !sink(placements[best].Bank, placements[best].Subarray, &ops[pc]) {
			return st
		}
		if lastEmitted >= 0 && best != lastEmitted && pcs[lastEmitted] < len(ops) {
			st.Interleave++
		}
		lastEmitted = best

		if isXfer[pc] {
			st.Transfers++
			busFree = bestStart + busLat[pc]
			st.BusBusyNs += busLat[pc]
		}
		end := bestStart + opLat[pc]
		unitFree[unitIdx[best]] = end
		subSeq[best] = end
		lastStart = bestStart
		if end > st.SpanNs {
			st.SpanNs = end
		}
		pcs[best]++
		st.Ops++
		remaining--
		if pcs[best] < len(ops) {
			h.push(heapEntry{key: estimate(best), seq: seq, idx: best})
			seq++
		}
	}
	return st
}

type heapEntry struct {
	key float64
	seq int // FIFO tie-break: on equal keys the longest-waiting placement wins
	idx int
}

// less orders by start estimate, then FIFO, so equal-key placements are
// served round-robin (starving none, which matters under in-order issue).
func (a heapEntry) less(b heapEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// startHeap is a binary min-heap of placement start estimates; hand-rolled
// (rather than container/heap) to avoid interface boxing in the hot loop.
type startHeap struct{ a []heapEntry }

func (h *startHeap) push(e heapEntry) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.a[i].less(h.a[p]) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *startHeap) pop() heapEntry {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.a[l].less(h.a[m]) {
			m = l
		}
		if r < last && h.a[r].less(h.a[m]) {
			m = r
		}
		if m == i {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return top
}
