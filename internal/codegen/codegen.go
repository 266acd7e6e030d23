// Package codegen translates a legalized bit-sliced logic net into a PUD
// micro-op program for one subarray. It is where the three OBS
// optimizations become row traffic:
//
//   - the gate execution order comes from obs.ScheduleGates (O1), and with
//     O3 from obs.Scratch.Chain, which puts each one-shot bitslice right
//     before its consumer;
//   - constant bitslices are sourced from the C-group rows instead of CPU
//     writes when O2 is enabled, and are host-written, buffered rows when
//     it is not;
//   - with O3 enabled, stores are lazy: a TRA result stays in the compute
//     rows and is only stored to a D-group row when the next operation
//     would clobber it while uses remain ("Store-Copy-Compute" becomes
//     "Store-Compute" for one-shot bitslices), and single-use inputs are
//     host-written directly into the compute rows.
//
// Gate-to-micro-op mapping (the Ambit/SIMDRAM command idiom):
//
//	AND x,y  =>  AAP x->T0; AAP y->T1; AAP C0->T2; AP T0,T1,T2
//	OR  x,y  =>  AAP x->T0; AAP y->T1; AAP C1->T2; AP T0,T1,T2
//	MAJ x,y,z => AAP x->T0; AAP y->T1; AAP z->T2; AP T0,T1,T2  (SIMDRAM)
//	NOT x    =>  AAP x->DCCi  (result available at ~DCCi)
package codegen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"chopper/internal/alloc"
	"chopper/internal/guard"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/obs"
)

// Options configure code generation. The net must already be legalized for
// Arch (see logic.Legalize); codegen verifies this.
type Options struct {
	Arch    isa.Arch
	Variant obs.Variant
	// DRows is the number of D-group rows the generator may allocate.
	DRows int

	// PoolBase offsets the allocatable region: rows [PoolBase,
	// PoolBase+DRows) belong to the generator, rows below PoolBase to the
	// caller (the baseline driver parks full-width operands there).
	PoolBase int
	// SlotBase offsets SSD spill slot numbering.
	SlotBase int

	// ExtIn declares inputs that do not come from the host: the value
	// already resides in a caller-managed row, or sits in a caller-managed
	// SSD spill slot. ExtOut routes outputs to caller-managed rows or
	// slots instead of host READs.
	ExtIn  map[string]ExtLoc
	ExtOut map[string]ExtLoc

	// MaxOps, when positive, caps how many micro-ops the generated program
	// may contain (the guard.DimMicroOps budget dimension). The check runs
	// after every emitted gate, so a runaway emission stops at a
	// deterministic gate index with a *guard.BudgetError.
	MaxOps int
	// Ctx, when non-nil, is observed periodically during emission for
	// cooperative cancellation.
	Ctx context.Context

	// Scratch, when non-nil, supplies reusable working storage so repeated
	// Generate calls stop allocating per-node tables. The scratch is reset
	// at the start of every Generate (never at the end), so one abandoned
	// by a panicking pass is safe to reuse. Not safe for concurrent use.
	Scratch *Scratch
}

// Scratch is codegen's per-compile working storage: every per-node table
// the emitter walks, the scheduler's tables, and the buffers the op stream
// and its epoch marks are staged in, all in dense reusable slices. A zero
// Scratch is valid; capacity grows to the largest net it has compiled.
type Scratch struct {
	loc      []location
	useOff   []int // CSR offsets into useBuf, len = gates+1
	useBuf   []int // consumption positions, grouped by node, ascending
	useIdx   []int // per-node absolute cursor into useBuf
	cur      []int // CSR fill cursor (shared by both CSR builds)
	isConst  []bool
	isInput  []bool
	external []bool
	nodeTag  []int
	constTag []int // host WRITE tag per constant node, -1 = unassigned
	slotOf   []int // SSD slot per node, -1 = none
	outOff   []int // CSR offsets into outBuf, len = gates+1
	outBuf   []int // output indices fed by each node
	outDone  []bool
	resList  []logic.NodeID // nodes resident in D rows, dense iteration
	resPos   []int          // index into resList, -1 = not resident
	pool     alloc.RowPool
	sched    obs.Scratch
	// ops and marks stage the program being emitted; the Result carries
	// exact-length copies, so neither a kernel nor a kernel cache holds
	// the staging capacity.
	ops   []isa.Op
	marks []int32
}

// Bytes is the storage the scratch retains, for a workspace's size
// ceiling.
func (s *Scratch) Bytes() int {
	const word = int(unsafe.Sizeof(int(0)))
	ints := cap(s.useOff) + cap(s.useBuf) + cap(s.useIdx) + cap(s.cur) + cap(s.nodeTag) +
		cap(s.constTag) + cap(s.slotOf) + cap(s.outOff) + cap(s.outBuf) + cap(s.resPos)
	bools := cap(s.isConst) + cap(s.isInput) + cap(s.external) + cap(s.outDone)
	return ints*word + bools + cap(s.marks)*int(unsafe.Sizeof(int32(0))) +
		cap(s.loc)*int(unsafe.Sizeof(location{})) +
		cap(s.resList)*int(unsafe.Sizeof(logic.NodeID(0))) +
		cap(s.ops)*int(unsafe.Sizeof(isa.Op{})) +
		s.sched.Bytes()
}

// prepare sizes and clears the scratch for a net with gates nodes and
// outs outputs.
func (s *Scratch) prepare(gates, outs int) {
	if cap(s.loc) < gates {
		s.loc = make([]location, gates)
		s.useOff = make([]int, gates+1)
		s.useIdx = make([]int, gates)
		s.cur = make([]int, gates+1)
		s.isConst = make([]bool, gates)
		s.isInput = make([]bool, gates)
		s.external = make([]bool, gates)
		s.nodeTag = make([]int, gates)
		s.constTag = make([]int, gates)
		s.slotOf = make([]int, gates)
		s.outOff = make([]int, gates+1)
		s.resPos = make([]int, gates)
	}
	s.loc = s.loc[:gates]
	clear(s.loc)
	s.useOff = s.useOff[:gates+1]
	s.useIdx = s.useIdx[:gates]
	s.cur = s.cur[:gates+1]
	s.isConst = s.isConst[:gates]
	clear(s.isConst)
	s.isInput = s.isInput[:gates]
	clear(s.isInput)
	s.external = s.external[:gates]
	clear(s.external)
	s.nodeTag = s.nodeTag[:gates]
	s.constTag = s.constTag[:gates]
	s.slotOf = s.slotOf[:gates]
	for i := range s.constTag {
		s.nodeTag[i] = -1
		s.constTag[i] = -1
		s.slotOf[i] = -1
	}
	s.outOff = s.outOff[:gates+1]
	s.resPos = s.resPos[:gates]
	if cap(s.outDone) < outs {
		s.outDone = make([]bool, outs)
	}
	s.outDone = s.outDone[:outs]
	clear(s.outDone)
	s.resList = s.resList[:0]
}

// ExtLoc locates an externally managed value: a resident row, or an SSD
// spill slot when Spilled is set.
type ExtLoc struct {
	Row     isa.Row
	Slot    int
	Spilled bool
}

// Stats summarizes the generated program.
type Stats struct {
	AAPs, APs     int
	Writes, Reads int
	SpillOuts     int
	SpillIns      int
	Drops         int // input/const rows evicted without SSD traffic
	StoresElided  int // TRA results never stored thanks to O3
	DirectWrites  int // inputs host-written straight into compute rows (O3)
	ConstCopies   int // constants sourced from the C-group (O2)
	ConstWrites   int // constant rows written by the host (no O2)
	MaxLiveRows   int // D-group high-water mark
}

// Result is a compiled single-subarray program plus its host interface.
type Result struct {
	Prog *isa.Program

	// InputTag maps a net input name (e.g. "a[3]") to the WRITE tag the
	// host must answer with that bit-row.
	InputTag map[string]int
	// OutputTag maps a net output name to the READ tag it arrives under.
	OutputTag map[string]int
	// ConstPattern maps WRITE tags above the input range to the fill
	// pattern (0 or ^0) of host-materialized constant rows (O2 off).
	ConstPattern map[int]uint64

	// NextSlot is the first spill slot id not used by this program
	// (callers generating multiple programs chain SlotBase through it).
	NextSlot int

	Stats Stats
}

type locKind uint8

const (
	locNowhere  locKind = iota // not materialized (pristine input/const)
	locDRow                    // in a pool-allocated D-group row
	locExternal                // in a caller-managed D-group row (pinned)
	locB                       // in the T rows as the last TRA result
	locDCC                     // in a dual-contact complement row
	locSpilled                 // on the SSD
	locDead                    // no uses remain
)

type location struct {
	kind locKind
	row  isa.Row // D row, or DCC0N/DCC1N for locDCC
	slot int     // spill slot for locSpilled
}

type emitter struct {
	net  *logic.Net
	opts Options

	prog isa.Program
	pool *alloc.RowPool

	// s holds every per-node table (locations, CSR use positions, tags,
	// the resident set) in dense reusable storage; see Scratch.
	s *Scratch

	lr logic.NodeID // node whose value currently fills T0..T2 (None if stale)

	dccHold [2]logic.NodeID // node held by each DCC pair (None if free)

	inputTag  map[string]int
	nextTag   int
	nextSlot  int
	extSlots  int // one past the highest ExtIn/ExtOut spill slot
	constPats map[int]uint64

	checked int // ops [0, checked) passed isa's per-op check

	outPos int // schedule position at which outputs are consumed

	stats Stats
}

// outs returns the output indices node n feeds (CSR slice of outBuf).
func (e *emitter) outs(n logic.NodeID) []int {
	return e.s.outBuf[e.s.outOff[n]:e.s.outOff[n+1]]
}

// setLoc updates a node's location, maintaining the resident index (a
// dense list with swap-remove, so spill victim selection both scans at
// most DRows candidates and iterates deterministically).
func (e *emitter) setLoc(n logic.NodeID, l location) {
	was, is := e.s.loc[n].kind == locDRow, l.kind == locDRow
	if was && !is {
		s := e.s
		i := s.resPos[n]
		last := s.resList[len(s.resList)-1]
		s.resList[i] = last
		s.resPos[last] = i
		s.resList = s.resList[:len(s.resList)-1]
	} else if !was && is {
		s := e.s
		s.resPos[n] = len(s.resList)
		s.resList = append(s.resList, n)
	}
	e.s.loc[n] = l
}

// ErrInvalidProgram marks a Generate failure that is the generator's own
// fault: the program it emitted failed isa.Program.Validate. Callers with
// a fallback pipeline treat it as a failed self-check, not as a bad input.
var ErrInvalidProgram = errors.New("codegen: generated program failed validation")

// TestBreakHook, when non-nil, is handed every finished program, which
// Generate then sweeps whole with isa.Program.Validate. It exists so tests
// of the compiler's graceful degradation ladder can force a structurally
// broken program on demand; production code never sets it.
var TestBreakHook func(variant obs.Variant, prog *isa.Program)

// maxDRows is how many D rows an isa.Row can name: D0 to D32767.
const maxDRows = math.MaxInt16 + 1

// chainOneShots runs obs.Scratch.Chain on the O3 schedule. Only tests turn
// it off, to compare against the program the unchained order yields.
var chainOneShots = true

// Generate compiles the net into a single-subarray program. The program
// is validated (isa's per-op check against PoolBase+DRows as each gate's
// ops are emitted, the epoch marks at the end) before it is returned.
func Generate(net *logic.Net, opts Options) (*Result, error) {
	if err := net.CheckGateSet(logic.NativeGates(opts.Arch)); err != nil {
		return nil, fmt.Errorf("codegen: net not legalized for %v: %w", opts.Arch, err)
	}
	if opts.DRows < 4 {
		return nil, fmt.Errorf("codegen: need at least 4 D-group rows, have %d", opts.DRows)
	}
	if top := opts.PoolBase + opts.DRows; top > maxDRows {
		return nil, fmt.Errorf("codegen: D rows up to D%d, past the %d an isa.Row can name", top-1, maxDRows)
	}
	s := opts.Scratch
	if s == nil {
		s = new(Scratch)
	}
	order := s.sched.ScheduleGates(net, opts.Variant.HasSchedule())
	// Chain's guard counts computed bitslices only, but the D rows also
	// hold multi-use inputs, and a dropped input costs a host WRITE to
	// bring back. Where the computed bitslices alone overflow the rows,
	// moves that lengthen inputs' live ranges evict more (SW-512 at 1024
	// rows: 2,027 µops fewer, 258 more input WRITEs), so the order is not
	// chained there.
	if opts.Variant.HasRename() && chainOneShots && s.sched.Live() <= opts.DRows {
		order, _ = s.sched.Chain(net, order)
	}
	s.prepare(len(net.Gates), len(net.Outputs))
	s.pool.Reset(opts.PoolBase, opts.DRows)

	e := &emitter{
		net:       net,
		opts:      opts,
		pool:      &s.pool,
		s:         s,
		lr:        logic.None,
		dccHold:   [2]logic.NodeID{logic.None, logic.None},
		inputTag:  make(map[string]int),
		constPats: make(map[int]uint64),
		outPos:    len(order),
	}
	// The op stream is staged in the scratch. A computation gate expands
	// to at most ~5 micro-ops (three slot fills, the activation, a result
	// store), plus one read/store per output; a staging buffer smaller
	// than that is replaced up front so emission does not regrow it.
	if est := 5*len(order) + 2*len(net.Outputs) + 8; cap(s.ops) < est {
		s.ops = make([]isa.Op, 0, est)
	}
	if cap(s.marks) < len(order)+1 {
		s.marks = make([]int32, 0, len(order)+1)
	}
	e.prog.Ops, e.prog.EpochMarks = s.ops[:0], s.marks[:0]
	// CSR index of the output positions each node feeds, so results can
	// be read back eagerly (as soon as final) instead of buffering every
	// output row until the end of the program.
	clear(s.outOff)
	for _, o := range net.Outputs {
		s.outOff[o+1]++
	}
	for i := 0; i < len(net.Gates); i++ {
		s.outOff[i+1] += s.outOff[i]
	}
	if cap(s.outBuf) < len(net.Outputs) {
		s.outBuf = make([]int, len(net.Outputs))
	}
	s.outBuf = s.outBuf[:len(net.Outputs)]
	copy(s.cur, s.outOff)
	for i, o := range net.Outputs {
		s.outBuf[s.cur[o]] = i
		s.cur[o]++
	}
	for i := range net.Gates {
		switch net.Gates[i].Kind {
		case logic.GConst0, logic.GConst1:
			s.isConst[i] = true
		case logic.GInput:
			s.isInput[i] = true
		}
	}
	for i, in := range net.Inputs {
		if ext, ok := opts.ExtIn[net.InputNames[i]]; ok {
			s.external[in] = true
			if ext.Spilled {
				s.loc[in] = location{kind: locSpilled, slot: ext.Slot}
				s.slotOf[in] = ext.Slot
			} else {
				s.loc[in] = location{kind: locExternal, row: ext.Row}
			}
			continue
		}
		s.nodeTag[in] = i
		e.inputTag[net.InputNames[i]] = i
	}
	e.nextTag = len(net.Inputs)
	e.nextSlot = opts.SlotBase
	for _, ext := range opts.ExtIn {
		if ext.Spilled {
			e.extSlots = max(e.extSlots, ext.Slot+1)
		}
	}
	for _, ext := range opts.ExtOut {
		if ext.Spilled {
			e.extSlots = max(e.extSlots, ext.Slot+1)
		}
	}

	// Consumption positions: one entry per (gate, distinct arg); outputs
	// consume at outPos. Two passes over the same walk build a CSR layout
	// (counts, prefix sum, fill) where per-node append slices would
	// allocate.
	eachUse := func(use func(pos int, arg logic.NodeID)) {
		for pos, gid := range order {
			g := &net.Gates[gid]
			var seen [3]logic.NodeID
			ns := 0
			for a := 0; a < g.Kind.Arity(); a++ {
				arg := g.Args[a]
				dup := false
				for k := 0; k < ns; k++ {
					if seen[k] == arg {
						dup = true
					}
				}
				if !dup {
					seen[ns] = arg
					ns++
					use(pos, arg)
				}
			}
		}
		for _, o := range net.Outputs {
			use(e.outPos, o)
		}
	}
	clear(s.useOff)
	eachUse(func(_ int, arg logic.NodeID) { s.useOff[arg+1]++ })
	for i := 0; i < len(net.Gates); i++ {
		s.useOff[i+1] += s.useOff[i]
	}
	totalUses := s.useOff[len(net.Gates)]
	if cap(s.useBuf) < totalUses {
		s.useBuf = make([]int, totalUses)
	}
	s.useBuf = s.useBuf[:totalUses]
	copy(s.cur, s.useOff)
	eachUse(func(pos int, arg logic.NodeID) {
		s.useBuf[s.cur[arg]] = pos
		s.cur[arg]++
	})
	copy(s.useIdx, s.useOff[:len(net.Gates)])

	res := &Result{
		InputTag:     e.inputTag,
		OutputTag:    make(map[string]int, len(net.Outputs)),
		ConstPattern: e.constPats,
	}
	for i := range net.Outputs {
		res.OutputTag[net.OutputNames[i]] = i
	}
	for pos, gid := range order {
		if pos&63 == 0 {
			if err := guard.Ctx(opts.Ctx); err != nil {
				return nil, err
			}
		}
		if err := e.emitGate(pos, gid); err != nil {
			return nil, err
		}
		if e.opts.Variant.HasRename() {
			if err := e.eagerRead(pos, gid); err != nil {
				return nil, err
			}
		}
		if err := e.checkOps(max(e.nextSlot, e.extSlots)); err != nil {
			return nil, err
		}
		if err := guard.Check(guard.DimMicroOps, opts.MaxOps, len(e.prog.Ops)); err != nil {
			return nil, err
		}
		if err := e.markEpoch(); err != nil {
			return nil, err
		}
	}
	for i, o := range net.Outputs {
		if e.s.outDone[i] {
			continue
		}
		row, err := e.sourceRowForRead(o)
		if err != nil {
			return nil, fmt.Errorf("codegen: output %s: %w", net.OutputNames[i], err)
		}
		if ext, ok := opts.ExtOut[net.OutputNames[i]]; ok {
			if ext.Spilled {
				e.emit(isa.NewSpillOut(row, uint64(ext.Slot)))
				e.stats.SpillOuts++
			} else {
				e.emit(isa.NewCopy(row, ext.Row))
				e.stats.AAPs++
			}
			e.s.outDone[i] = true
			e.finishOutput(o)
			continue
		}
		e.emit(isa.NewRead(row, i))
		e.stats.Reads++
		e.s.outDone[i] = true
		e.finishOutput(o)
	}

	if err := guard.Check(guard.DimMicroOps, opts.MaxOps, len(e.prog.Ops)); err != nil {
		return nil, err
	}
	if err := e.markEpoch(); err != nil {
		return nil, err
	}

	e.stats.MaxLiveRows = e.pool.MaxUsed()
	e.prog.DRowsUsed = e.pool.MaxUsed()
	maxSlot := max(e.nextSlot, e.extSlots)
	e.prog.SpillSlots = maxSlot
	res.NextSlot = maxSlot
	if err := e.checkOps(maxSlot); err != nil {
		return nil, err
	}
	// Keep whatever the staging buffers grew to, then hand out exact-length
	// copies. Every op passed isa's per-op check as it was emitted; only a
	// program the test hook rewrote is swept again whole.
	s.ops, s.marks = e.prog.Ops[:0], e.prog.EpochMarks[:0]
	err := e.prog.ValidateMarks()
	if TestBreakHook != nil {
		TestBreakHook(opts.Variant, &e.prog)
		err = e.prog.Validate(opts.PoolBase + opts.DRows)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidProgram, err)
	}
	res.Prog = &isa.Program{
		Ops:        slices.Clone(e.prog.Ops),
		DRowsUsed:  e.prog.DRowsUsed,
		SpillSlots: e.prog.SpillSlots,
		EpochMarks: slices.Clone(e.prog.EpochMarks),
	}
	res.Stats = e.stats
	return res, nil
}

// emit appends one micro-op to the staged program.
func (e *emitter) emit(op isa.Op) { e.prog.Ops = append(e.prog.Ops, op) }

// checkOps runs isa's per-op check (Program.ValidateOps, Validate's own
// check and wording) over the ops emitted since the last call, while they
// are still in cache, bounding spill slots by slots, the bound known now.
// The bound only grows, so what passes here passes the whole-program sweep.
func (e *emitter) checkOps(slots int) error {
	if err := e.prog.ValidateOps(e.checked, len(e.prog.Ops), e.opts.PoolBase+e.opts.DRows, slots); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidProgram, err)
	}
	e.checked = len(e.prog.Ops)
	return nil
}

// markEpoch records the current op count as a legal recovery cut point.
// It is called after each scheduled gate's expansion (and its eager reads)
// retires, so an epoch boundary chosen by the recovery runtime never lands
// inside the micro-op cluster of a single logic gate. Consecutive gates
// that emitted no ops collapse into one mark. A mark is an int32, so a
// program longer than math.MaxInt32 ops is rejected here.
func (e *emitter) markEpoch() error {
	n := len(e.prog.Ops)
	if n > math.MaxInt32 {
		return fmt.Errorf("codegen: %d micro-ops, more than an epoch mark can index", n)
	}
	if n == 0 {
		return nil
	}
	if l := len(e.prog.EpochMarks); l > 0 && int(e.prog.EpochMarks[l-1]) == n {
		return nil
	}
	e.prog.EpochMarks = append(e.prog.EpochMarks, int32(n))
	return nil
}

// eagerRead retires outputs whose value just became final: the gate at pos
// feeds one or more program outputs and has no further computational
// consumers. Retiring now — a host READ, or a store to the caller's
// external row/slot for ExtOut — releases the row immediately instead of
// buffering every output until program end, which is essential for kernels
// with many outputs.
func (e *emitter) eagerRead(pos int, gid logic.NodeID) error {
	outs := e.outs(gid)
	if len(outs) == 0 {
		return nil
	}
	// Remaining uses must be exactly the output pseudo-use.
	if e.nextUse(gid) != e.outPos {
		return nil
	}
	return e.retireOutputs(gid, pos)
}

// retireOutputs emits the host READ (or external store) for every output
// fed by node n, then frees n's storage.
func (e *emitter) retireOutputs(n logic.NodeID, pos int) error {
	row, err := e.materialize(n, pos)
	if err != nil {
		return err
	}
	for _, oi := range e.outs(n) {
		if e.s.outDone[oi] {
			continue
		}
		if ext, ok := e.opts.ExtOut[e.net.OutputNames[oi]]; ok {
			if ext.Spilled {
				e.emit(isa.NewSpillOut(row, uint64(ext.Slot)))
				e.stats.SpillOuts++
			} else {
				e.emit(isa.NewCopy(row, ext.Row))
				e.stats.AAPs++
			}
		} else {
			e.emit(isa.NewRead(row, oi))
			e.stats.Reads++
		}
		e.s.outDone[oi] = true
	}
	// The output pseudo-use is satisfied; free the storage.
	e.s.useIdx[n] = e.s.useOff[n+1]
	e.release(n)
	return nil
}

// finishOutput releases node n's storage once every output it feeds has
// been retired, so refills of later (spilled) outputs have rows to land in.
func (e *emitter) finishOutput(n logic.NodeID) {
	for _, oi := range e.outs(n) {
		if !e.s.outDone[oi] {
			return
		}
	}
	if e.s.loc[n].kind != locDead {
		e.s.useIdx[n] = e.s.useOff[n+1]
		e.release(n)
	}
}

// remaining returns the number of unconsumed uses of node n.
func (e *emitter) remaining(n logic.NodeID) int {
	return e.s.useOff[n+1] - e.s.useIdx[n]
}

// nextUse returns the next consumption position of n (outPos+1 if none).
func (e *emitter) nextUse(n logic.NodeID) int {
	if e.s.useIdx[n] >= e.s.useOff[n+1] {
		return e.outPos + 1
	}
	return e.s.useBuf[e.s.useIdx[n]]
}

// consume advances n's use cursor past position pos. If the only use left
// is the output pseudo-use, the output is retired right away (with O3):
// values that are both outputs and operands finalize here, not at their
// defining gate.
func (e *emitter) consume(n logic.NodeID, pos int) {
	for e.s.useIdx[n] < e.s.useOff[n+1] && e.s.useBuf[e.s.useIdx[n]] <= pos {
		e.s.useIdx[n]++
	}
	if e.remaining(n) == 0 && e.s.loc[n].kind != locDead {
		e.release(n)
		return
	}
	if e.opts.Variant.HasRename() && len(e.outs(n)) > 0 &&
		e.remaining(n) == len(e.outs(n)) && e.nextUse(n) == e.outPos &&
		e.s.loc[n].kind != locDead && e.s.loc[n].kind != locB {
		// Ignore retire errors here; the end-of-program path will retry
		// and report them with output context.
		_ = e.retireOutputs(n, pos)
	}
}

// release frees whatever storage a dead node occupies.
func (e *emitter) release(n logic.NodeID) {
	switch e.s.loc[n].kind {
	case locDRow:
		e.pool.Free(e.s.loc[n].row)
	case locDCC:
		for i := range e.dccHold {
			if e.dccHold[i] == n {
				e.dccHold[i] = logic.None
			}
		}
	}
	if e.lr == n {
		e.lr = logic.None
	}
	e.setLoc(n, location{kind: locDead})
}

// allocD obtains a free D row, evicting by Belady order if necessary:
// pristine-on-host rows (inputs/constants) are dropped for free; computed
// values are spilled to the SSD.
func (e *emitter) allocD(pos int) (isa.Row, error) {
	if r, ok := e.pool.Alloc(); ok {
		return r, nil
	}
	// Pick victims among nodes resident in D rows.
	victim := logic.None
	victimDrop := false
	victimNext := -1
	for _, id := range e.s.resList {
		n := int(id)
		nu := e.nextUse(id)
		if nu <= pos {
			// Needed by the operation being assembled right now: pinned.
			continue
		}
		drop := (e.s.isInput[n] || e.s.isConst[n]) && !e.s.external[n]
		// Prefer droppable rows; among equals, furthest next use.
		better := false
		switch {
		case victim == logic.None:
			better = true
		case drop != victimDrop:
			better = drop
		default:
			better = nu > victimNext
		}
		if better {
			victim, victimDrop, victimNext = id, drop, nu
		}
	}
	if victim == logic.None {
		return isa.RowNone, fmt.Errorf("codegen: subarray too small: all %d D rows are needed at step %d", e.opts.DRows, pos)
	}
	row := e.s.loc[victim].row
	if victimDrop {
		// The host still has this data; just forget the row.
		e.setLoc(victim, location{kind: locNowhere})
		e.stats.Drops++
	} else {
		slot := e.s.slotOf[victim]
		if slot < 0 {
			slot = e.nextSlot
			e.nextSlot++
			e.s.slotOf[victim] = slot
		}
		e.emit(isa.NewSpillOut(row, uint64(slot)))
		e.stats.SpillOuts++
		e.setLoc(victim, location{kind: locSpilled, slot: slot})
	}
	e.pool.Free(row)
	r, ok := e.pool.Alloc()
	if !ok {
		return isa.RowNone, fmt.Errorf("codegen: allocator inconsistency")
	}
	return r, nil
}

// materialize ensures node n's value lives in an addressable row and
// returns that row. It never places into B-group (callers copy from the
// returned row into compute rows). pos is the current schedule position.
func (e *emitter) materialize(n logic.NodeID, pos int) (isa.Row, error) {
	switch e.s.loc[n].kind {
	case locDRow, locExternal:
		return e.s.loc[n].row, nil
	case locDCC:
		return e.s.loc[n].row, nil
	case locB:
		return isa.T0, nil
	case locSpilled:
		row, err := e.allocD(pos)
		if err != nil {
			return isa.RowNone, err
		}
		slot := e.s.loc[n].slot
		e.emit(isa.NewSpillIn(row, uint64(slot)))
		e.stats.SpillIns++
		e.setLoc(n, location{kind: locDRow, row: row})
		return row, nil
	case locNowhere:
		switch {
		case e.s.isConst[n]:
			if e.opts.Variant.HasReuse() {
				// O2: the constant is architecturally present.
				if e.net.Gates[n].Kind == logic.GConst1 {
					return isa.C1, nil
				}
				return isa.C0, nil
			}
			// Host writes and buffers a constant row.
			tag := e.s.constTag[n]
			if tag < 0 {
				tag = e.nextTag
				e.nextTag++
				e.s.constTag[n] = tag
				pat := uint64(0)
				if e.net.Gates[n].Kind == logic.GConst1 {
					pat = ^uint64(0)
				}
				e.constPats[tag] = pat
			}
			row, err := e.allocD(pos)
			if err != nil {
				return isa.RowNone, err
			}
			e.emit(isa.NewWrite(row, tag))
			e.stats.Writes++
			e.stats.ConstWrites++
			e.setLoc(n, location{kind: locDRow, row: row})
			return row, nil
		case e.s.isInput[n]:
			row, err := e.allocD(pos)
			if err != nil {
				return isa.RowNone, err
			}
			e.emit(isa.NewWrite(row, e.s.nodeTag[n]))
			e.stats.Writes++
			e.setLoc(n, location{kind: locDRow, row: row})
			return row, nil
		}
		return isa.RowNone, fmt.Errorf("codegen: node %d has no value to materialize", n)
	}
	return isa.RowNone, fmt.Errorf("codegen: node %d is dead but referenced", n)
}

// sourceRowForRead is materialize for output reads (B results read from T0,
// NOT results from their complement row).
func (e *emitter) sourceRowForRead(n logic.NodeID) (isa.Row, error) {
	return e.materialize(n, e.outPos)
}

// flushLR stores the last TRA result to a D row if uses remain beyond the
// current gate's own consumption. consumedNow is how it is referenced by
// the gate about to execute.
func (e *emitter) flushLR(pos int, consumedNow bool) error {
	if e.lr == logic.None {
		return nil
	}
	n := e.lr
	rem := e.remaining(n)
	if consumedNow {
		rem-- // this gate's consumption doesn't require a buffered copy
	}
	if rem > 0 && e.s.loc[n].kind == locB {
		row, err := e.allocD(pos)
		if err != nil {
			return err
		}
		e.emit(isa.NewCopy(isa.T0, row))
		e.stats.AAPs++
		e.setLoc(n, location{kind: locDRow, row: row})
	} else if rem <= 0 && e.s.loc[n].kind == locB && e.opts.Variant.HasRename() {
		e.stats.StoresElided++
	}
	// Either way, the T rows are about to be clobbered.
	if e.s.loc[n].kind == locB {
		if rem > 0 {
			return fmt.Errorf("codegen: losing live value %d", n)
		}
		e.setLoc(n, location{kind: locDead})
	}
	e.lr = logic.None
	return nil
}

// dccFor picks a DCC pair for a NOT result, storing the current holder
// first if it is still live and unbuffered.
func (e *emitter) dccFor(pos int) (int, error) {
	// Prefer a free pair.
	for i, h := range e.dccHold {
		if h == logic.None {
			return i, nil
		}
		if e.s.loc[h].kind != locDCC {
			// Holder moved (stored/spilled/dead); pair is reusable.
			e.dccHold[i] = logic.None
			return i, nil
		}
	}
	// Evict the holder with the furthest next use.
	iv := 0
	if e.nextUse(e.dccHold[1]) > e.nextUse(e.dccHold[0]) {
		iv = 1
	}
	h := e.dccHold[iv]
	if e.remaining(h) > 0 {
		row, err := e.allocD(pos)
		if err != nil {
			return 0, err
		}
		e.emit(isa.NewCopy(e.s.loc[h].row, row))
		e.stats.AAPs++
		e.setLoc(h, location{kind: locDRow, row: row})
	} else {
		e.setLoc(h, location{kind: locDead})
	}
	e.dccHold[iv] = logic.None
	return iv, nil
}

var dccRows = [2][2]isa.Row{{isa.DCC0, isa.DCC0N}, {isa.DCC1, isa.DCC1N}}

func (e *emitter) emitGate(pos int, gid logic.NodeID) error {
	g := &e.net.Gates[gid]
	rename := e.opts.Variant.HasRename()

	switch g.Kind {
	case logic.GNot:
		arg := g.Args[0]
		chained := rename && e.lr == arg && e.s.loc[arg].kind == locB
		if err := e.flushLR(pos, e.lr == arg); err != nil {
			return err
		}
		pair, err := e.dccFor(pos)
		if err != nil {
			return err
		}
		if chained {
			e.emit(isa.NewCopy(isa.T0, dccRows[pair][0]))
			e.stats.AAPs++
		} else if err := e.fillSlot(arg, dccRows[pair][0], pos); err != nil {
			return err
		}
		e.consume(arg, pos)
		e.dccHold[pair] = gid
		e.setLoc(gid, location{kind: locDCC, row: dccRows[pair][1]})
		if !rename {
			// Baseline behavior: store the result immediately.
			row, err := e.allocD(pos)
			if err != nil {
				return err
			}
			e.emit(isa.NewCopy(dccRows[pair][1], row))
			e.stats.AAPs++
			e.dccHold[pair] = logic.None
			e.setLoc(gid, location{kind: locDRow, row: row})
		}
		return nil

	case logic.GAnd, logic.GOr, logic.GMaj:
		// Determine the three TRA operands.
		type slotSrc struct {
			node    logic.NodeID // None for the control row
			control isa.Row
		}
		var slots [3]slotSrc
		switch g.Kind {
		case logic.GAnd:
			slots = [3]slotSrc{{node: g.Args[0]}, {node: g.Args[1]}, {node: logic.None, control: isa.C0}}
		case logic.GOr:
			slots = [3]slotSrc{{node: g.Args[0]}, {node: g.Args[1]}, {node: logic.None, control: isa.C1}}
		case logic.GMaj:
			slots = [3]slotSrc{{node: g.Args[0]}, {node: g.Args[1]}, {node: g.Args[2]}}
		}
		consumesLR := false
		if e.lr != logic.None && e.s.loc[e.lr].kind == locB {
			for _, s := range slots {
				if s.node == e.lr {
					consumesLR = true
				}
			}
		}
		lrNode := e.lr
		if err := e.flushLR(pos, consumesLR); err != nil {
			return err
		}

		tRows := [3]isa.Row{isa.T0, isa.T1, isa.T2}
		// Fill slots; with O3, slots holding the last result need no copy
		// (the value is in every T row after the previous TRA).
		for i, s := range slots {
			if s.node == logic.None {
				e.emit(isa.NewCopy(s.control, tRows[i]))
				e.stats.AAPs++
				continue
			}
			if rename && consumesLR && s.node == lrNode {
				// The previous TRA left its result in all three T rows,
				// so this slot is already filled — claim it copy-free.
				continue
			}
			if err := e.fillSlot(s.node, tRows[i], pos); err != nil {
				return err
			}
		}
		e.emit(isa.NewAP(isa.T0, isa.T1, isa.T2))
		e.stats.APs++
		for a := 0; a < g.Kind.Arity(); a++ {
			e.consume(g.Args[a], pos)
		}
		e.lr = gid
		e.setLoc(gid, location{kind: locB})
		if !rename {
			// Baseline behavior: store every result immediately.
			if err := e.flushLR(pos+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("codegen: unexpected gate kind %s at %d", g.Kind, gid)
}

// fillSlot places node n's value into the compute row target. With O3, a
// pristine single-use input is host-written straight into the compute row
// (eliminating both its D-group buffer and the copy); otherwise the value
// is materialized into an addressable row and copied in with an AAP.
func (e *emitter) fillSlot(n logic.NodeID, target isa.Row, pos int) error {
	if e.opts.Variant.HasRename() && e.s.isInput[n] && !e.s.external[n] && e.s.loc[n].kind == locNowhere && e.s.useOff[n+1]-e.s.useOff[n] == 1 {
		e.emit(isa.NewWrite(target, e.s.nodeTag[n]))
		e.stats.Writes++
		e.stats.DirectWrites++
		return nil
	}
	src, err := e.materialize(n, pos)
	if err != nil {
		return err
	}
	if src.IsCGroup() {
		e.stats.ConstCopies++
	}
	e.emit(isa.NewCopy(src, target))
	e.stats.AAPs++
	return nil
}
