// Package baseline reimplements the state-of-the-art hands-tuned
// methodology for Bit-serial SIMD PUD architectures — the SIMDRAM approach
// the paper compares against. Its defining properties, each a consequence
// of the multi-bit (full-operand) programming abstraction:
//
//   - every operand — inputs, constants, and every intermediate result —
//     is stored at full width in D-group rows for its whole live range;
//   - all input data is transposed and written up front (the
//     bbop_trsp_init pattern of the SIMDRAM interface);
//   - row allocation reuses Linear Scan Register Allocation
//     (Poletto–Sarkar) over full-width operand intervals; values that do
//     not fit are spilled to secondary storage at full width;
//   - constant operands are written by the CPU and buffered (no C-group
//     data reuse — the granularity mismatch the paper's Figure 7 shows);
//   - each multi-bit operation expands to a hand-quality micro-op routine
//     (within one operation the code is as tight as CHOPPER's — the
//     hands-tuned codes are expertly written), but no optimization crosses
//     operation boundaries.
//
// As SIMDRAM generates an operation's µProgram once and binds each bbop's
// operand rows when it runs, Generate synthesizes one routine per operation
// signature and relocates it to every instance's rows (see routine).
package baseline

import (
	"context"
	"fmt"

	"chopper/internal/alloc"
	"chopper/internal/bitslice"
	"chopper/internal/codegen"
	"chopper/internal/dfg"
	"chopper/internal/guard"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/obs"
)

// Options configure baseline code generation.
type Options struct {
	Arch isa.Arch
	// DRows is the number of usable D-group rows per subarray.
	DRows int
	// MaxOps, when positive, caps the generated program's micro-ops (the
	// guard.DimMicroOps dimension) and Ctx, when non-nil, is observed for
	// cancellation, as in codegen.Options. Both are checked after every
	// multi-bit operation, so a stop overruns by at most one routine.
	MaxOps int
	Ctx    context.Context
}

// Stats summarizes the generated program.
type Stats struct {
	Writes, Reads     int
	SpilledValues     int
	SpilledRows       int
	OperandRows       int // linear-scan high-water mark
	ScratchRows       int // rows reserved for intra-op temporaries
	ConstWrites       int
	PerOpStats        codegen.Stats
	TotalInstructions int
}

// Result is a compiled baseline program plus host interface (same contract
// as codegen.Result).
type Result struct {
	Prog         *isa.Program
	InputTag     map[string]int
	OutputTag    map[string]int
	ConstPattern map[int]uint64
	Stats        Stats
}

// valueLoc locates one full-width value: a row per bit, or, when it is
// spilled, the consecutive spill slots from slot0.
type valueLoc struct {
	rows    []isa.Row
	slot0   int
	spilled bool
}

func (l *valueLoc) ext(bit int) codegen.ExtLoc {
	if l.spilled {
		return codegen.ExtLoc{Slot: l.slot0 + bit, Spilled: true}
	}
	return codegen.ExtLoc{Row: l.rows[bit]}
}

// generator is one Generate call: the allocation both of its walks read,
// the routine memo, and the program and host interface the second walk
// writes.
type generator struct {
	g        *dfg.Graph
	arch     isa.Arch
	lastUse  []int
	locs     []valueLoc
	poolRows int
	scratch  int
	stage    isa.Row // staging row inside the scratch region

	memo map[routineKey]*routine
	ws   opScratch
	bind []codegen.ExtLoc // the binding of the operation at hand

	prog    *isa.Program
	res     *Result
	nextTag int
}

// Generate compiles the dataflow graph with the hands-tuned methodology.
func Generate(g *dfg.Graph, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Scratch region for intra-operation temporaries, sized to the widest
	// operation's internal pressure (a multiplier holds roughly two words
	// plus carry state).
	maxW := 1
	for i := range g.Values {
		if w := g.Values[i].Width; w > maxW {
			maxW = w
		}
	}
	scratch := 2*maxW + 16
	if scratch > opts.DRows/2 {
		scratch = opts.DRows / 2
	}
	if scratch < 8 {
		return nil, fmt.Errorf("baseline: %d D rows is too small", opts.DRows)
	}
	poolRows := opts.DRows - scratch

	// Live intervals at full operand width. Inputs are transposed and
	// written up front (bbop_trsp_init), so their intervals start at 0;
	// constant rows are CPU-written just before their first use (they are
	// still written and buffered at full width — Figure 7's cost — but a
	// hand-tuner would not park every constant for the whole program).
	lastUse := make([]int, len(g.Values))
	firstUse := make([]int, len(g.Values))
	for i := range g.Values {
		lastUse[i] = -1
		firstUse[i] = -1
		for _, a := range g.Values[i].Args {
			lastUse[a] = i
			if firstUse[a] < 0 {
				firstUse[a] = i
			}
		}
	}
	endPos := len(g.Values)
	for _, o := range g.Outputs {
		lastUse[o] = endPos
		if firstUse[o] < 0 {
			firstUse[o] = endPos
		}
	}
	var intervals []alloc.Interval
	for i := range g.Values {
		if lastUse[i] < 0 {
			continue // dead value
		}
		start := i
		switch g.Values[i].Kind {
		case dfg.OpInput:
			start = 0
		case dfg.OpConst:
			start = firstUse[i]
		}
		intervals = append(intervals, alloc.Interval{
			ID: i, Start: start, End: lastUse[i], Rows: g.Values[i].Width,
		})
	}
	scan := alloc.LinearScan(intervals, poolRows)

	res := &Result{
		InputTag:     make(map[string]int),
		OutputTag:    make(map[string]int),
		ConstPattern: make(map[int]uint64),
	}
	st := &res.Stats
	st.ScratchRows = scratch
	st.OperandRows = scan.MaxRows
	st.SpilledValues = scan.Spilled
	st.SpilledRows = scan.SpillRows

	// Spilled values take consecutive slots in value order; the routines'
	// own spill slots come after them.
	nextSlot := 0
	locs := make([]valueLoc, len(g.Values))
	for i, as := range scan.Assignments {
		switch {
		case as.Spilled:
			locs[i] = valueLoc{slot0: nextSlot, spilled: true}
			nextSlot += g.Values[i].Width
		case as.Rows != nil:
			locs[i] = valueLoc{rows: as.Rows}
		}
	}
	gn := &generator{
		g: g, arch: opts.Arch, lastUse: lastUse, locs: locs,
		poolRows: poolRows, scratch: scratch, stage: isa.Row(opts.DRows - 1),
		memo: make(map[routineKey]*routine), res: res,
	}

	// First walk: resolve every operation's routine and size the stream,
	// checking ctx and the budget after each multi-bit operation at the
	// length the stream has there.
	routines := make([]*routine, len(g.Values))
	n := 0
	err := gn.visit(func(v int) { n += gn.transfers(v) }, func(v int) error {
		switch g.Values[v].Kind {
		case dfg.OpShl, dfg.OpShr, dfg.OpResize:
			n += gn.rewireLen(v)
		default:
			r, err := gn.routineFor(v)
			if err != nil {
				return err
			}
			routines[v] = r
			n += len(r.ops)
		}
		if err := guard.Ctx(opts.Ctx); err != nil {
			return err
		}
		return guard.Check(guard.DimMicroOps, opts.MaxOps, n)
	})
	if err != nil {
		return nil, err
	}
	for _, o := range g.Outputs {
		n += gn.transfers(int(o))
	}
	if err := guard.Check(guard.DimMicroOps, opts.MaxOps, n); err != nil {
		return nil, err
	}

	// Second walk: write the stream into a slice of exactly that length.
	prog := &isa.Program{Ops: make([]isa.Op, 0, n)}
	gn.prog = prog
	_ = gn.visit(gn.writeValue, func(v int) error { // never fails: every routine is resolved
		if r := routines[v]; r != nil {
			nextSlot = gn.emitRoutine(r, v, nextSlot)
		} else {
			gn.emitRewire(v)
		}
		return nil
	})
	gn.readOutputs()
	if len(prog.Ops) != n {
		panic(fmt.Sprintf("baseline: stream sized at %d micro-ops, %d written", n, len(prog.Ops)))
	}

	prog.SpillSlots = nextSlot
	prog.DRowsUsed = scan.MaxRows + scratch
	if err := prog.Validate(opts.DRows); err != nil {
		return nil, err
	}
	st.TotalInstructions = len(prog.Ops)
	res.Prog = prog
	return res, nil
}

// visit walks the stream's parts in program order: a write of every live
// input (the prolog), then for each live multi-bit operation a write of
// every constant it is the first to consume (constant rows are CPU-written
// just in time) and the operation itself. It stops at op's first error.
// The epilog's reads are the caller's.
func (gn *generator) visit(write func(v int), op func(v int) error) error {
	g := gn.g
	for i := range g.Values {
		if gn.lastUse[i] >= 0 && g.Values[i].Kind == dfg.OpInput {
			write(i)
		}
	}
	constWritten := make([]bool, len(g.Values))
	for i := range g.Values {
		v := &g.Values[i]
		if gn.lastUse[i] < 0 || v.Kind == dfg.OpInput || v.Kind == dfg.OpConst {
			continue
		}
		for _, a := range v.Args {
			if g.Values[a].Kind == dfg.OpConst && !constWritten[a] {
				write(int(a))
				constWritten[a] = true
			}
		}
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// transfers is the number of micro-ops that move value v between host and
// subarray: one per bit, two when it is spilled and passes through the
// staging row.
func (gn *generator) transfers(v int) int {
	n := gn.g.Values[v].Width
	if gn.locs[v].spilled {
		n *= 2
	}
	return n
}

// writeValue writes value i from the host at full width.
func (gn *generator) writeValue(i int) {
	v := &gn.g.Values[i]
	l := &gn.locs[i]
	st := &gn.res.Stats
	for b := 0; b < v.Width; b++ {
		tag := gn.nextTag
		gn.nextTag++
		switch v.Kind {
		case dfg.OpInput:
			gn.res.InputTag[fmt.Sprintf("%s[%d]", v.Name, b)] = tag
		case dfg.OpConst:
			pat := uint64(0)
			if v.Imm.Bit(b) == 1 {
				pat = ^uint64(0)
			}
			gn.res.ConstPattern[tag] = pat
			st.ConstWrites++
		}
		if l.spilled {
			gn.prog.Append(isa.NewWrite(gn.stage, tag))
			gn.prog.Append(isa.NewSpillOut(gn.stage, uint64(l.slot0+b)))
		} else {
			gn.prog.Append(isa.NewWrite(l.rows[b], tag))
		}
		st.Writes++
	}
}

// readOutputs is the epilog: every output read back to the host.
func (gn *generator) readOutputs() {
	readTag := 0
	for oi, o := range gn.g.Outputs {
		v := &gn.g.Values[o]
		l := &gn.locs[o]
		for b := 0; b < v.Width; b++ {
			gn.res.OutputTag[fmt.Sprintf("%s[%d]", gn.g.OutputNames[oi], b)] = readTag
			if l.spilled {
				gn.prog.Append(isa.NewSpillIn(gn.stage, uint64(l.slot0+b)))
				gn.prog.Append(isa.NewRead(gn.stage, readTag))
			} else {
				gn.prog.Append(isa.NewRead(l.rows[b], readTag))
			}
			gn.res.Stats.Reads++
			readTag++
		}
	}
}

// rewireShift is how many positions a shift or resize moves bits up.
func rewireShift(v *dfg.Value) int {
	switch v.Kind {
	case dfg.OpShl:
		return int(v.Imm.Int64())
	case dfg.OpShr:
		return -int(v.Imm.Int64())
	}
	return 0
}

// rewireLen is the number of micro-ops emitRewire writes for value vi: one
// move per bit, plus a pass through the staging row when the source bit or
// the destination is spilled.
func (gn *generator) rewireLen(vi int) int {
	v := &gn.g.Values[vi]
	src, dst := &gn.locs[v.Args[0]], &gn.locs[vi]
	srcW := gn.g.Values[v.Args[0]].Width
	shift := rewireShift(v)
	n := v.Width
	for b := 0; b < v.Width; b++ {
		if sb := b - shift; dst.spilled || src.spilled && sb >= 0 && sb < srcW {
			n++
		}
	}
	return n
}

// emitRewire handles shifts and resizes: in the multi-bit abstraction these
// are full-width row copies (bbop-style), zero-filling vacated positions.
func (gn *generator) emitRewire(vi int) {
	v := &gn.g.Values[vi]
	src, dst := &gn.locs[v.Args[0]], &gn.locs[vi]
	srcW := gn.g.Values[v.Args[0]].Width
	shift := rewireShift(v)
	prog, s := gn.prog, &gn.res.Stats.PerOpStats
	for b := 0; b < v.Width; b++ {
		sb := b - shift
		// Move source bit sb (or constant zero) into destination bit b.
		var from isa.Row
		switch {
		case sb < 0 || sb >= srcW:
			from = isa.C0
		case src.spilled:
			prog.Append(isa.NewSpillIn(gn.stage, uint64(src.slot0+sb)))
			from = gn.stage
		default:
			from = src.rows[sb]
		}
		if dst.spilled {
			if from != gn.stage {
				prog.Append(isa.NewAAP(from, gn.stage))
				s.AAPs++
			}
			prog.Append(isa.NewSpillOut(gn.stage, uint64(dst.slot0+b)))
		} else {
			prog.Append(isa.NewAAP(from, dst.rows[b]))
			s.AAPs++
		}
	}
}

// opScratch is the working storage synth's passes reuse from one routine
// of a Generate call to the next.
type opScratch struct {
	logic logic.Scratch
	code  codegen.Scratch
}

// routineKey is an operation's signature: everything its routine depends
// on within one Generate call, whose arch and scratch size are fixed.
type routineKey struct {
	kind  dfg.OpKind
	width int
	args  [3]int // operand widths, 0 past the kind's arity
	imm   string // Imm's decimal text, "" for nil
	spill uint8  // bit i: operand i is spilled; resultSpilled: the result is
}

const resultSpilled = 1 << 3

// routine is one signature's micro-op routine, generated once on
// placeholders: bit j of the operands, then of the result, is row j, or
// slot j when its value is spilled, and the scratch pool and the routine's
// own spill slots both start at n, the number of those bits. Every
// instance of the signature, the first included, is a relocation of it.
//
// Relocation is exact because codegen never branches on the number of an
// external row or slot, only on whether it is pinned or spilled: the
// routine generated on placeholders and relocated is the routine generated
// on the real binding (FuzzRoutineRelocation).
type routine struct {
	ops   []isa.Op
	n     int
	intra int // spill slots the routine takes for its own temporaries
	stats codegen.Stats
}

// routineFor returns operation vi's routine, synthesizing it at the first
// instance of its signature.
func (gn *generator) routineFor(vi int) (*routine, error) {
	v := &gn.g.Values[vi]
	key := routineKey{kind: v.Kind, width: v.Width}
	for ai, a := range v.Args {
		key.args[ai] = gn.g.Values[a].Width
		if gn.locs[a].spilled {
			key.spill |= 1 << ai
		}
	}
	if gn.locs[vi].spilled {
		key.spill |= resultSpilled
	}
	if v.Imm != nil {
		key.imm = v.Imm.String()
	}
	if r, ok := gn.memo[key]; ok {
		return r, nil
	}
	r, err := newRoutine(&gn.ws, vi, v, key.args[:len(v.Args)], gn.bindOp(vi), gn.arch, gn.scratch)
	if err != nil {
		return nil, err
	}
	gn.memo[key] = r
	return r, nil
}

// bindOp sets gn.bind to where operation vi's operand bits, then its
// result bits, live, and returns it.
func (gn *generator) bindOp(vi int) []codegen.ExtLoc {
	v := &gn.g.Values[vi]
	b := gn.bind[:0]
	for _, a := range v.Args {
		for bit := 0; bit < gn.g.Values[a].Width; bit++ {
			b = append(b, gn.locs[a].ext(bit))
		}
	}
	for bit := 0; bit < v.Width; bit++ {
		b = append(b, gn.locs[vi].ext(bit))
	}
	gn.bind = b
	return b
}

// emitRoutine writes operation vi's instance of r and returns the next
// free spill slot.
func (gn *generator) emitRoutine(r *routine, vi, slotBase int) int {
	var next int
	gn.prog.Ops, next = r.relocate(gn.prog.Ops, gn.bindOp(vi), gn.poolRows, slotBase)
	s := &gn.res.Stats.PerOpStats
	s.AAPs += r.stats.AAPs
	s.APs += r.stats.APs
	s.SpillOuts += r.stats.SpillOuts
	s.SpillIns += r.stats.SpillIns
	s.Writes += r.stats.Writes
	return next
}

// newRoutine synthesizes operation v's routine on placeholders laid out
// like bind: bit j is row j, or slot j where bind[j] is spilled.
func newRoutine(ws *opScratch, vi int, v *dfg.Value, argW []int, bind []codegen.ExtLoc, arch isa.Arch, scratch int) (*routine, error) {
	n := len(bind)
	ph := make([]codegen.ExtLoc, n)
	for j, b := range bind {
		if b.Spilled {
			ph[j] = codegen.ExtLoc{Slot: j, Spilled: true}
		} else {
			ph[j] = codegen.ExtLoc{Row: isa.Row(j)}
		}
	}
	res, err := synth(ws, vi, v, argW, ph, arch, scratch, n, n)
	if err != nil {
		return nil, err
	}
	return &routine{ops: res.Prog.Ops, n: n, intra: res.NextSlot - n, stats: res.Stats}, nil
}

// relocate appends r bound to bind, the instance's operand bits then its
// result bits, to ops: row j < n becomes bind[j]'s row and slot j < n its
// slot, a scratch row moves from the pool at n to the pool at poolRows,
// one of the routine's own slots from n to slotBase, and the C- and
// B-group rows stay. It returns the extended ops and the next free slot,
// which it computes as codegen.Generate does on the real binding.
func (r *routine) relocate(ops []isa.Op, bind []codegen.ExtLoc, poolRows, slotBase int) ([]isa.Op, int) {
	poolShift := isa.Row(poolRows - r.n)
	row := func(x isa.Row) isa.Row {
		switch {
		case x < 0:
			return x
		case int(x) < r.n:
			return bind[x].Row
		}
		return x + poolShift
	}
	start := len(ops)
	ops = append(ops, r.ops...)
	for i := start; i < len(ops); i++ {
		op := &ops[i]
		op.Src = row(op.Src)
		for d, x := range op.Dst {
			op.Dst[d] = row(x)
		}
		if op.Kind == isa.OpSpillOut || op.Kind == isa.OpSpillIn {
			if s := int(op.Imm); s < r.n {
				op.Imm = uint64(bind[s].Slot)
			} else {
				op.Imm = uint64(s - r.n + slotBase)
			}
		}
	}
	next := slotBase + r.intra
	for _, b := range bind {
		if b.Spilled && b.Slot+1 > next {
			next = b.Slot + 1
		}
	}
	return ops, next
}

// synth expands one multi-bit operation into its hand-quality micro-op
// routine by synthesizing the operation's logic net in isolation (operands
// opaque, so no cross-operand or constant folding — the multi-bit
// granularity barrier) and generating code with its operand bits, then its
// result bits, at ext. argW are the operand widths; temporaries take the
// scratch rows from poolBase and spill to slots from slotBase. vi names
// the operation in errors.
func synth(ws *opScratch, vi int, v *dfg.Value, argW []int, ext []codegen.ExtLoc, arch isa.Arch, scratch, poolBase, slotBase int) (*codegen.Result, error) {
	// Build the single-op graph.
	sub := &dfg.Graph{}
	extIn := make(map[string]codegen.ExtLoc)
	for ai, w := range argW {
		name := fmt.Sprintf("in%d", ai)
		sub.Values = append(sub.Values, dfg.Value{Kind: dfg.OpInput, Width: w, Name: name})
		sub.Inputs = append(sub.Inputs, dfg.ValueID(ai))
		for b := 0; b < w; b++ {
			extIn[fmt.Sprintf("%s[%d]", name, b)] = ext[0]
			ext = ext[1:]
		}
	}
	opv := dfg.Value{Kind: v.Kind, Width: v.Width, Imm: v.Imm}
	for ai := range argW {
		opv.Args = append(opv.Args, dfg.ValueID(ai))
	}
	sub.Values = append(sub.Values, opv)
	sub.Outputs = []dfg.ValueID{dfg.ValueID(len(sub.Values) - 1)}
	sub.OutputNames = []string{"out"}
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: op %d (%s): %w", vi, v.Kind, err)
	}

	net, err := bitslice.LowerOn(&ws.logic, sub, bitslice.Options{Fold: true})
	if err != nil {
		return nil, err
	}
	leg, err := ws.logic.Legalize(net, arch, logic.BuilderOptions{Fold: true})
	if err != nil {
		return nil, err
	}
	leg = ws.logic.DCETemp(leg)

	extOut := make(map[string]codegen.ExtLoc, v.Width)
	for b := 0; b < v.Width; b++ {
		extOut[fmt.Sprintf("out[%d]", b)] = ext[b]
	}
	res, err := codegen.Generate(leg, codegen.Options{
		Arch:     arch,
		Variant:  obs.Rename, // hands-tuned quality within one operation
		DRows:    scratch,
		PoolBase: poolBase,
		SlotBase: slotBase,
		ExtIn:    extIn,
		ExtOut:   extOut,
		Scratch:  &ws.code,
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: op %d (%s): %w", vi, v.Kind, err)
	}
	return res, nil
}
