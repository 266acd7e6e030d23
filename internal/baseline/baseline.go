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

// valueLoc locates one full-width value: rows or spill slots per bit.
type valueLoc struct {
	rows    []isa.Row
	slots   []int
	spilled bool
}

func (l *valueLoc) ext(bit int) codegen.ExtLoc {
	if l.spilled {
		return codegen.ExtLoc{Slot: l.slots[bit], Spilled: true}
	}
	return codegen.ExtLoc{Row: l.rows[bit]}
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
	prog := &isa.Program{}
	st := &res.Stats
	st.ScratchRows = scratch
	st.OperandRows = scan.MaxRows
	st.SpilledValues = scan.Spilled
	st.SpilledRows = scan.SpillRows

	// Assign slots to spilled values.
	nextSlot := 0
	locs := make([]valueLoc, len(g.Values))
	for i := range g.Values {
		as, ok := scan.Assignments[i]
		if !ok {
			continue
		}
		if as.Spilled {
			w := g.Values[i].Width
			slots := make([]int, w)
			for b := range slots {
				slots[b] = nextSlot
				nextSlot++
			}
			locs[i] = valueLoc{slots: slots, spilled: true}
		} else {
			locs[i] = valueLoc{rows: as.Rows}
		}
	}

	stage := isa.Row(opts.DRows - 1) // staging row inside the scratch region
	nextTag := 0

	writeValue := func(i int) {
		v := &g.Values[i]
		l := &locs[i]
		for b := 0; b < v.Width; b++ {
			tag := nextTag
			nextTag++
			switch v.Kind {
			case dfg.OpInput:
				res.InputTag[fmt.Sprintf("%s[%d]", v.Name, b)] = tag
			case dfg.OpConst:
				pat := uint64(0)
				if v.Imm.Bit(b) == 1 {
					pat = ^uint64(0)
				}
				res.ConstPattern[tag] = pat
				st.ConstWrites++
			}
			if l.spilled {
				prog.Append(isa.NewWrite(stage, tag))
				prog.Append(isa.NewSpillOut(stage, uint64(l.slots[b])))
			} else {
				prog.Append(isa.NewWrite(l.rows[b], tag))
			}
			st.Writes++
		}
	}

	// Prolog: transpose-and-write every input at full width.
	for i := range g.Values {
		if lastUse[i] >= 0 && g.Values[i].Kind == dfg.OpInput {
			writeValue(i)
		}
	}
	constWritten := make([]bool, len(g.Values))
	var ws opScratch

	// Operations in program order; constant rows are CPU-written right
	// before the first operation consuming them.
	for i := range g.Values {
		v := &g.Values[i]
		if lastUse[i] < 0 {
			continue
		}
		for _, a := range v.Args {
			if g.Values[a].Kind == dfg.OpConst && !constWritten[a] {
				writeValue(int(a))
				constWritten[a] = true
			}
		}
		switch v.Kind {
		case dfg.OpInput, dfg.OpConst:
			continue
		case dfg.OpShl, dfg.OpShr, dfg.OpResize:
			if err := emitRewire(prog, g, i, locs, stage, st); err != nil {
				return nil, err
			}
		default:
			ns, err := emitOp(&ws, prog, g, i, locs, opts, poolRows, scratch, nextSlot, st)
			if err != nil {
				return nil, err
			}
			nextSlot = ns
		}
		if err := guard.Ctx(opts.Ctx); err != nil {
			return nil, err
		}
		if err := guard.Check(guard.DimMicroOps, opts.MaxOps, len(prog.Ops)); err != nil {
			return nil, err
		}
	}

	// Epilog: read results back.
	readTag := 0
	for oi, o := range g.Outputs {
		v := &g.Values[o]
		l := &locs[o]
		for b := 0; b < v.Width; b++ {
			res.OutputTag[fmt.Sprintf("%s[%d]", g.OutputNames[oi], b)] = readTag
			if l.spilled {
				prog.Append(isa.NewSpillIn(stage, uint64(l.slots[b])))
				prog.Append(isa.NewRead(stage, readTag))
			} else {
				prog.Append(isa.NewRead(l.rows[b], readTag))
			}
			st.Reads++
			readTag++
		}
	}

	if err := guard.Check(guard.DimMicroOps, opts.MaxOps, len(prog.Ops)); err != nil {
		return nil, err
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

// emitRewire handles shifts and resizes: in the multi-bit abstraction these
// are full-width row copies (bbop-style), zero-filling vacated positions.
func emitRewire(prog *isa.Program, g *dfg.Graph, vi int, locs []valueLoc, stage isa.Row, st *Stats) error {
	v := &g.Values[vi]
	src := &locs[v.Args[0]]
	dst := &locs[vi]
	srcW := g.Values[v.Args[0]].Width
	shift := 0
	switch v.Kind {
	case dfg.OpShl:
		shift = int(v.Imm.Int64())
	case dfg.OpShr:
		shift = -int(v.Imm.Int64())
	}
	for b := 0; b < v.Width; b++ {
		sb := b - shift
		// Move source bit sb (or constant zero) into destination bit b.
		var from isa.Row
		switch {
		case sb < 0 || sb >= srcW:
			from = isa.C0
		case src.spilled:
			prog.Append(isa.NewSpillIn(stage, uint64(src.slots[sb])))
			from = stage
		default:
			from = src.rows[sb]
		}
		if dst.spilled {
			if from != stage {
				prog.Append(isa.NewAAP(from, stage))
				st.PerOpStats.AAPs++
			}
			prog.Append(isa.NewSpillOut(stage, uint64(dst.slots[b])))
		} else {
			prog.Append(isa.NewAAP(from, dst.rows[b]))
			st.PerOpStats.AAPs++
		}
	}
	return nil
}

// opScratch is the working storage emitOp's passes reuse from one
// operation of a Generate call to the next.
type opScratch struct {
	logic logic.Scratch
	code  codegen.Scratch
}

// emitOp expands one multi-bit operation into its hand-quality micro-op
// routine by synthesizing the operation's logic net in isolation (operands
// opaque, so no cross-operand or constant folding — the multi-bit
// granularity barrier) and generating code with the operands bound to their
// full-width rows.
func emitOp(ws *opScratch, prog *isa.Program, g *dfg.Graph, vi int, locs []valueLoc, opts Options, poolRows, scratch, slotBase int, st *Stats) (int, error) {
	v := &g.Values[vi]

	// Build the single-op graph.
	sub := &dfg.Graph{}
	extIn := make(map[string]codegen.ExtLoc)
	for ai, a := range v.Args {
		av := &g.Values[a]
		name := fmt.Sprintf("in%d", ai)
		sub.Values = append(sub.Values, dfg.Value{Kind: dfg.OpInput, Width: av.Width, Name: name})
		sub.Inputs = append(sub.Inputs, dfg.ValueID(ai))
		for b := 0; b < av.Width; b++ {
			extIn[fmt.Sprintf("%s[%d]", name, b)] = locs[a].ext(b)
		}
	}
	opv := dfg.Value{Kind: v.Kind, Width: v.Width, Imm: v.Imm}
	for ai := range v.Args {
		opv.Args = append(opv.Args, dfg.ValueID(ai))
	}
	sub.Values = append(sub.Values, opv)
	sub.Outputs = []dfg.ValueID{dfg.ValueID(len(sub.Values) - 1)}
	sub.OutputNames = []string{"out"}
	if err := sub.Validate(); err != nil {
		return 0, fmt.Errorf("baseline: op %d (%s): %w", vi, v.Kind, err)
	}

	net, err := bitslice.LowerOn(&ws.logic, sub, bitslice.Options{Fold: true})
	if err != nil {
		return 0, err
	}
	leg, err := ws.logic.Legalize(net, opts.Arch, logic.BuilderOptions{Fold: true, CSE: true})
	if err != nil {
		return 0, err
	}
	leg = ws.logic.DCETemp(leg)

	extOut := make(map[string]codegen.ExtLoc, v.Width)
	for b := 0; b < v.Width; b++ {
		extOut[fmt.Sprintf("out[%d]", b)] = locs[vi].ext(b)
	}
	res, err := codegen.Generate(leg, codegen.Options{
		Arch:     opts.Arch,
		Variant:  obs.Rename, // hands-tuned quality within one operation
		DRows:    scratch,
		PoolBase: poolRows,
		SlotBase: slotBase,
		ExtIn:    extIn,
		ExtOut:   extOut,
		Scratch:  &ws.code,
	})
	if err != nil {
		return 0, fmt.Errorf("baseline: op %d (%s): %w", vi, v.Kind, err)
	}
	prog.Append(res.Prog.Ops...)
	s := &st.PerOpStats
	s.AAPs += res.Stats.AAPs
	s.APs += res.Stats.APs
	s.SpillOuts += res.Stats.SpillOuts
	s.SpillIns += res.Stats.SpillIns
	s.Writes += res.Stats.Writes
	return res.NextSlot, nil
}
