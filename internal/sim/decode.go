package sim

import (
	"context"
	"fmt"
	"math"

	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// Decoded is an isa.Program pre-decoded into a flat execution stream: per
// op, the fields the executor needs are unpacked once. A Decoded is
// immutable after Decode and safe to share across goroutines and trials;
// it is how a compiled kernel amortizes dispatch cost over the runs a
// translation cannot take (see Machine.Translatable): fault runs,
// recovered runs and budget-stopped runs. Row operands are resolved to
// arena slots, and reads of rows an earlier op always defines are proven
// (see exec).
type Decoded struct {
	prog  *isa.Program
	ops   []dop
	maxD  int  // highest D row an operand names; -1 if none
	dense bool // every operand has a slot, below maxPlanRow
}

// maxPlanRow bounds the D rows of a stream Decode proves: a higher one (no
// subarray this simulator models has it) leaves the stream unplanned.
const maxPlanRow = 1 << 20

// opnd is one row operand of a decoded op.
type opnd struct {
	row    isa.Row
	slot   int32 // arena slot (see Subarray); -1 for an id no subarray has
	comp   int8  // slot of the dual-contact partner; -1 if none
	proven bool  // a read whose row an earlier op of the stream always defines
}

func resolve(r isa.Row) opnd {
	switch {
	case r >= 0 && r <= math.MaxInt32-numSpecialRows:
		return opnd{row: r, slot: numSpecialRows + int32(r), comp: -1}
	case r < 0 && r >= isa.DCC1N: // special rows occupy -1..-10
		return specialOpnds[-1-r]
	}
	return opnd{row: r, slot: -1, comp: -1}
}

// specialOpnds is resolve of each special row, by slot.
var specialOpnds = func() (t [numSpecialRows]opnd) {
	for i := range t {
		r := isa.Row(-1 - i)
		t[i] = opnd{row: r, slot: int32(i), comp: -1}
		if c := r.Complement(); c != isa.RowNone {
			t[i].comp = int8(-1 - c)
		}
	}
	return t
}()

// dop is one decoded micro-op, the only form the executor runs. The record
// is 64 bytes (TestDecodedOpSize).
type dop struct {
	imm   uint64
	opd   [4]opnd // the source row, then the three destination rows: op.Rows() resolved
	tag   int32
	kind  isa.OpKind
	rowOp bool // a planned run takes the row-op body (Decode)
	ndst  uint8
}

// Decode pre-decodes prog. The result references prog (recovery reads its
// epoch marks), so the program must not be mutated afterwards.
//
// The same pass proves reads: every op that completes defines the rows it
// stores (and their partners), and a whole-stream run stops at the first
// op that does not, so when op i executes every op before it has defined
// its rows. C0 and C1 hold their constants from reset on. It also marks
// the row ops: each AAP or AP that reads only proven rows and stores only
// into dense rows outside the C-group.
func Decode(prog *isa.Program) *Decoded {
	d := &Decoded{prog: prog, ops: make([]dop, len(prog.Ops)), maxD: -1, dense: true}
	def := make([]bool, numSpecialRows) // by slot
	def[0], def[1] = true, true
	note := func(o *opnd) {
		d.dense = d.dense && o.slot >= 0 && o.row < maxPlanRow
		d.maxD = max(d.maxD, int(o.row))
	}
	for i := range d.ops {
		op, e := &prog.Ops[i], &d.ops[i]
		*e = dop{kind: op.Kind, ndst: op.NDst, tag: op.Tag, imm: op.Imm}
		for j, r := range op.Rows() {
			e.opd[j] = resolve(r)
		}
		reads, writes := isa.Roles(&e.opd, e.kind, e.ndst)
		e.rowOp = e.kind == isa.OpAAP || e.kind == isa.OpAP
		for j := range reads {
			note(&reads[j])
			reads[j].proven = d.dense && int(reads[j].slot) < len(def) && def[reads[j].slot]
			e.rowOp = e.rowOp && reads[j].proven
		}
		for _, o := range writes {
			e.rowOp = e.rowOp && o.slot > 1 // C0 and C1 are slots 0 and 1
			if note(&o); d.dense {
				for len(def) <= int(o.slot) {
					def = append(def, false)
				}
				def[o.slot] = true
				if o.comp >= 0 {
					def[o.comp] = true
				}
			}
		}
	}
	return d
}

// Len returns the number of ops in the stream.
func (d *Decoded) Len() int { return len(d.ops) }

// ExecDecoded executes op i of the decoded stream on the subarray. It may
// be called on any op in any order, so it checks every read: it runs the
// body of a whole-stream run without that run's licence (see exec).
func (s *Subarray) ExecDecoded(d *Decoded, i int, io *HostIO, spill *SpillStore) error {
	return s.exec(&d.ops[i], io, spill, false)
}

// exec is what the six micro-ops do — the one definition under every
// execution entry point: sense the rows the op reads, form the value it
// stores, store it. What an op may fail on (rows the subarray has, row
// presence, host IO availability, spill-slot liveness, a store into a
// constant row) is checked on every op. planned is the
// whole-stream loops' licence (Subarray.plan): every operand is a backed row
// of the subarray, a row op runs as one body over its slots, and a proven
// read skips the presence check. Unproven reads are always checked.
func (s *Subarray) exec(op *dop, io *HostIO, spill *SpillStore, planned bool) error {
	idx := s.opIdx
	s.opIdx++
	if planned && op.rowOp {
		// Nothing to check: sense the slots, form the value, store it. The
		// hook's events and parity tracking are all that watch a row op.
		watched := s.events&isa.EvLoad != 0 || s.parTrack
		var val []uint64
		if op.kind == isa.OpAAP {
			if val = s.rowData(int(op.opd[0].slot)); watched {
				s.sensed(idx, &op.opd[0], val)
			}
			val = s.copied(idx, op, val)
		} else {
			for j := 1; j <= 3 && watched; j++ {
				s.sensed(idx, &op.opd[j], s.rowData(int(op.opd[j].slot)))
			}
			val = s.majority(idx, s.rowData(int(op.opd[1].slot)), s.rowData(int(op.opd[2].slot)), s.rowData(int(op.opd[3].slot)))
		}
		for j := 1; j <= int(op.ndst); j++ {
			o := &op.opd[j]
			dst := s.put(o, val)
			if s.parTrack || o.comp >= 0 {
				s.paired(o, dst)
			}
			if s.events&isa.EvStore != 0 {
				s.hook.AfterStore(idx, o.row, dst, s.lanes)
			}
		}
		return nil
	}
	reads, writes := isa.Roles(&op.opd, op.kind, op.ndst)
	if !planned {
		if err := s.outside(reads); err != nil {
			return err
		}
		if err := s.outside(writes); err != nil {
			return err
		}
	}
	var in [3][]uint64
	for j := range reads {
		var err error
		if in[j], err = s.load(idx, &reads[j], planned); err != nil {
			return err
		}
	}
	var val []uint64 // what the op stores into writes
	switch op.kind {
	case isa.OpAAP:
		val = s.copied(idx, op, in[0])

	case isa.OpAP:
		val = s.majority(idx, in[0], in[1], in[2])

	case isa.OpWrite:
		var err error
		if val, err = written(io, op.tag); err != nil {
			return err
		}

	case isa.OpRead:
		if io == nil || io.ReadSink == nil {
			return errNoSink(op.tag)
		}
		out := s.readBuf
		copy(out, in[0])
		io.ReadSink(int(op.tag), out)
		return nil

	case isa.OpSpillOut:
		if spill == nil {
			return fmt.Errorf("sim: spill with no spill store")
		}
		spill.put(op.imm, in[0], s.words)
		return nil

	case isa.OpSpillIn:
		if spill == nil {
			return fmt.Errorf("sim: spill with no spill store")
		}
		var ok bool
		if val, ok = spill.get(op.imm); !ok {
			return fmt.Errorf("sim: SPILL_IN of unwritten slot %d", op.imm)
		}

	default:
		return fmt.Errorf("sim: unknown op kind %d", int(op.kind))
	}
	for j := range writes {
		o := &writes[j]
		if isa.ConstStore(op.kind, o.row) {
			return fmt.Errorf("sim: %s into constant row %s", op.kind, o.row)
		}
		if dst := s.setRow(o, val); s.events&isa.EvStore != 0 {
			// Persistent bitline defects corrupt the stored contents.
			s.hook.AfterStore(idx, o.row, dst, s.lanes)
		}
	}
	return nil
}

// written is the payload the host supplies for a WRITE of tag, or the
// error of a host that has none.
func written(io *HostIO, tag int32) ([]uint64, error) {
	if io == nil || io.WriteData == nil {
		return nil, fmt.Errorf("sim: WRITE with no host data source (tag %d)", tag)
	}
	if val := io.WriteData(int(tag)); val != nil {
		return val, nil
	}
	return nil, fmt.Errorf("sim: host has no data for WRITE tag %d", tag)
}

// errNoSink is the error of a READ of tag from a host with no sink.
func errNoSink(tag int32) error { return fmt.Errorf("sim: READ with no host sink (tag %d)", tag) }

// copied is the value an AAP of src stores: src itself, or a staged copy
// when a later destination may alias the source's complement or the hook
// perturbs the copy (never the source).
func (s *Subarray) copied(idx int, op *dop, src []uint64) []uint64 {
	if op.ndst > 1 || s.events&isa.EvCopy != 0 {
		return s.staged(idx, src)
	}
	return src
}

// staged is copied's staged copy (apart, so copied inlines).
func (s *Subarray) staged(idx int, src []uint64) []uint64 {
	val := s.scratch
	copy(val, src)
	if s.events&isa.EvCopy != 0 {
		s.hook.AfterCopy(idx, val, s.lanes)
	}
	return val
}

// maj is the bitwise majority of three words: what a triple-row activation
// leaves in each of its rows.
func maj(a, b, c uint64) uint64 { return a&b | b&c | a&c }

// majority is the value an AP of rows a, b and c stores.
func (s *Subarray) majority(idx int, a, b, c []uint64) []uint64 {
	val := s.scratch
	for i := range val {
		val[i] = maj(a[i], b[i], c[i])
	}
	if s.events&isa.EvCompute != 0 {
		s.hook.AfterCompute(idx, val, s.lanes)
	}
	return val
}

// stepper is the one guard → execute → issue loop under every run, with
// the counters it checks. A run makes one and steps every op through it,
// replays included: the counters never rewind, so work a recovered run
// throws away is charged to the same budget as work it keeps. The same
// stream therefore exhausts the same dimension at the same op on every
// run, whichever loop drives it.
type stepper struct {
	ctx       context.Context // observed every 256 steps; nil never cancels
	b         guard.Budget
	m         *Machine
	eng       *dram.Engine // nil: functional only, nothing is timed
	bank, sub int          // the placement the engine charges and errors name
	planned   bool         // the stream is planned on m's subarray (see exec)

	steps, cmds int // micro-ops executed / commands issued so far
}

// span steps ops [lo, hi) of d on the machine's subarray, guard → execute
// → issue: b.MaxSimSteps caps the micro-ops executed and b.MaxDRAMCommands
// the commands that reach the timing engine, as if checked before every
// op, so a guard stop, like a functional error, leaves the offending op
// unexecuted. A functional run counts the commands it would issue. The
// checks, in their order, open each chunk of ops, which ends at the nearest
// of hi, the next ctx checkpoint (every 256 steps) and the first op a
// budget stops: a stop lands on the op, with the error, of per-op checks.
func (st *stepper) span(d *Decoded, lo, hi int, io *HostIO) error {
	sub, spill := &st.m.sub, &st.m.spill
	for i := lo; i < hi; {
		if st.steps&255 == 0 {
			if err := guard.Ctx(st.ctx); err != nil {
				return err
			}
		}
		if err := guard.Check(guard.DimSimSteps, st.b.MaxSimSteps, st.steps+1); err != nil {
			return err
		}
		if err := guard.Check(guard.DimDRAMCommands, st.b.MaxDRAMCommands, st.cmds+1); err != nil {
			return err
		}
		n := min(hi-i, 256-(st.steps&255)) // the checks passed: n >= 1
		if limit := st.b.MaxSimSteps; limit > 0 {
			n = min(n, limit-st.steps)
		}
		if limit := st.b.MaxDRAMCommands; limit > 0 {
			n = min(n, limit-st.cmds)
		}
		for end := i + n; i < end; i++ {
			op := &d.ops[i]
			if err := sub.exec(op, io, spill, st.planned); err != nil {
				return fmt.Errorf("op %d at bank %d sub %d: %w", i, st.bank, st.sub, err)
			}
			if st.eng != nil {
				st.eng.IssueOp(st.bank, st.sub, op.kind, op.imm)
			}
		}
		st.steps += n
		st.cmds += n
	}
	return nil
}

// RunFunctionalCtx is RunRecoveredCtx's plain run without the timing
// engine — ctx every 256 ops, b before every op, the same stop at the same
// op — for a caller that times the program elsewhere: the issue order is a
// function of the program and its placement, never of the data (the root
// package's shard memo; the tiled runner passes the zero budget, having
// pre-checked it). Errors name bank 0 sub 0.
func (m *Machine) RunFunctionalCtx(ctx context.Context, d *Decoded, io *HostIO, b guard.Budget) error {
	st := stepper{ctx: ctx, b: b, m: m, planned: m.sub.plan(d)}
	return st.span(d, 0, len(d.ops), io)
}
