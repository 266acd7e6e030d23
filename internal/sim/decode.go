package sim

import (
	"context"
	"fmt"

	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// Decoded is an isa.Program with the proof a whole-stream run trusts:
// the interpreter runs the program's own ops, and Decode says once, for
// the whole stream, whether there is anything left to check in their rows
// (see exec). A Decoded is immutable after Decode and safe to share across
// goroutines and trials; it is what a compiled kernel keeps for the runs a
// translation cannot take (see Machine.Translatable): fault runs,
// recovered runs and budget-stopped runs. It holds nothing per op.
type Decoded struct {
	prog   *isa.Program
	maxD   int  // where proven, the highest D row an operand names; -1 if none
	proven bool // see Decode
}

// slotOf is the arena slot of row r (see Subarray), numSpecialRows+r: the
// special rows -1..-10 fill slots 9..0 and D row r follows them. An id
// below the special rows, which no subarray has, has a negative slot.
func slotOf(r isa.Row) int { return numSpecialRows + int(r) }

// partner is the slot of the dual-contact partner of the row at slot i, -1
// if it has none.
func partner(i int) int {
	if uint(i) < numSpecialRows {
		return int(partners[i])
	}
	return -1
}

// partners is partner of each special row's slot, by isa.Row.Complement.
var partners = func() (t [numSpecialRows]int8) {
	for i := range t {
		t[i] = -1
		if c := isa.Row(i - numSpecialRows).Complement(); c != isa.RowNone {
			t[i] = int8(slotOf(c))
		}
	}
	return t
}()

// Decode returns prog with its whole-stream proof. The result references
// prog, so the program must not be mutated afterwards.
//
// The proof holds where three things do, for every op, of the rows
// isa.Roles names: each has a slot; each read is of a row an earlier op
// defines (a store defines its row and the row's dual-contact partner; C0
// and C1 hold their constants from reset on); and no store is into C0 or
// C1. A whole-stream run stops at the first op that fails, so when op i of
// a proven stream executes every op before it has defined its rows. A
// stream that is not proven fails at the first op the proof fails at, if
// its run gets there: programs are straight-line.
func Decode(prog *isa.Program) *Decoded {
	d := &Decoded{prog: prog, maxD: -1}
	def := make([]bool, numSpecialRows) // by slot
	def[slotOf(isa.C0)], def[slotOf(isa.C1)] = true, true
	for i := range prog.Ops {
		op := &prog.Ops[i]
		rows := op.Rows()
		reads, writes := isa.Roles(&rows, op.Kind, op.NDst)
		for _, r := range reads {
			// A defined row is C0, C1 or a row a store named: it is in range.
			if j := slotOf(r); j < 0 || j >= len(def) || !def[j] {
				return d
			}
		}
		for _, r := range writes {
			j := slotOf(r)
			if j < 0 || r.IsCGroup() {
				return d
			}
			d.maxD = max(d.maxD, int(r))
			for len(def) <= j {
				def = append(def, false)
			}
			def[j] = true
			if c := partner(j); c >= 0 {
				def[c] = true
			}
		}
	}
	d.proven = true
	return d
}

// Len returns the number of ops in the stream.
func (d *Decoded) Len() int { return len(d.prog.Ops) }

// ExecDecoded executes op i of the decoded stream on the subarray. It may
// be called on any op in any order, so it checks everything: it runs exec
// without a whole-stream run's licence.
func (s *Subarray) ExecDecoded(d *Decoded, i int, io *HostIO, spill *SpillStore) error {
	return s.exec(&d.prog.Ops[i], io, spill, false)
}

// exec is what the six micro-ops do — the one definition under every
// execution entry point: sense the rows the op reads, form the value it
// stores, store it. The rows are the ones isa.Roles names, read from the
// program's own op as Translate reads them. What an op may fail on (rows
// the subarray has, row presence, host IO availability, spill-slot
// liveness, a store into a constant row) is checked on every op, unless
// planned: the whole-stream loops' licence (Subarray.plan), granted where
// the stream is proven and the subarray has every row it names, backed. A
// planned run checks no operand's row and no read's presence, and runs
// every AAP and AP as one body over the slots of its rows (an AAP's Src
// and Dst[:NDst], an AP's Dst: the rows Roles names for them); the host
// and the spill store are all it has left to check.
func (s *Subarray) exec(op *isa.Op, io *HostIO, spill *SpillStore, planned bool) error {
	idx := s.opIdx
	s.opIdx++
	if planned && (op.Kind == isa.OpAAP || op.Kind == isa.OpAP) {
		// Nothing to check: sense the slots, form the value, store it. The
		// hook's events and parity tracking are all that watch a row op.
		watched := s.events&isa.EvLoad != 0 || s.parTrack
		var val []uint64
		dsts := op.Dst[:]
		if op.Kind == isa.OpAAP {
			i := slotOf(op.Src)
			if val = s.rowData(i); watched {
				s.sensed(idx, op.Src, i, val)
			}
			val = s.copied(idx, op.NDst, val)
			dsts = op.Dst[:op.NDst]
		} else {
			a, b, c := slotOf(op.Dst[0]), slotOf(op.Dst[1]), slotOf(op.Dst[2])
			if watched {
				s.sensed(idx, op.Dst[0], a, s.rowData(a))
				s.sensed(idx, op.Dst[1], b, s.rowData(b))
				s.sensed(idx, op.Dst[2], c, s.rowData(c))
			}
			val = s.majority(idx, s.rowData(a), s.rowData(b), s.rowData(c))
		}
		for _, r := range dsts {
			i := slotOf(r)
			dst := s.put(i, val)
			if s.parTrack || partner(i) >= 0 {
				s.paired(i, dst)
			}
			if s.events&isa.EvStore != 0 {
				s.hook.AfterStore(idx, r, dst, s.lanes)
			}
		}
		return nil
	}
	rows := op.Rows()
	reads, writes := isa.Roles(&rows, op.Kind, op.NDst)
	if !planned {
		if err := s.outside(reads); err != nil {
			return err
		}
		if err := s.outside(writes); err != nil {
			return err
		}
	}
	var in [3][]uint64
	for j, r := range reads {
		i := slotOf(r)
		if !planned && !s.defined(i) {
			return fmt.Errorf("sim: read of uninitialized row %s", r)
		}
		in[j] = s.sensed(idx, r, i, s.rowData(i))
	}
	var val []uint64 // what the op stores into writes
	switch op.Kind {
	case isa.OpAAP:
		val = s.copied(idx, op.NDst, in[0])

	case isa.OpAP:
		val = s.majority(idx, in[0], in[1], in[2])

	case isa.OpWrite:
		var err error
		if val, err = written(io, op.Tag); err != nil {
			return err
		}

	case isa.OpRead:
		if io == nil || io.ReadSink == nil {
			return errNoSink(op.Tag)
		}
		out := s.readBuf
		copy(out, in[0])
		io.ReadSink(int(op.Tag), out)
		return nil

	case isa.OpSpillOut:
		if spill == nil {
			return fmt.Errorf("sim: spill with no spill store")
		}
		spill.put(op.Imm, in[0], s.words)
		return nil

	case isa.OpSpillIn:
		if spill == nil {
			return fmt.Errorf("sim: spill with no spill store")
		}
		var ok bool
		if val, ok = spill.get(op.Imm); !ok {
			return fmt.Errorf("sim: SPILL_IN of unwritten slot %d", op.Imm)
		}

	default:
		return fmt.Errorf("sim: unknown op kind %d", int(op.Kind))
	}
	for _, r := range writes {
		if isa.ConstStore(op.Kind, r) {
			return fmt.Errorf("sim: %s into constant row %s", op.Kind, r)
		}
		if dst := s.setRow(slotOf(r), val); s.events&isa.EvStore != 0 {
			// Persistent bitline defects corrupt the stored contents.
			s.hook.AfterStore(idx, r, dst, s.lanes)
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
func (s *Subarray) copied(idx int, ndst uint8, src []uint64) []uint64 {
	if ndst > 1 || s.events&isa.EvCopy != 0 {
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
	sub, spill, ops := &st.m.sub, &st.m.spill, d.prog.Ops
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
			op := &ops[i]
			if err := sub.exec(op, io, spill, st.planned); err != nil {
				return fmt.Errorf("op %d at bank %d sub %d: %w", i, st.bank, st.sub, err)
			}
			if st.eng != nil {
				st.eng.IssueOp(st.bank, st.sub, op.Kind, op.Imm)
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
	return st.span(d, 0, len(d.prog.Ops), io)
}
