package sim

import (
	"context"
	"fmt"

	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// Decoded is an isa.Program pre-decoded into a flat execution stream: per
// op, the fields the executor needs are unpacked once and every statically
// decidable check (C-group destination legality, ROWINIT constant-pattern
// validation) is decided once instead of per execution. A Decoded is
// immutable after Decode and safe to share across goroutines and trials; it
// is how a compiled kernel amortizes dispatch cost over thousands of verify
// / reliability replays.
type Decoded struct {
	prog *isa.Program
	ops  []dop
}

// dop is one decoded micro-op, the only form the executor runs. fast marks
// ops that pass every static check; exec re-runs those checks only for ops
// without it, at the point of the op where the undecoded simulator always
// ran them, so error text, error position and fault-hook sequence do not
// depend on whether an op was decoded ahead of time or on the spot.
type dop struct {
	kind  isa.OpKind
	fast  bool
	cskip bool // ROWINIT of a C-group row with the correct pattern
	ndst  int8
	src   isa.Row
	dst   [3]isa.Row
	tag   int32
	imm   uint64
}

// decode unpacks op into e and decides its static checks.
func (e *dop) decode(op *isa.Op) {
	*e = dop{kind: op.Kind, src: op.Src, dst: op.Dst, ndst: int8(op.NDst), tag: int32(op.Tag), imm: op.Imm}
	switch op.Kind {
	case isa.OpRowInit:
		if op.Dst[0].IsCGroup() {
			// Re-initializing a constant row is allowed (it is how the
			// architecture maintains them) but must match the constant.
			want := uint64(0)
			if op.Dst[0] == isa.C1 {
				want = ^uint64(0)
			}
			if op.Imm != want {
				return // not fast: exec reports the pattern error
			}
			e.cskip = true
		}
		e.fast = true
	case isa.OpAAP:
		e.fast = true
		for _, r := range op.Dsts() {
			if r.IsCGroup() {
				e.fast = false // exec reports the C-group error at that destination
			}
		}
	case isa.OpWrite:
		e.fast = !op.Dst[0].IsCGroup()
	case isa.OpAP, isa.OpRead, isa.OpSpillOut, isa.OpSpillIn:
		e.fast = true
	}
}

// Decode pre-decodes prog. The result references prog (recovery reads its
// epoch marks), so the program must not be mutated afterwards.
func Decode(prog *isa.Program) *Decoded {
	d := &Decoded{prog: prog, ops: make([]dop, len(prog.Ops))}
	for i := range prog.Ops {
		d.ops[i].decode(&prog.Ops[i])
	}
	return d
}

// Len returns the number of ops in the stream.
func (d *Decoded) Len() int { return len(d.ops) }

// Exec executes one micro-op against the subarray: it decodes the op on the
// stack and runs it through the same body as a pre-decoded stream.
func (s *Subarray) Exec(op *isa.Op, io *HostIO, spill *SpillStore) error {
	var e dop
	e.decode(op)
	return s.exec(&e, io, spill)
}

// ExecDecoded executes op i of the decoded stream.
func (s *Subarray) ExecDecoded(d *Decoded, i int, io *HostIO, spill *SpillStore) error {
	return s.exec(&d.ops[i], io, spill)
}

// exec is what the six micro-ops do — the one definition under every
// execution entry point. Dynamic conditions (row presence, D-group bounds,
// host IO availability, spill-slot liveness) are checked on every op;
// static ones only for ops decode did not mark fast.
func (s *Subarray) exec(op *dop, io *HostIO, spill *SpillStore) error {
	idx := s.opIdx
	s.opIdx++
	switch op.kind {
	case isa.OpRowInit:
		if !op.fast {
			return fmt.Errorf("sim: ROWINIT %s with wrong pattern %#x", op.dst[0], op.imm)
		}
		if op.cskip {
			if slot, ok := s.slot(op.dst[0]); ok && s.isPresent(slot) && !s.cDirty {
				// The row already holds its constant: skip the redundant
				// rewrite (and the full-row copy it used to cost).
				return nil
			}
		}
		s.initRow(op.dst[0], op.imm)
		return nil

	case isa.OpAAP:
		src, err := s.load(idx, op.src)
		if err != nil {
			return err
		}
		// Copy out first: a destination may alias the source's complement.
		tmp := s.scratch
		copy(tmp, src)
		if s.hook != nil {
			s.hook.AfterCopy(idx, tmp, s.lanes)
		}
		for _, d := range op.dst[:op.ndst] {
			if !op.fast && d.IsCGroup() {
				return fmt.Errorf("sim: AAP into constant row %s", d)
			}
			s.setRow(d, tmp)
			s.stored(idx, d)
		}
		return nil

	case isa.OpAP:
		a, err := s.load(idx, op.dst[0])
		if err != nil {
			return err
		}
		b, err := s.load(idx, op.dst[1])
		if err != nil {
			return err
		}
		c, err := s.load(idx, op.dst[2])
		if err != nil {
			return err
		}
		res := s.scratch
		for i := range res {
			res[i] = (a[i] & b[i]) | (b[i] & c[i]) | (a[i] & c[i])
		}
		if s.hook != nil {
			s.hook.AfterCompute(idx, res, s.lanes)
		}
		for _, d := range op.dst {
			s.setRow(d, res)
			s.stored(idx, d)
		}
		return nil

	case isa.OpWrite:
		if io == nil || io.WriteData == nil {
			return fmt.Errorf("sim: WRITE with no host data source (tag %d)", op.tag)
		}
		data := io.WriteData(int(op.tag))
		if data == nil {
			return fmt.Errorf("sim: host has no data for WRITE tag %d", op.tag)
		}
		if !op.fast {
			return fmt.Errorf("sim: WRITE into constant row %s", op.dst[0])
		}
		s.setRow(op.dst[0], data)
		s.stored(idx, op.dst[0])
		return nil

	case isa.OpRead:
		src, err := s.load(idx, op.src)
		if err != nil {
			return err
		}
		if io == nil || io.ReadSink == nil {
			return fmt.Errorf("sim: READ with no host sink (tag %d)", op.tag)
		}
		out := s.readBuf
		copy(out, src)
		io.ReadSink(int(op.tag), out)
		return nil

	case isa.OpSpillOut:
		src, err := s.load(idx, op.src)
		if err != nil {
			return err
		}
		if spill == nil {
			return fmt.Errorf("sim: spill with no spill store")
		}
		spill.put(op.imm, src, s.words)
		return nil

	case isa.OpSpillIn:
		if spill == nil {
			return fmt.Errorf("sim: spill with no spill store")
		}
		data, ok := spill.get(op.imm)
		if !ok {
			return fmt.Errorf("sim: SPILL_IN of unwritten slot %d", op.imm)
		}
		s.setRow(op.dst[0], data)
		s.stored(idx, op.dst[0])
		return nil
	}
	return fmt.Errorf("sim: unknown op kind %d", int(op.kind))
}

// stepper is the one guard → execute → issue step under every run loop,
// with the counters it checks. A run makes one and steps every op through
// it, replays included: the counters never rewind, so work a recovered run
// throws away is charged to the same budget as work it keeps. The same
// stream therefore exhausts the same dimension at the same op on every
// run, whichever loop drives it.
type stepper struct {
	ctx       context.Context // observed every 256 steps; nil never cancels
	b         guard.Budget
	m         *Machine
	eng       *dram.Engine // nil: functional only, nothing is timed
	bank, sub int          // the placement the engine charges and errors name

	steps, cmds int // micro-ops executed / commands issued so far
}

// step runs op — op i of its stream — on the machine's subarray:
// b.MaxSimSteps caps the micro-ops executed and b.MaxDRAMCommands the
// commands that reach the timing engine, both checked before the op
// executes, so a guard stop, like a functional error, leaves the offending
// op unexecuted.
func (st *stepper) step(op *dop, i int, io *HostIO) error {
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
	if err := st.m.sub.exec(op, io, &st.m.spill); err != nil {
		return fmt.Errorf("op %d at bank %d sub %d: %w", i, st.bank, st.sub, err)
	}
	if st.eng != nil {
		st.eng.IssueOp(st.bank, st.sub, op.kind, op.imm)
	}
	st.steps++
	st.cmds++
	return nil
}

// span steps ops [lo, hi) of d.
func (st *stepper) span(d *Decoded, lo, hi int, io *HostIO) error {
	for i := lo; i < hi; i++ {
		if err := st.step(&d.ops[i], i, io); err != nil {
			return err
		}
	}
	return nil
}

// RunFunctionalCtx executes d on the machine's subarray with no timing
// engine and no budget, ctx observed every 256 ops: the loop of a caller
// that times the program elsewhere (the tiled runner, whose timing comes
// from the per-kernel shard memo). Errors name bank 0 sub 0.
func (m *Machine) RunFunctionalCtx(ctx context.Context, d *Decoded, io *HostIO) error {
	st := stepper{ctx: ctx, m: m}
	return st.span(d, 0, len(d.ops), io)
}
