package sim

import (
	"context"
	"fmt"

	"chopper/internal/guard"
	"chopper/internal/isa"
)

// Translated is an isa.Program translated for clean runs: a run that no
// fault hook and no parity tracker watches, whose rows therefore matter
// only for the values they carry. The program is straight-line and its
// data movement does not depend on the data, so which value each row holds
// before each op is known once per program. Translate resolves every copy
// — AAP, SPILL_OUT/SPILL_IN, the complement a dual-contact
// partner takes on — to a rename of the value it moves, and keeps only
// the ops that compute or cross the host boundary: one AND, OR or MAJ per
// AP (its operands' complements folded in), a load per WRITE and a sink call
// per READ. The values live in a register file sized to the most that are
// live at once. A Translated is immutable and safe to share.
//
// TranslateTRAs's translation also maps each AP to the instruction that
// computes the value it stores, so that a run a TRAFlipper watches can
// flip that value where the interpreter's AfterCompute would.
type Translated struct {
	ins []tins
	// cuts[k] is the first instruction of source op 256k or later, for
	// each ctx checkpoint k of an interpreted run; the last entry is
	// len(ins).
	cuts []int32
	regs int // registers a run uses, register 0 (the zero row) included
	maxD int // highest D row an operand names; -1 if none
	n    int // source ops

	// apOp[k] is the source op of the program's k-th AP, and apIns[k] the
	// instruction that computes the value it stores, -1 if no kept
	// instruction does (nothing reads the value). Both nil unless
	// TranslateTRAs built the translation.
	apOp, apIns []int32
}

// Instruction kinds of a translation.
const (
	tAnd  = iota // dst = a & b
	tOr          // dst = a | b
	tMaj         // dst = maj(a, b, c)
	tLoad        // dst = the payload of WRITE tag b (source op c); a the row's previous value
	tRead        // ReadSink(tag b, a) (source op c)

	tDead = 0xff // a node allocate drops
)

// tins is one translated instruction. Operands are registers; bit j of neg
// complements operand j (a, b, c) as it is read, as sensing a dual-contact
// partner does. A register of -1 is no operand. The record is 20 bytes
// (TestTranslatedOpSize).
type tins struct {
	kind    uint8
	neg     uint8
	dst     int32
	a, b, c int32
}

// vref names a value a row can hold: value id<<1, plus 1 for its
// complement. Value 0 is the zero row (C0's constant); its complement is
// C1's. A negative vref is no value: the row is undefined.
type vref int32

// tnode is an instruction before register allocation: its operands are
// values. The value node i defines is i+1.
type tnode struct {
	kind uint8
	opd  [3]vref // tAnd, tOr: a, b; tMaj: a, b, c; tLoad: the previous value (or -1); tRead: the source
	arg  int32   // tLoad, tRead: tag
	op   int32   // source op
}

// translator is Translate's state: the value each row slot and each spill
// slot holds, and the instructions so far. With record set (TranslateTRAs)
// it also notes, for each AP, its source op and the node that computes the
// value it stores; then no AP is folded into a value an earlier op
// computed, and folds lists the APs Translate would have folded.
type translator struct {
	slot  []vref // by arena slot
	spill map[uint64]vref
	nodes []tnode

	record       bool
	apOp, apNode []int32
	folds        []int32 // source ops
}

// TranslateError is why Translate rejects a program: the first op an
// interpreted run of it may fail at on its own account, and what is wrong
// there, in words.
type TranslateError struct {
	Op     int
	Reason string
}

func (e *TranslateError) Error() string {
	return fmt.Sprintf("sim: op %d does not translate: %s", e.Op, e.Reason)
}

// Translate translates prog for clean runs (see Translated), or returns a
// *TranslateError for a program whose run it cannot prove: a read of a row
// no earlier op defines or of no row at all, a SPILL_IN of a slot no
// earlier op spills, an AAP or WRITE into a constant row, a store to no
// row of the subarray or to a D row at or past maxPlanRow, an unknown
// kind. Those are the ops at which an interpreted run may fail on its own
// account; a translated run fails only where the host fails it (a nil
// HostIO, callback or payload) or ctx does. The rows resolve as decode
// resolves them, so what is legal has one definition.
func Translate(prog *isa.Program) (*Translated, error) {
	return (&translator{}).translate(prog)
}

// TranslateTRAs is the translation of prog for runs whose only fault hook is
// a TRAFlipper: t, prog's translation (Translate), with each AP mapped to
// the instruction that computes the value it stores, or nil where t is.
// Where t folded an AP into a value an earlier op computed — an AP of a row
// beside its own copy or complement — that AP has no instruction a flip
// could land on, so prog is translated again with every AP given one (a
// MAJ, AND or OR of its operands, which computes the value the fold
// named); otherwise the result shares t's instructions.
func TranslateTRAs(prog *isa.Program, t *Translated) *Translated {
	if t == nil {
		return nil
	}
	tr := &translator{record: true}
	u, _ := tr.translate(prog)
	if len(tr.folds) == 0 {
		// Nothing folded: the same nodes as t's, so the same instructions.
		u.ins, u.cuts = t.ins, t.cuts
	}
	return u
}

// APFates sorts the APs of prog, by source op, by what its translation
// does with the value each stores: live, an instruction computes it and
// the run reads it; dead, nothing reads it; folded, Translate names a
// value an earlier op computed instead (TranslateTRAs gives the AP an
// instruction). All are nil where Translate rejects prog.
func APFates(prog *isa.Program) (live, dead, folded []int) {
	tr := &translator{record: true}
	t, err := tr.translate(prog)
	if err != nil {
		return nil, nil, nil
	}
	folds := tr.folds
	for k, op := range t.apOp {
		switch {
		case len(folds) > 0 && folds[0] == op:
			folded, folds = append(folded, int(op)), folds[1:]
		case t.apIns[k] < 0:
			dead = append(dead, int(op))
		default:
			live = append(live, int(op))
		}
	}
	return live, dead, folded
}

// reject is Translate's error at source op i.
func reject(i int, format string, args ...any) (*Translated, error) {
	return nil, &TranslateError{Op: i, Reason: fmt.Sprintf(format, args...)}
}

// translate is Translate on tr. An op's value is formed before anything is
// stored, so where one op is wrong twice the reason names its operand.
func (tr *translator) translate(prog *isa.Program) (*Translated, error) {
	n := 0 // ops that may emit an instruction
	for i := range prog.Ops {
		if k := prog.Ops[i].Kind; k == isa.OpAP || k == isa.OpWrite || k == isa.OpRead {
			n++
		}
	}
	tr.slot, tr.nodes = make([]vref, numSpecialRows), make([]tnode, 0, n)
	for i := range tr.slot {
		tr.slot[i] = -1
	}
	tr.slot[0], tr.slot[1] = 0, 1 // C0, C1: the zero row and its complement
	maxD := -1
	var e dop
	for i := range prog.Ops {
		e.decode(&prog.Ops[i])
		reads, writes := e.operands()
		var in [3]vref
		for j := range reads {
			o := &reads[j]
			if in[j] = tr.value(o.slot); in[j] < 0 {
				return reject(i, "read of undefined row %s", o.row)
			}
			maxD = max(maxD, int(o.row))
		}
		var v vref // the value the op stores into writes
		switch e.kind {
		case isa.OpAAP:
			v = in[0]
		case isa.OpAP:
			if tr.record { // majority emits this AP's node
				tr.apOp, tr.apNode = append(tr.apOp, int32(i)), append(tr.apNode, int32(len(tr.nodes)))
			}
			v = tr.majority(in, i)
		case isa.OpWrite:
			v = tr.emit(tnode{kind: tLoad, opd: [3]vref{tr.value(writes[0].slot), -1, -1}, arg: e.tag, op: int32(i)})
		case isa.OpRead:
			tr.emit(tnode{kind: tRead, opd: [3]vref{in[0], -1, -1}, arg: e.tag, op: int32(i)})
		case isa.OpSpillOut:
			if tr.spill == nil {
				tr.spill = make(map[uint64]vref)
			}
			tr.spill[e.imm] = in[0]
		case isa.OpSpillIn:
			var ok bool
			if v, ok = tr.spill[e.imm]; !ok {
				return reject(i, "SPILL_IN of unwritten slot %d", e.imm)
			}
		default:
			return reject(i, "unknown op kind %d", int(e.kind))
		}
		for _, o := range writes {
			switch {
			case !e.fast && o.row.IsCGroup(): // an AAP or WRITE into C0 or C1, as exec reports it
				return reject(i, "%s into constant row %s", e.kind, o.row)
			case o.slot < 0 || o.row >= maxPlanRow:
				return reject(i, "write to row %s outside the subarray", o.row)
			}
			maxD = max(maxD, int(o.row))
			tr.store(o, v)
		}
	}
	t := tr.allocate(len(prog.Ops))
	t.maxD = maxD
	return t, nil
}

// value is what slot holds, -1 if nothing (or no slot).
func (tr *translator) value(slot int32) vref {
	if slot >= 0 && int(slot) < len(tr.slot) {
		return tr.slot[slot]
	}
	return -1
}

// store records that row operand o now holds v, and its dual-contact
// partner, if it has one, v's complement.
func (tr *translator) store(o opnd, v vref) {
	for len(tr.slot) <= int(o.slot) {
		tr.slot = append(tr.slot, -1)
	}
	tr.slot[o.slot] = v
	if o.comp >= 0 {
		tr.slot[o.comp] = v ^ 1
	}
}

// emit appends nd and returns the value it defines.
func (tr *translator) emit(nd tnode) vref {
	tr.nodes = append(tr.nodes, nd)
	return vref(len(tr.nodes)) << 1
}

// majority is the value an AP of rows holding in stores at source op i. A
// value sensed twice is the majority, and one sensed beside its own
// complement leaves the third operand's: that AP is folded, unless tr
// records. Beside the zero row it is the AND of the other two, and beside
// its complement their OR: how Ambit-style AND and OR are built.
func (tr *translator) majority(in [3]vref, i int) vref {
	if v, ok := folded(in); ok {
		if !tr.record {
			return v
		}
		tr.folds = append(tr.folds, int32(i))
	}
	for j, z := range in {
		if z>>1 == 0 {
			kind := [2]uint8{tAnd, tOr}[z] // beside C0, beside C1
			return tr.emit(tnode{kind: kind, opd: [3]vref{in[(j+1)%3], in[(j+2)%3], -1}, op: int32(i)})
		}
	}
	return tr.emit(tnode{kind: tMaj, opd: in, op: int32(i)})
}

// folded is the value an AP of rows holding in stores where one of them
// decides it: one sensed twice, or beside its own complement.
func folded(in [3]vref) (vref, bool) {
	a, b, c := in[0], in[1], in[2]
	switch {
	case a == b || a == c:
		return a, true
	case b == c:
		return b, true
	case a == b^1:
		return c, true
	case a == c^1:
		return b, true
	case b == c^1:
		return a, true
	}
	return 0, false
}

// operands is the number of operands nd reads.
func (nd *tnode) operands() int {
	switch nd.kind {
	case tAnd, tOr:
		return 2
	case tMaj:
		return 3
	case tLoad:
		if nd.opd[0] < 0 {
			return 0
		}
		return 1
	case tRead:
		return 1
	}
	return 0
}

// allocate drops the instructions whose values nothing reads (a load
// stays: its WriteData call is part of the run) and assigns registers by
// linear scan: a value's register is free after its last use, and the
// instruction of that use may define its result into it (every kind reads
// a word of its operands before it writes that word). n is the number of
// source ops.
func (tr *translator) allocate(n int) *Translated {
	nodes := tr.nodes
	// last[id] is the node of value id's last use, -1 if none.
	last := make([]int32, len(nodes)+1)
	for i := range last {
		last[i] = -1
	}
	kept := 0
	for i := len(nodes) - 1; i >= 0; i-- {
		nd := &nodes[i]
		if nd.kind != tLoad && nd.kind != tRead && last[i+1] < 0 {
			nd.kind = tDead
			continue
		}
		kept++
		for _, u := range nd.opd[:nd.operands()] {
			if id := u >> 1; last[id] < 0 {
				last[id] = int32(i)
			}
		}
	}
	t := &Translated{ins: make([]tins, 0, kept), cuts: make([]int32, 0, (n+255)/256+1), regs: 1, n: n}
	reg := make([]int32, len(nodes)+1) // by value id; the zero row is register 0
	var free []int32
	var at []int32 // recording: the instruction of each node, -1 if dropped
	if tr.record {
		at = make([]int32, len(nodes))
	}
	for i := range nodes {
		nd := &nodes[i]
		if at != nil {
			at[i] = -1
			if nd.kind != tDead {
				at[i] = int32(len(t.ins))
			}
		}
		if nd.kind == tDead {
			continue
		}
		in := tins{kind: nd.kind, dst: -1, a: -1, b: nd.arg, c: nd.op}
		opd := nd.opd[:nd.operands()]
		regs := [3]*int32{&in.a, &in.b, &in.c}
		for j, u := range opd {
			*regs[j] = reg[u>>1]
			in.neg |= uint8(u&1) << j
		}
		for _, u := range opd {
			if id := u >> 1; id != 0 && last[id] == int32(i) {
				free = append(free, reg[id])
				last[id] = -1
			}
		}
		if nd.kind != tRead {
			if k := len(free); k > 0 {
				in.dst, free = free[k-1], free[:k-1]
			} else {
				in.dst = int32(t.regs)
				t.regs++
			}
			if reg[i+1] = in.dst; last[i+1] < 0 {
				free = append(free, in.dst) // a load nothing reads
			}
		}
		for len(t.cuts)*256 <= int(nd.op) {
			t.cuts = append(t.cuts, int32(len(t.ins)))
		}
		t.ins = append(t.ins, in)
	}
	for len(t.cuts) <= (n+255)/256 {
		t.cuts = append(t.cuts, int32(len(t.ins)))
	}
	if tr.record {
		t.apOp, t.apIns = tr.apOp, tr.apNode
		for k, nd := range t.apIns {
			t.apIns[k] = at[nd]
		}
	}
	return t
}

// Translatable reports whether RunTranslatedCtx of t (nil: a program
// Translate did not accept) on m is its program's RunFunctionalCtx under
// budget b: nothing watches the rows but, where t is TranslateTRAs's, a
// TRAFlipper subscribed to computes alone — no other fault hook, no parity
// tracking — the subarray has every row t names, and b stops no op of the
// stream. It is the one choice between the two executors.
func (m *Machine) Translatable(t *Translated, b guard.Budget) bool {
	s := &m.sub
	return t != nil && !s.parTrack && t.maxD < s.dRows &&
		(s.hook == nil || t.apOp != nil && s.flipper != nil && s.events == isa.EvCompute) &&
		guard.Check(guard.DimSimSteps, b.MaxSimSteps, t.n) == nil &&
		guard.Check(guard.DimDRAMCommands, b.MaxDRAMCommands, t.n) == nil
}

// tflip is a lane flip of the value instruction ins computes.
type tflip struct{ ins, lane int32 }

// RunTranslatedCtx runs translation t on m as RunFunctionalCtx runs its
// program from m's reset state, where m.Translatable(t, b) holds: the same
// READ payloads, WriteData and ReadSink calls in the same order, ctx
// observed before source ops 0, 256, 512, ..., and the same error at the
// same op. It leaves the subarray's rows as they were; the values live in
// m's register file.
//
// Under a TRAFlipper the flips are drawn first, AP by AP in op order as the
// interpreter's AfterCompute calls would draw them, and each lands on the
// value of the AP's instruction right after it runs, before anything reads
// that value: the interpreter's flip of the TRA result before it latches
// into the three rows. A flip of a value nothing reads is drawn and counted
// and changes nothing else.
func (m *Machine) RunTranslatedCtx(ctx context.Context, t *Translated, io *HostIO) error {
	if !m.Translatable(t, guard.Budget{}) {
		return fmt.Errorf("sim: a translated run needs a translation and a subarray that holds its rows and nothing but a TRA-flip hook watches")
	}
	s := &m.sub
	w := s.words
	m.regs = grow(m.regs, t.regs*w)
	clear(m.regs[:w]) // register 0: the zero row
	m.flips = m.flips[:0]
	for k := 0; s.hook != nil; k++ {
		var lane int
		if k, lane = s.flipper.NextTRAFlip(t.apOp, k, s.lanes); k == len(t.apOp) {
			break
		}
		if t.apIns[k] >= 0 {
			m.flips = append(m.flips, tflip{ins: t.apIns[k], lane: int32(lane)})
		}
	}
	flips := m.flips
	for k := 0; k+1 < len(t.cuts); k++ {
		if err := guard.Ctx(ctx); err != nil {
			return err
		}
		for lo, hi := t.cuts[k], t.cuts[k+1]; lo < hi; {
			end := hi
			if len(flips) > 0 && flips[0].ins < hi {
				end = flips[0].ins + 1
			}
			if err := m.runIns(t, lo, end, io); err != nil {
				return err
			}
			for ; len(flips) > 0 && flips[0].ins < end; flips = flips[1:] {
				l := flips[0].lane
				m.regs[int(t.ins[flips[0].ins].dst)*w+int(l/64)] ^= 1 << uint(l%64)
			}
			lo = end
		}
	}
	return nil
}

// runIns runs instructions [lo, hi) of t in m's register file.
func (m *Machine) runIns(t *Translated, lo, hi int32, io *HostIO) error {
	s := &m.sub
	w, mask, regs := s.words, s.mask, m.regs
	reg := func(r int32) []uint64 { return regs[int(r)*w:][:w] }
	for i := lo; i < hi; i++ {
		in := &t.ins[i]
		switch in.kind {
		case tAnd, tOr:
			d, a, b := reg(in.dst), reg(in.a), reg(in.b)
			na, nb := negMask(in.neg, 0), negMask(in.neg, 1)
			a, b = a[:len(d)], b[:len(d)]
			if in.kind == tAnd {
				for j := range d {
					d[j] = (a[j] ^ na) & (b[j] ^ nb)
				}
			} else {
				for j := range d {
					d[j] = (a[j] ^ na) | (b[j] ^ nb)
				}
			}
			d[len(d)-1] &= mask
		case tMaj:
			d, a, b, c := reg(in.dst), reg(in.a), reg(in.b), reg(in.c)
			na, nb, nc := negMask(in.neg, 0), negMask(in.neg, 1), negMask(in.neg, 2)
			a, b, c = a[:len(d)], b[:len(d)], c[:len(d)]
			for j := range d {
				d[j] = maj(a[j]^na, b[j]^nb, c[j]^nc)
			}
			d[len(d)-1] &= mask
		case tLoad:
			data, err := written(io, in.b)
			if err != nil {
				return fmt.Errorf("op %d at bank 0 sub 0: %w", in.c, err)
			}
			d := reg(in.dst)
			n := copy(d, data)
			if in.a < 0 {
				clear(d[n:])
			} else if p, na := reg(in.a), negMask(in.neg, 0); n < w {
				// A short payload leaves the rest of the row as it was.
				for j := n; j < w; j++ {
					d[j] = p[j] ^ na
				}
			}
			d[w-1] &= mask
		case tRead:
			if io == nil || io.ReadSink == nil {
				return fmt.Errorf("op %d at bank 0 sub 0: %w", in.c, errNoSink(in.b))
			}
			out, a, na := s.readBuf, reg(in.a), negMask(in.neg, 0)
			for j := range out {
				out[j] = a[j] ^ na
			}
			out[w-1] &= mask
			io.ReadSink(int(in.b), out)
		}
	}
	return nil
}

// negMask is the word operand j of an instruction with complement bits neg
// is XORed with: all ones if it is complemented, else zero.
func negMask(neg uint8, j uint) uint64 { return -uint64(neg >> j & 1) }

// Walk runs t's instructions in order over values of type V, as
// RunTranslatedCtx runs them over rows of lanes: register 0 holds zero, a
// complemented operand is not of its register, an AND, OR or MAJ applies
// and, or or maj, a load holds what load gives its WRITE tag (a whole
// row), and read takes the value of each READ with its tag.
func Walk[V any](t *Translated, zero V, not func(V) V, and, or func(V, V) V, maj func(V, V, V) V,
	load func(tag int) V, read func(tag int, v V)) {
	regs := make([]V, t.regs)
	regs[0] = zero
	for i := range t.ins {
		in := &t.ins[i]
		opd := func(j uint, r int32) V {
			if in.neg>>j&1 != 0 {
				return not(regs[r])
			}
			return regs[r]
		}
		switch in.kind {
		case tAnd:
			regs[in.dst] = and(opd(0, in.a), opd(1, in.b))
		case tOr:
			regs[in.dst] = or(opd(0, in.a), opd(1, in.b))
		case tMaj:
			regs[in.dst] = maj(opd(0, in.a), opd(1, in.b), opd(2, in.c))
		case tLoad:
			regs[in.dst] = load(int(in.b))
		case tRead:
			read(int(in.b), opd(0, in.a))
		}
	}
}
