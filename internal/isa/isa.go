// Package isa defines the micro-operation instruction set for Bit-serial
// SIMD Processing-Using-DRAM (PUD) architectures, following the command
// vocabulary of Ambit, ELP2IM and SIMDRAM: row-to-row copies implemented as
// ACTIVATE-ACTIVATE-PRECHARGE (AAP), in-DRAM computation implemented as a
// triple-row ACTIVATE-PRECHARGE (AP, a.k.a. TRA), and host-mediated row
// transfers (WRITE/READ) over the memory bus.
//
// Row addresses within a subarray are split into three groups, mirroring the
// Ambit subarray organization:
//
//   - D-group: regular data rows, selected by the regular row decoder.
//   - C-group: two constant rows C0 (all zeros) and C1 (all ones).
//   - B-group: compute rows T0..T3 plus two dual-contact cell pairs
//     (DCC0, ~DCC0) and (DCC1, ~DCC1), driven by a special decoder that can
//     activate up to three rows at once (a TRA).
package isa

import (
	"fmt"
	"strings"
)

// Row identifies a row within a subarray. Non-negative values address the
// D-group (row index within the data region); negative values address the
// C-group and B-group through the named constants below. Two bytes: a
// subarray has at most a few thousand rows (dram.Geometry.Validate bounds
// them by 1<<15), and an Op carries four of them.
type Row int16

// Special (non-D-group) row addresses. The numeric values are arbitrary but
// stable; they only need to be distinct from valid D-group indices (>= 0).
const (
	// C-group constant rows.
	C0 Row = -1 // all zeros
	C1 Row = -2 // all ones

	// B-group compute rows.
	T0 Row = -3
	T1 Row = -4
	T2 Row = -5
	T3 Row = -6

	// Dual-contact cell rows. Writing to DCCi also latches the complement
	// into DCCiN (and vice versa); this is how in-DRAM NOT is realized.
	DCC0  Row = -7
	DCC0N Row = -8
	DCC1  Row = -9
	DCC1N Row = -10

	// RowNone marks an unused row operand slot.
	RowNone Row = -128
)

// IsDGroup reports whether r addresses a regular data row.
func (r Row) IsDGroup() bool { return r >= 0 }

// IsCGroup reports whether r is one of the constant rows.
func (r Row) IsCGroup() bool { return r == C0 || r == C1 }

// IsBGroup reports whether r is a compute row (T or DCC).
func (r Row) IsBGroup() bool { return r <= T0 && r >= DCC1N }

// Complement returns the dual-contact complement row for DCC rows, and
// RowNone for every other row.
func (r Row) Complement() Row {
	switch r {
	case DCC0:
		return DCC0N
	case DCC0N:
		return DCC0
	case DCC1:
		return DCC1N
	case DCC1N:
		return DCC1
	}
	return RowNone
}

// String renders the row in the assembly syntax used throughout the
// compiler's dumps ("D12", "C0", "T3", "DCC0", "~DCC0").
func (r Row) String() string {
	switch {
	case r.IsDGroup():
		return fmt.Sprintf("D%d", int(r))
	case r == C0:
		return "C0"
	case r == C1:
		return "C1"
	case r == T0, r == T1, r == T2, r == T3:
		return fmt.Sprintf("T%d", int(T0-r))
	case r == DCC0:
		return "DCC0"
	case r == DCC0N:
		return "~DCC0"
	case r == DCC1:
		return "DCC1"
	case r == DCC1N:
		return "~DCC1"
	case r == RowNone:
		return "-"
	}
	return fmt.Sprintf("R?%d", int(r))
}

// OpKind enumerates the PUD micro-operations.
type OpKind uint8

const (
	// OpAAP copies Src into every row listed in Dst (1-3 rows, B-group
	// multi-row activation) via ACTIVATE-ACTIVATE-PRECHARGE.
	OpAAP OpKind = iota

	// OpAP performs a triple-row activation (TRA) over Dst[0..2], leaving
	// the bitwise majority of the three rows in all three.
	OpAP

	// OpWrite transfers one row of data from the host into Dst[0] over the
	// memory bus (used for input operands and spilled-row refill).
	OpWrite

	// OpRead transfers the row Src out to the host over the memory bus
	// (used for results and for spilling rows out).
	OpRead

	// OpSpillOut reads Src out to the host and enqueues an SSD page
	// program for it. Timing-wise it is an OpRead plus SSD traffic.
	OpSpillOut

	// OpSpillIn fetches a previously spilled row from the SSD and writes
	// it into Dst[0]. Timing-wise an SSD read plus an OpWrite.
	OpSpillIn
)

// NumOpKinds is the number of op kinds: the size of a table indexed by
// OpKind.
const NumOpKinds = int(OpSpillIn) + 1

var opKindNames = [NumOpKinds]string{"AAP", "AP", "WRITE", "READ", "SPILL_OUT", "SPILL_IN"}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OP?%d", int(k))
}

// Events is a set of the row events micro-ops raise on a subarray: the
// points where a fault model may observe or perturb the data
// (sim.FaultHook). A model subscribes to the events its enabled effects
// need, and the simulator raises no other.
type Events uint8

const (
	// EvLoad: a row is about to be sensed as an operand.
	EvLoad Events = 1 << iota
	// EvCompute: a TRA (AP) result is about to latch into its rows.
	EvCompute
	// EvCopy: an AAP payload is in the row buffer, about to be stored.
	EvCopy
	// EvStore: a row has just been stored.
	EvStore

	// EvAll is every event.
	EvAll = EvLoad | EvCompute | EvCopy | EvStore
)

// Op is a single PUD micro-operation targeted at one subarray. The record
// is 24 bytes (TestOpSize): programs run to millions of ops and every
// compile stage and simulator front end strides the stream, and a kernel
// keeps its program for life, so its width is the pipeline's memory
// traffic and most of what a kernel retains. Field order packs it without
// padding: Kind@0, NDst@1, Src@2, Dst@4, Tag@12, Imm@16.
type Op struct {
	Kind OpKind
	NDst uint8  // number of valid entries in Dst
	Src  Row    // source row (AAP, READ, SPILL_OUT)
	Dst  [3]Row // destination rows; see OpKind docs

	// Tag carries the host-transfer payload identity (which logical input
	// row a WRITE carries); used by VIRCOE and the simulator.
	Tag int32
	Imm uint64 // spill slot id for spills
}

// NewAAP builds a row-copy op from src into one, two or three destinations.
func NewAAP(src Row, dst ...Row) Op {
	if len(dst) == 0 || len(dst) > 3 {
		panic(fmt.Sprintf("isa: AAP needs 1-3 destinations, got %d", len(dst)))
	}
	op := Op{Kind: OpAAP, Src: src, NDst: uint8(len(dst))}
	op.Dst = [3]Row{RowNone, RowNone, RowNone}
	copy(op.Dst[:], dst)
	return op
}

// NewCopy is NewAAP with exactly one destination: the row-to-row copy the
// code generator emits by the million, without the variadic slice.
func NewCopy(src, dst Row) Op {
	return Op{Kind: OpAAP, Src: src, Dst: [3]Row{dst, RowNone, RowNone}, NDst: 1}
}

// NewAP builds a triple-row-activation op over exactly three B-group rows.
func NewAP(a, b, c Row) Op {
	return Op{Kind: OpAP, Src: RowNone, Dst: [3]Row{a, b, c}, NDst: 3}
}

// NewWrite builds a host-to-DRAM row transfer carrying payload tag.
func NewWrite(dst Row, tag int) Op {
	return Op{Kind: OpWrite, Src: RowNone, Dst: [3]Row{dst, RowNone, RowNone}, NDst: 1, Tag: int32(tag)}
}

// NewRead builds a DRAM-to-host row transfer.
func NewRead(src Row, tag int) Op {
	return Op{Kind: OpRead, Src: src, Dst: [3]Row{RowNone, RowNone, RowNone}, Tag: int32(tag)}
}

// NewSpillOut builds a spill-to-SSD op for row src into spill slot.
func NewSpillOut(src Row, slot uint64) Op {
	return Op{Kind: OpSpillOut, Src: src, Dst: [3]Row{RowNone, RowNone, RowNone}, Imm: slot}
}

// NewSpillIn builds a refill-from-SSD op for spill slot into row dst.
func NewSpillIn(dst Row, slot uint64) Op {
	return Op{Kind: OpSpillIn, Src: RowNone, Dst: [3]Row{dst, RowNone, RowNone}, NDst: 1, Imm: slot}
}

// Dsts returns the valid destination rows as a slice (aliasing op storage).
func (o *Op) Dsts() []Row { return o.Dst[:o.NDst] }

// IsTransfer reports whether the op occupies the shared memory bus
// (host-mediated data movement), as opposed to in-subarray computation.
func (o *Op) IsTransfer() bool {
	switch o.Kind {
	case OpWrite, OpRead, OpSpillOut, OpSpillIn:
		return true
	}
	return false
}

// String renders the op in assembly syntax.
func (o Op) String() string {
	switch o.Kind {
	case OpAAP:
		s := "AAP " + o.Src.String() + " ->"
		for _, d := range o.Dsts() {
			s += " " + d.String()
		}
		return s
	case OpAP:
		return fmt.Sprintf("AP %s,%s,%s", o.Dst[0], o.Dst[1], o.Dst[2])
	case OpWrite:
		return fmt.Sprintf("WRITE -> %s (tag %d)", o.Dst[0], o.Tag)
	case OpRead:
		return fmt.Sprintf("READ %s (tag %d)", o.Src, o.Tag)
	case OpSpillOut:
		return fmt.Sprintf("SPILL_OUT %s (slot %d)", o.Src, o.Imm)
	case OpSpillIn:
		return fmt.Sprintf("SPILL_IN -> %s (slot %d)", o.Dst[0], o.Imm)
	}
	return "?"
}

// Arch identifies one of the supported Bit-serial SIMD PUD architectures.
type Arch int

const (
	// Ambit implements bulk AND/OR through triple-row activation with a
	// C-group control row, and NOT through dual-contact cells.
	Ambit Arch = iota
	// ELP2IM augments the precharge units in the local row buffer so that
	// consecutive bitwise operations need fewer full activations.
	ELP2IM
	// SIMDRAM exposes majority (MAJ) as the computation primitive and
	// synthesizes arithmetic from MAJ/NOT, over the Ambit substrate.
	SIMDRAM
)

var archNames = [...]string{"Ambit", "ELP2IM", "SIMDRAM"}

func (a Arch) String() string {
	if int(a) < len(archNames) {
		return archNames[a]
	}
	return fmt.Sprintf("Arch?%d", int(a))
}

// AllArchs lists every supported architecture in evaluation order.
var AllArchs = []Arch{Ambit, ELP2IM, SIMDRAM}

// ParseArch is String's inverse, case-insensitive: the one place a target
// name typed on a command line or sent in a request is read.
func ParseArch(s string) (Arch, error) {
	for _, a := range AllArchs {
		if strings.EqualFold(s, a.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown target %q (valid: %s)", s, strings.ToLower(strings.Join(archNames[:], ", ")))
}

// Program is a straight-line micro-op sequence for a single subarray,
// together with the row-resource footprint it requires.
type Program struct {
	Ops []Op

	// DRowsUsed is the number of D-group rows the program touches
	// (the high-water mark of allocated data rows).
	DRowsUsed int

	// SpillSlots is the number of distinct SSD spill slots referenced.
	SpillSlots int

	// EpochMarks lists legal recovery cut points as strictly increasing
	// op-stream indices in (0, len(Ops)]: the code generator records one
	// after each gate's micro-op cluster retires, so an epoch boundary
	// never splits the multi-op lowering of a single logic gate. Nil means
	// the producer recorded none (hand-built or baseline programs) and the
	// recovery runtime falls back to fixed-stride cuts. Marks carry no
	// execution semantics and do not appear in the assembly dump. They are
	// op indices, four bytes each: codegen.Generate rejects a program of
	// more than math.MaxInt32 ops.
	EpochMarks []int32
}

// Append adds ops to the program.
func (p *Program) Append(ops ...Op) { p.Ops = append(p.Ops, ops...) }

// Counts summarizes a program by op kind.
func (p *Program) Counts() map[OpKind]int {
	m := make(map[OpKind]int)
	for i := range p.Ops {
		m[p.Ops[i].Kind]++
	}
	return m
}

// Validate checks structural invariants: every row operand is a row of the
// subarray (a C-group or B-group row, or a D-group row below dRows), AP
// operands are B-group rows, no AAP or WRITE stores into C0 or C1, spill
// ops carry slot ids below SpillSlots, and the epoch marks are strictly
// increasing in (0, len(Ops)]. It is ValidateOps over the whole stream,
// then ValidateMarks.
func (p *Program) Validate(dRows int) error {
	if err := p.ValidateOps(0, len(p.Ops), dRows, p.SpillSlots); err != nil {
		return err
	}
	return p.ValidateMarks()
}

// ValidateOps checks ops [from, to) the way Validate checks every op, with
// spill slots bounded by spillSlots, and words the first failure exactly as
// Validate does. A producer can check each cluster of ops as it emits them,
// against the slot bound it has so far: the bound only grows, so an op it
// passes also passes the whole-program sweep.
func (p *Program) ValidateOps(from, to, dRows, spillSlots int) error {
	for i := from; i < to; i++ {
		if err := p.Ops[i].validate(dRows, spillSlots); err != nil {
			return fmt.Errorf("isa: op %d (%s): %w", i, p.Ops[i], err)
		}
	}
	return nil
}

// ValidateMarks checks that the epoch marks are strictly increasing in
// (0, len(Ops)].
func (p *Program) ValidateMarks() error {
	prev := 0
	for _, m32 := range p.EpochMarks {
		m := int(m32)
		if m <= prev || m > len(p.Ops) {
			return fmt.Errorf("isa: epoch mark %d not strictly increasing in (0, %d]", m, len(p.Ops))
		}
		prev = m
	}
	return nil
}

// rowBad reports whether row operand r is missing, names no row, or lies
// beyond the dRows D-group rows an op may address.
func rowBad(r Row, dRows int) bool {
	return r < DCC1N || r.IsDGroup() && int(r) >= dRows
}

// rowError words what rowBad found.
func rowError(r Row, what string, dRows int) error {
	switch {
	case r == RowNone:
		return fmt.Errorf("missing %s row", what)
	case r < DCC1N:
		return fmt.Errorf("%s %s is not a row", what, r)
	}
	return fmt.Errorf("%s row %s exceeds D-group size %d", what, r, dRows)
}

// Rows is the op's four row fields in the order Roles reads them: Src,
// then Dst[0..2].
func (o *Op) Rows() [4]Row { return [4]Row{o.Src, o.Dst[0], o.Dst[1], o.Dst[2]} }

// Roles is the one rule of which of an op's row operands (opd, in Rows'
// order) it senses and which it stores, for its kind k and destination
// count ndst, in the order an executor takes them: an AAP senses Src and
// stores Dst[:ndst], an AP senses Dst[0..2] and then stores into them, a
// READ or SPILL_OUT senses Src, and a WRITE or SPILL_IN stores Dst[0]. An
// unknown kind names no row. T is a row or any per-row record an executor
// resolves it to.
func Roles[T any](opd *[4]T, k OpKind, ndst uint8) (reads, writes []T) {
	switch k {
	case OpAAP:
		return opd[:1], opd[1 : 1+ndst]
	case OpAP:
		return opd[1:], opd[1:]
	case OpRead, OpSpillOut:
		return opd[:1], nil
	case OpWrite, OpSpillIn:
		return nil, opd[1:2]
	}
	return nil, nil
}

// ConstStore is the one rule of which stores are illegal whatever the
// data: any store but an AP's (an AAP, WRITE or SPILL_IN, kind k) into C0
// or C1, the constant rows. Validate rejects such an op; the simulator
// fails at such a destination, before storing into it, and its
// translation rejects the op there. An AP's operands are B-group rows.
func ConstStore(k OpKind, r Row) bool {
	return k != OpAP && r.IsCGroup()
}

// validate is Validate for one op; the caller adds the op's position. It
// checks the rows Roles names: each must be a row of the subarray, an AP's
// and a multi-destination AAP's in the B-group, and no store may be
// ConstStore's. A B-group row passes every check, so it is tested first:
// codegen.Generate checks every op it emits.
func (o *Op) validate(dRows, spillSlots int) error {
	if o.Kind == OpAAP && (o.NDst < 1 || o.NDst > 3) {
		return fmt.Errorf("AAP with %d destinations", o.NDst)
	}
	rows := o.Rows()
	reads, writes := Roles(&rows, o.Kind, o.NDst)
	for _, r := range reads {
		if r.IsBGroup() { // valid in every role
			continue
		}
		if o.Kind == OpAP {
			return fmt.Errorf("TRA operand %s outside B-group", r)
		}
		if rowBad(r, dRows) {
			return rowError(r, "source", dRows)
		}
	}
	if o.Kind == OpAP {
		return nil // it stores into the rows it senses
	}
	for _, r := range writes {
		if r.IsBGroup() {
			continue
		}
		switch {
		case rowBad(r, dRows):
			return rowError(r, "destination", dRows)
		case len(writes) > 1:
			return fmt.Errorf("multi-destination AAP outside B-group")
		case ConstStore(o.Kind, r):
			return fmt.Errorf("%s into constant row %s", o.Kind, r)
		}
	}
	switch o.Kind {
	case OpAAP, OpWrite, OpRead:
	case OpSpillOut, OpSpillIn:
		if int(o.Imm) >= spillSlots {
			return fmt.Errorf("spill slot %d out of range %d", o.Imm, spillSlots)
		}
	default:
		return fmt.Errorf("unknown kind %d", int(o.Kind))
	}
	return nil
}
