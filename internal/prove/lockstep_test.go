package prove

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"chopper"
	"chopper/internal/codegen"
	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/isa"
	"chopper/internal/sim"
)

// lockstep is a sim.FaultHook that holds a run of a program on sim's
// planned loop — Machine.RunFunctionalCtx over the program decoded once,
// the path every product run takes — to the program's run on the word
// reference (ref), op by op, over 64 lanes. The reference run records, per
// op, the word of each row it stores (a dual-contact partner after its
// row). Replaying those stores, the hook knows what each row holds before
// each op. It compares each row sim senses (EvLoad), each row it stores
// (EvStore; the partner as the complement of what sim stored) and each
// READ payload (HostIO.ReadSink) with the reference's word at that op, and
// counts each op's stores: an op that stores fewer rows than its reference
// twin is named at that op.
type lockstep struct {
	// inner, when set, hears every event it subscribes to before the
	// check, and may perturb the run (TestLockstepSensitivity).
	inner sim.FaultHook
	ops   []isa.Op
	vals  []uint64       // per op, the words of the rows it stores
	off   []int32        // op i's words start at vals[off[i]]; one entry per recorded op, plus the end
	rows  []uint64       // by slot, the reference's word of each row before op settled
	reads map[int]uint64 // what sim's READs carried, by tag

	last    int    // the op of the last event
	stores  int    // the store events op last raised
	settled int    // ops before it whose stores are checked and replayed
	fail    string // the first disagreement
}

// newLockstep runs code's program on the word reference over in and
// returns the hook that holds a sim run of the program to it, with the op
// the reference run stops at (-1: none).
func newLockstep(code *codegen.Result, in map[string]uint64) (*lockstep, int) {
	ops := code.Prog.Ops
	m := newRef(code, in)
	size := 0
	for i := range ops {
		_, n := stored(&ops[i])
		size += n
	}
	h := &lockstep{ops: ops, vals: make([]uint64, 0, size), off: make([]int32, 0, len(ops)+1),
		rows: slices.Clone(m.rows), reads: map[int]uint64{}, last: -1}
	stop := -1
	for i := range ops {
		op := &ops[i]
		if m.step(op) != nil {
			stop = i
			break
		}
		h.off = append(h.off, int32(len(h.vals)))
		rows, n := stored(op)
		for _, r := range rows[:n] {
			s, _ := slot(r)
			h.vals = append(h.vals, m.rows[s])
		}
	}
	h.off = append(h.off, int32(len(h.vals)))
	return h, stop
}

// run executes code's program, decoded as d, on m's planned loop over in
// with h attached, and returns the op sim stops at (-1: none) and why.
func (h *lockstep) run(m *sim.Machine, geom dram.Geometry, code *codegen.Result, d *sim.Decoded, in map[string]uint64) (int, error) {
	m.Reconfigure(sim.MachineConfig{Geom: geom, Lanes: 64, Fault: h})
	io := hostIO(code, in, 1, func(tag int, data []uint64) {
		h.reads[tag] = data[0]
		h.read(data[0])
	})
	err := m.RunFunctionalCtx(nil, d, io, guard.Budget{})
	stop, end := -1, len(h.ops)
	if err != nil {
		// Every error of a run names its op ("op i at bank b sub s: ...").
		if _, perr := fmt.Sscanf(err.Error(), "op %d ", &stop); perr != nil && h.fail == "" {
			h.fail = fmt.Sprintf("sim fails at no op: %v", err)
		}
		end = max(stop, 0)
	}
	h.settle(min(end, h.recorded()))
	return stop, err
}

// recorded is the number of ops the reference run completed.
func (h *lockstep) recorded() int { return len(h.off) - 1 }

func (h *lockstep) failf(i int, format string, args ...any) {
	if h.fail == "" {
		h.fail = fmt.Sprintf("op %d (%s): ", i, &h.ops[i]) + fmt.Sprintf(format, args...)
	}
}

// enter notes an event of op i, settling the ops before it, and reports
// whether it is to be checked: op i is one the reference run completed, and
// nothing disagreed yet.
func (h *lockstep) enter(i int) bool {
	if i != h.last {
		h.settle(min(i, h.recorded()))
		h.last, h.stores = i, 0
	}
	return i < h.recorded() && h.fail == ""
}

// settle checks that each op in [h.settled, to) raised as many store events
// as its reference twin stores rows (of those ops, only op h.last raised
// events), and replays its stores into h.rows.
func (h *lockstep) settle(to int) {
	for i := h.settled; i < to; i++ {
		op := &h.ops[i]
		got := 0
		if i == h.last {
			got = h.stores
		}
		if want := storeEvents(op); got != want {
			h.failf(i, "sim stores %d rows, the reference %d", got, want)
		}
		rows, n := stored(op)
		for k, r := range rows[:n] {
			s, _ := slot(r)
			for s >= len(h.rows) {
				h.rows = append(h.rows, 0)
			}
			h.rows[s] = h.vals[int(h.off[i])+k]
		}
	}
	h.settled = max(h.settled, to)
}

// holds is what row r holds on the reference run after the settled ops.
func (h *lockstep) holds(r isa.Row) uint64 {
	s, _ := slot(r)
	return h.rows[s]
}

func (h *lockstep) Events() isa.Events {
	ev := isa.EvLoad | isa.EvStore
	if h.inner != nil {
		ev |= h.inner.Events()
	}
	return ev
}

func (h *lockstep) BeforeLoad(i int, r isa.Row, data []uint64, lanes int) {
	if h.inner != nil && h.inner.Events()&isa.EvLoad != 0 {
		h.inner.BeforeLoad(i, r, data, lanes)
	}
	if !h.enter(i) {
		return
	}
	rows, n := sensed(&h.ops[i])
	if index(rows[:n], r) < 0 {
		h.failf(i, "sim senses row %s, the reference does not", r)
	} else if want := h.holds(r); data[0] != want {
		h.failf(i, "sim senses row %s as %#x, the reference %#x", r, data[0], want)
	}
}

func (h *lockstep) AfterCompute(i int, data []uint64, lanes int) {
	if h.inner != nil && h.inner.Events()&isa.EvCompute != 0 {
		h.inner.AfterCompute(i, data, lanes)
	}
}

func (h *lockstep) AfterCopy(i int, data []uint64, lanes int) {
	if h.inner != nil && h.inner.Events()&isa.EvCopy != 0 {
		h.inner.AfterCopy(i, data, lanes)
	}
}

func (h *lockstep) AfterStore(i int, r isa.Row, data []uint64, lanes int) {
	if h.inner != nil && h.inner.Events()&isa.EvStore != 0 {
		h.inner.AfterStore(i, r, data, lanes)
	}
	if !h.enter(i) {
		return
	}
	h.stores++
	rows, n := stored(&h.ops[i])
	v := h.vals[h.off[i]:]
	switch k := index(rows[:n], r); {
	case k < 0:
		h.failf(i, "sim stores row %s, the reference does not", r)
	case data[0] != v[k]:
		h.failf(i, "row %s holds %#x on sim, the reference %#x", r, data[0], v[k])
	case k+1 < n && rows[k+1] == r.Complement() && ^data[0] != v[k+1]:
		h.failf(i, "row %s, the partner of %s, holds %#x on sim, the reference %#x", rows[k+1], r, ^data[0], v[k+1])
	}
}

// read checks a READ payload against the row its op sensed.
func (h *lockstep) read(got uint64) {
	if i := h.last; i < h.recorded() && h.fail == "" {
		if want := h.holds(h.ops[i].Src); got != want {
			h.failf(i, "sim reads %#x, the reference %#x", got, want)
		}
	}
}

// sensed lists the n rows op senses, in the order sim senses them.
func sensed(op *isa.Op) (rows [3]isa.Row, n int) {
	switch op.Kind {
	case isa.OpAAP, isa.OpRead, isa.OpSpillOut:
		rows[0] = op.Src
		return rows, 1
	case isa.OpAP:
		return op.Dst, 3
	}
	return rows, 0
}

// storeEvents is the number of store events sim raises for op: one per
// row it stores.
func storeEvents(op *isa.Op) int {
	switch op.Kind {
	case isa.OpAAP, isa.OpWrite, isa.OpSpillIn:
		return int(op.NDst)
	case isa.OpAP:
		return 3
	}
	return 0
}

// index is the position of r in rows, or -1.
func index(rows []isa.Row, r isa.Row) int {
	for k, x := range rows {
		if x == r {
			return k
		}
	}
	return -1
}

// restoreAPRow puts one of an AP's three stored rows back to its old value:
// the third row of the first AP whose majority changes it.
type restoreAPRow struct {
	ops []isa.Op
	old uint64
	at  int // the op perturbed; -1 until then
}

func (*restoreAPRow) Events() isa.Events { return isa.EvLoad | isa.EvStore }
func (p *restoreAPRow) BeforeLoad(i int, r isa.Row, data []uint64, _ int) {
	if p.at < 0 && p.ops[i].Kind == isa.OpAP && r == p.ops[i].Dst[2] {
		p.old = data[0]
	}
}
func (*restoreAPRow) AfterCompute(int, []uint64, int) {}
func (*restoreAPRow) AfterCopy(int, []uint64, int)    {}
func (p *restoreAPRow) AfterStore(i int, r isa.Row, data []uint64, _ int) {
	if p.at < 0 && p.ops[i].Kind == isa.OpAP && r == p.ops[i].Dst[2] && data[0] != p.old {
		data[0], p.at = p.old, i
	}
}

// uncomplemented leaves a dual-contact partner uncomplemented: the first op
// that senses the partner of the dual-contact row stored last senses what
// that row was stored with.
type uncomplemented struct {
	row isa.Row // the partner of the dual-contact row stored last
	val uint64  // what that row was stored with
	at  int     // the op perturbed; -1 until then
}

func (*uncomplemented) Events() isa.Events { return isa.EvLoad | isa.EvStore }
func (p *uncomplemented) BeforeLoad(i int, r isa.Row, data []uint64, _ int) {
	if p.at < 0 && r == p.row {
		data[0], p.at = p.val, i
	}
}
func (*uncomplemented) AfterCompute(int, []uint64, int) {}
func (*uncomplemented) AfterCopy(int, []uint64, int)    {}
func (p *uncomplemented) AfterStore(_ int, r isa.Row, data []uint64, _ int) {
	if c := r.Complement(); p.at < 0 && c != isa.RowNone {
		p.row, p.val = c, data[0]
	}
}

// TestLockstepSensitivity: the lockstep passes an unperturbed run and
// names the op of each perturbation the simulator could suffer — one of an
// AP's three rows left at its old value, a dual-contact partner left
// uncomplemented (seen by the first op that senses it).
func TestLockstepSensitivity(t *testing.T) {
	k, err := chopper.Compile("node main(a: u8, b: u8, c: u8) returns (z: u8) let z = (a + b) ^ ~c; tel", chopper.Options{Target: chopper.Ambit})
	if err != nil {
		t.Fatal(err)
	}
	in := randomInputs(k.Net, 1)
	m := sim.NewMachine(sim.MachineConfig{Geom: k.Opts.Geometry, Lanes: 64})
	run := func(inner sim.FaultHook) *lockstep {
		h, stop := newLockstep(k.Code, in)
		if stop >= 0 {
			t.Fatalf("the reference run stops at op %d", stop)
		}
		h.inner = inner
		if stop, err := h.run(m, k.Opts.Geometry, k.Code, sim.Decode(k.Code.Prog), in); stop >= 0 {
			t.Fatalf("sim stops at op %d: %v", stop, err)
		}
		return h
	}
	if h := run(nil); h.fail != "" {
		t.Fatalf("unperturbed run: %s", h.fail)
	}
	ops := k.Code.Prog.Ops
	ap := &restoreAPRow{ops: ops, at: -1}
	dcc := &uncomplemented{row: isa.RowNone, at: -1}
	for _, c := range []struct {
		name string
		p    sim.FaultHook
		site func() (int, string) // the op perturbed and what the report says of it
	}{
		{"AP row restored", ap, func() (int, string) {
			return ap.at, fmt.Sprintf("row %s holds", ops[max(ap.at, 0)].Dst[2])
		}},
		{"DCC partner uncomplemented", dcc, func() (int, string) {
			return dcc.at, fmt.Sprintf("sim senses row %s as", dcc.row)
		}},
	} {
		h := run(c.p)
		at, text := c.site()
		if at < 0 {
			t.Fatalf("%s: the program gave the perturbation no site", c.name)
		}
		if prefix := fmt.Sprintf("op %d (", at); !strings.HasPrefix(h.fail, prefix) || !strings.Contains(h.fail, text) {
			t.Errorf("%s at op %d: the lockstep reports %q, want op %d and %q", c.name, at, h.fail, at, text)
		}
	}
}

// numSpecial is the number of C- and B-group rows (isa.C0 .. isa.DCC1N),
// which take the first row slots; D-group row r is slot numSpecial+r.
const numSpecial = 10

func slot(r isa.Row) (int, bool) {
	if r >= 0 {
		return numSpecial + int(r), true
	}
	if r >= isa.DCC1N {
		return -1 - int(r), true
	}
	return 0, false
}

// ref is the lockstep's reference subarray: what each µop means, written
// apart from sim (the oracle must not share the code it checks) over 64
// lanes. It holds each row's word by slot (def marks the rows some op
// stored), the spill slots, and the program's host interface over the
// input words in.
//
//	C0, C1                zero and all ones
//	WRITE tag             the input word InputTag names, or a uniform ConstPattern
//	AAP src -> d...       a copy; a write to a DCC row sets its partner to the NOT
//	AP a,b,c              MAJ(a, b, c), stored to all three rows
//	SPILL_OUT, SPILL_IN   through a slot map
//	READ tag              of a tag OutputTag names
type ref struct {
	code   *codegen.Result
	in     map[string]uint64
	rows   []uint64
	def    []bool
	spill  map[uint64]uint64
	inName map[int]string
	outTag map[int]bool
}

func newRef(code *codegen.Result, in map[string]uint64) *ref {
	n := numSpecial + code.Prog.DRowsUsed
	m := &ref{code: code, in: in, rows: make([]uint64, n), def: make([]bool, n), spill: map[uint64]uint64{},
		inName: make(map[int]string, len(code.InputTag)), outTag: make(map[int]bool, len(code.OutputTag))}
	c1, _ := slot(isa.C1)
	m.rows[c1] = ^uint64(0)
	m.def[0], m.def[c1] = true, true
	for name, tag := range code.InputTag {
		m.inName[tag] = name
	}
	for _, tag := range code.OutputTag {
		m.outTag[tag] = true
	}
	return m
}

func (m *ref) get(r isa.Row) (uint64, error) {
	if i, ok := slot(r); ok && i < len(m.rows) && m.def[i] {
		return m.rows[i], nil
	}
	return 0, fmt.Errorf("read of undefined row %s", r)
}

// set stores v in r, and its NOT in r's dual-contact partner.
func (m *ref) set(r isa.Row, v uint64) error {
	i, ok := slot(r)
	if !ok {
		return fmt.Errorf("write to row %s outside the subarray", r)
	}
	for i >= len(m.rows) {
		m.rows, m.def = append(m.rows, 0), append(m.def, false)
	}
	m.rows[i], m.def[i] = v, true
	if c := r.Complement(); c != isa.RowNone {
		ci, _ := slot(c)
		m.rows[ci], m.def[ci] = ^v, true
	}
	return nil
}

// step executes one op: first the value it moves, then where the value
// goes. It fails where sim's µop body fails, and on what has no place in
// the proof: a non-uniform row pattern, a READ of a tag no output has.
func (m *ref) step(op *isa.Op) error {
	var v uint64
	var err error
	switch op.Kind {
	case isa.OpAAP, isa.OpRead, isa.OpSpillOut:
		v, err = m.get(op.Src)
	case isa.OpAP:
		var a [3]uint64
		for i := 0; i < 3 && err == nil; i++ {
			a[i], err = m.get(op.Dst[i])
		}
		v = a[0]&a[1] | a[1]&a[2] | a[0]&a[2]
	case isa.OpWrite:
		name, in := m.inName[int(op.Tag)]
		pat, c := m.code.ConstPattern[int(op.Tag)]
		switch {
		case in:
			v = m.in[name]
		case !c:
			err = fmt.Errorf("WRITE of unknown tag %d", op.Tag)
		case pat != 0 && pat != ^uint64(0):
			err = fmt.Errorf("non-uniform row pattern %#x", pat)
		default:
			v = pat
		}
	case isa.OpSpillIn:
		var ok bool
		if v, ok = m.spill[op.Imm]; !ok {
			err = fmt.Errorf("SPILL_IN of unwritten slot %d", op.Imm)
		}
	default:
		err = fmt.Errorf("unknown op kind %d", int(op.Kind))
	}
	if err != nil {
		return err
	}

	switch op.Kind {
	case isa.OpRead:
		if !m.outTag[int(op.Tag)] {
			return fmt.Errorf("READ of unknown tag %d", op.Tag)
		}
		return nil
	case isa.OpSpillOut:
		m.spill[op.Imm] = v
		return nil
	}
	dsts := op.Dst[:1]
	switch op.Kind {
	case isa.OpAAP:
		dsts = op.Dsts()
	case isa.OpAP:
		dsts = op.Dst[:]
	}
	for _, d := range dsts {
		if d.IsCGroup() && op.Kind != isa.OpAP {
			return fmt.Errorf("%s into constant row %s", op.Kind, d)
		}
		if err := m.set(d, v); err != nil {
			return err
		}
	}
	return nil
}
