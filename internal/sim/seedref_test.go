package sim

// This file carries a verbatim copy of the pre-arena (map-backed) Subarray
// implementation as a reference model, and drives randomized micro-op
// programs through reference, Exec, ExecDecoded and a Reset-reused
// subarray in lockstep, asserting byte-identical results, errors, ReadSink
// payloads and fault-hook call sequences. It is the golden equivalence
// suite for the zero-allocation rewrite: any drift in semantics — error
// text, error position, hook ordering, complement maintenance, the read of
// a D row past the D-group — fails here. Stores outside the device are
// where the two part: the seed stored them, the simulator fails the op
// (TestSeedEquivalenceOverflowRows), so the random programs read such rows
// but never store into them.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"chopper/internal/isa"
)

// seedSub is the map-backed Subarray exactly as it stood before the arena
// rewrite (commit 5e56f8e), with only the type names changed.
type seedSub struct {
	lanes int
	words int
	mask  uint64
	dRows int
	rows  map[isa.Row][]uint64

	hook  FaultHook
	opIdx int
}

type seedSpill struct {
	slots map[uint64][]uint64
}

func newSeedSub(dRows, lanes int) *seedSub {
	words := (lanes + 63) / 64
	mask := ^uint64(0)
	if r := lanes % 64; r != 0 {
		mask = (uint64(1) << uint(r)) - 1
	}
	s := &seedSub{lanes: lanes, words: words, mask: mask, dRows: dRows, rows: make(map[isa.Row][]uint64)}
	s.setRow(isa.C0, s.constRow(0))
	s.setRow(isa.C1, s.constRow(^uint64(0)))
	return s
}

func (s *seedSub) load(idx int, r isa.Row) ([]uint64, error) {
	row, err := s.getRow(r)
	if err != nil {
		return nil, err
	}
	if s.hook != nil {
		s.hook.BeforeLoad(idx, r, row, s.lanes)
	}
	return row, nil
}

func (s *seedSub) stored(idx int, r isa.Row) {
	if s.hook == nil {
		return
	}
	if row, ok := s.rows[r]; ok {
		s.hook.AfterStore(idx, r, row, s.lanes)
	}
}

func (s *seedSub) constRow(pattern uint64) []uint64 {
	row := make([]uint64, s.words)
	for i := range row {
		row[i] = pattern
	}
	row[s.words-1] &= s.mask
	return row
}

func (s *seedSub) getRow(r isa.Row) ([]uint64, error) {
	if r.IsDGroup() && int(r) >= s.dRows {
		return nil, fmt.Errorf("sim: row %s beyond D-group size %d", r, s.dRows)
	}
	row, ok := s.rows[r]
	if !ok {
		return nil, fmt.Errorf("sim: read of uninitialized row %s", r)
	}
	return row, nil
}

func (s *seedSub) setRow(r isa.Row, data []uint64) {
	dst, ok := s.rows[r]
	if !ok {
		dst = make([]uint64, s.words)
		s.rows[r] = dst
	}
	copy(dst, data)
	dst[s.words-1] &= s.mask
	if comp := r.Complement(); comp != isa.RowNone {
		cdst, ok := s.rows[comp]
		if !ok {
			cdst = make([]uint64, s.words)
			s.rows[comp] = cdst
		}
		for i := range cdst {
			cdst[i] = ^dst[i]
		}
		cdst[s.words-1] &= s.mask
	}
}

func (s *seedSub) row(r isa.Row) []uint64 {
	row, ok := s.rows[r]
	if !ok {
		return nil
	}
	out := make([]uint64, len(row))
	copy(out, row)
	return out
}

func (s *seedSub) exec(op *isa.Op, io *HostIO, spill *seedSpill) error {
	idx := s.opIdx
	s.opIdx++
	switch op.Kind {
	case isa.OpRowInit:
		if op.Dst[0].IsCGroup() {
			want := uint64(0)
			if op.Dst[0] == isa.C1 {
				want = ^uint64(0)
			}
			if op.Imm != want {
				return fmt.Errorf("sim: ROWINIT %s with wrong pattern %#x", op.Dst[0], op.Imm)
			}
		}
		s.setRow(op.Dst[0], s.constRow(op.Imm))
		return nil
	case isa.OpAAP:
		src, err := s.load(idx, op.Src)
		if err != nil {
			return err
		}
		tmp := make([]uint64, s.words)
		copy(tmp, src)
		if s.hook != nil {
			s.hook.AfterCopy(idx, tmp, s.lanes)
		}
		for _, d := range op.Dsts() {
			if d.IsCGroup() {
				return fmt.Errorf("sim: AAP into constant row %s", d)
			}
			s.setRow(d, tmp)
			s.stored(idx, d)
		}
		return nil
	case isa.OpAP:
		a, err := s.load(idx, op.Dst[0])
		if err != nil {
			return err
		}
		b, err := s.load(idx, op.Dst[1])
		if err != nil {
			return err
		}
		c, err := s.load(idx, op.Dst[2])
		if err != nil {
			return err
		}
		res := make([]uint64, s.words)
		for i := range res {
			res[i] = (a[i] & b[i]) | (b[i] & c[i]) | (a[i] & c[i])
		}
		if s.hook != nil {
			s.hook.AfterCompute(idx, res, s.lanes)
		}
		for _, d := range op.Dst {
			s.setRow(d, res)
			s.stored(idx, d)
		}
		return nil
	case isa.OpWrite:
		if io == nil || io.WriteData == nil {
			return fmt.Errorf("sim: WRITE with no host data source (tag %d)", op.Tag)
		}
		data := io.WriteData(int(op.Tag))
		if data == nil {
			return fmt.Errorf("sim: host has no data for WRITE tag %d", op.Tag)
		}
		if op.Dst[0].IsCGroup() {
			return fmt.Errorf("sim: WRITE into constant row %s", op.Dst[0])
		}
		s.setRow(op.Dst[0], data)
		s.stored(idx, op.Dst[0])
		return nil
	case isa.OpRead:
		src, err := s.load(idx, op.Src)
		if err != nil {
			return err
		}
		if io == nil || io.ReadSink == nil {
			return fmt.Errorf("sim: READ with no host sink (tag %d)", op.Tag)
		}
		out := make([]uint64, s.words)
		copy(out, src)
		io.ReadSink(int(op.Tag), out)
		return nil
	case isa.OpSpillOut:
		src, err := s.load(idx, op.Src)
		if err != nil {
			return err
		}
		if spill == nil {
			return fmt.Errorf("sim: spill with no spill store")
		}
		saved := make([]uint64, s.words)
		copy(saved, src)
		spill.slots[op.Imm] = saved
		return nil
	case isa.OpSpillIn:
		if spill == nil {
			return fmt.Errorf("sim: spill with no spill store")
		}
		data, ok := spill.slots[op.Imm]
		if !ok {
			return fmt.Errorf("sim: SPILL_IN of unwritten slot %d", op.Imm)
		}
		s.setRow(op.Dst[0], data)
		s.stored(idx, op.Dst[0])
		return nil
	}
	return fmt.Errorf("sim: unknown op kind %d", int(op.Kind))
}

// traceHook records every fault-hook invocation (kind, op index, row, a
// hash of the payload) and deterministically perturbs some payloads, so a
// divergence in hook ordering, arguments or mutation handling between the
// implementations shows up as a trace mismatch or a row mismatch.
type traceHook struct {
	events []string
	n      int
}

func hashRow(data []uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, w := range data {
		h = (h ^ w) * 1099511628211
	}
	return h
}

func (h *traceHook) record(kind string, opIdx int, r isa.Row, data []uint64, lanes int) {
	h.events = append(h.events, fmt.Sprintf("%s op%d %v %x l%d", kind, opIdx, r, hashRow(data), lanes))
}

func (h *traceHook) perturb(data []uint64, lanes int) {
	h.n++
	if h.n%5 == 0 {
		lane := (h.n * 13) % lanes
		data[lane/64] ^= 1 << uint(lane%64)
	}
}

func (h *traceHook) Events() isa.Events { return isa.EvAll }
func (h *traceHook) BeforeLoad(opIdx int, r isa.Row, data []uint64, lanes int) {
	h.record("load", opIdx, r, data, lanes)
}
func (h *traceHook) AfterCompute(opIdx int, data []uint64, lanes int) {
	h.record("compute", opIdx, isa.RowNone, data, lanes)
	h.perturb(data, lanes)
}
func (h *traceHook) AfterCopy(opIdx int, data []uint64, lanes int) {
	h.record("copy", opIdx, isa.RowNone, data, lanes)
	h.perturb(data, lanes)
}
func (h *traceHook) AfterStore(opIdx int, r isa.Row, data []uint64, lanes int) {
	h.record("store", opIdx, r, data, lanes)
}

// genProgram produces a randomized program mixing valid ops with edge
// cases: AAP into DCC pairs (complement maintenance), C-group ROWINIT
// re-inits (correct and wrong patterns), reads of out-of-range D rows and
// of possibly-uninitialized rows, spill round-trips and missing WRITE tags.
func genProgram(rng *rand.Rand, nOps, dRows int) *isa.Program {
	p := &isa.Program{DRowsUsed: dRows, SpillSlots: 4}
	rows := []isa.Row{0, 1, 2, 3, 4, isa.Row(dRows - 1), isa.T0, isa.T1, isa.T2, isa.T3, isa.DCC0, isa.DCC0N, isa.DCC1, isa.DCC1N}
	// Prologue: initialize most of the row pool (and one spill slot) so the
	// random body mixes deep successful runs with occasional error ops.
	for _, r := range rows {
		if rng.Intn(4) != 0 {
			p.Ops = append(p.Ops, isa.NewWrite(r, rng.Intn(5)))
		}
	}
	p.Ops = append(p.Ops, isa.NewSpillOut(rows[rng.Intn(len(rows))], uint64(rng.Intn(4))))
	pick := func() isa.Row { return rows[rng.Intn(len(rows))] }
	dst := func() isa.Row {
		switch rng.Intn(9) {
		case 0:
			return isa.C0
		case 1:
			return isa.C1
		default:
			return pick()
		}
	}
	src := func() isa.Row {
		if rng.Intn(10) == 0 {
			return isa.Row(dRows + rng.Intn(3)) // beyond D-group: read errors
		}
		return dst()
	}
	for i := 0; i < nOps; i++ {
		switch rng.Intn(12) {
		case 0, 1, 2:
			dsts := []isa.Row{dst()}
			if rng.Intn(3) == 0 {
				dsts = append(dsts, dst())
			}
			p.Ops = append(p.Ops, isa.NewAAP(src(), dsts...))
		case 3, 4:
			p.Ops = append(p.Ops, isa.NewAP(pick(), pick(), pick()))
		case 5, 6:
			p.Ops = append(p.Ops, isa.NewWrite(dst(), rng.Intn(6)))
		case 7, 8:
			p.Ops = append(p.Ops, isa.NewRead(src(), rng.Intn(4)))
		case 9:
			p.Ops = append(p.Ops, isa.NewSpillOut(pick(), uint64(rng.Intn(4))))
		case 10:
			p.Ops = append(p.Ops, isa.NewSpillIn(pick(), uint64(rng.Intn(4))))
		default:
			switch rng.Intn(5) {
			case 0:
				p.Ops = append(p.Ops, isa.NewRowInit(isa.C0, 0)) // redundant re-init: skip path
			case 1:
				p.Ops = append(p.Ops, isa.NewRowInit(isa.C1, ^uint64(0)))
			case 2:
				p.Ops = append(p.Ops, isa.NewRowInit(isa.C1, 7)) // wrong pattern: must error
			default:
				pat := rng.Uint64()
				p.Ops = append(p.Ops, isa.NewRowInit(pick(), pat))
			}
		}
	}
	return p
}

// testIO returns a HostIO whose WRITE payloads are deterministic in (tag)
// and whose READ payloads are captured (copied) per call; tag 5 has no
// data, exercising the missing-tag error on both paths.
func testIO(words int, seed uint64, reads *[]string) *HostIO {
	return &HostIO{
		WriteData: func(tag int) []uint64 {
			if tag == 5 {
				return nil
			}
			row := make([]uint64, words)
			for i := range row {
				row[i] = seed*1099511628211 ^ uint64(tag)<<32 ^ uint64(i)*0x9e3779b97f4a7c15
			}
			return row
		},
		ReadSink: func(tag int, data []uint64) {
			*reads = append(*reads, fmt.Sprintf("tag%d %x", tag, hashRow(data)))
		},
	}
}

// runSeedRef executes prog on the seed reference, returning per-op errors
// ("" for success), ReadSink captures, hook trace and final row contents.
func runSeedRef(prog *isa.Program, dRows, lanes int) ([]string, []string, []string, map[isa.Row][]uint64) {
	s := newSeedSub(dRows, lanes)
	h := &traceHook{}
	s.hook = h
	var reads []string
	io := testIO(s.words, 42, &reads)
	spill := &seedSpill{slots: make(map[uint64][]uint64)}
	// Execution continues past per-op errors: the subarray stays in a
	// well-defined state after a failed op (the seed behaved the same way),
	// so comparing the full per-op error sequence checks both the success
	// and the error paths deeply instead of stopping at the first failure.
	errs := make([]string, 0, len(prog.Ops))
	for i := range prog.Ops {
		if err := s.exec(&prog.Ops[i], io, spill); err != nil {
			errs = append(errs, err.Error())
		} else {
			errs = append(errs, "")
		}
	}
	final := make(map[isa.Row][]uint64)
	for _, r := range interestingRows(prog) {
		final[r] = s.row(r)
	}
	return errs, reads, h.events, final
}

// interestingRows lists every row a program mentions plus the special rows.
func interestingRows(prog *isa.Program) []isa.Row {
	seen := map[isa.Row]bool{}
	var out []isa.Row
	add := func(r isa.Row) {
		if r != isa.RowNone && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for i := range prog.Ops {
		add(prog.Ops[i].Src)
		for _, d := range prog.Ops[i].Dst {
			add(d)
		}
	}
	for _, r := range []isa.Row{isa.C0, isa.C1, isa.DCC0, isa.DCC0N, isa.DCC1, isa.DCC1N} {
		add(r)
	}
	return out
}

type execMode int

const (
	modeExec execMode = iota
	modeDecoded
	modeReused // Configure/Reset-recycled subarray, decoded dispatch
)

func (m execMode) String() string {
	return [...]string{"Exec", "ExecDecoded", "ReusedDecoded"}[m]
}

// runNew executes prog on the arena-backed implementation in the given
// dispatch mode, producing the same observables as runSeedRef.
func runNew(t *testing.T, prog *isa.Program, dRows, lanes int, mode execMode, recycled *Subarray) ([]string, []string, []string, map[isa.Row][]uint64) {
	t.Helper()
	var s *Subarray
	if mode == modeReused && recycled != nil {
		recycled.Configure(dRows, lanes)
		s = recycled
	} else {
		s = NewSubarray(dRows, lanes)
	}
	h := &traceHook{}
	s.SetFaultHook(h)
	var reads []string
	io := testIO(s.words, 42, &reads)
	spill := NewSpillStore()
	var d *Decoded
	if mode != modeExec {
		d = Decode(prog)
	}
	errs := make([]string, 0, len(prog.Ops))
	for i := range prog.Ops {
		var err error
		if mode == modeExec {
			err = s.Exec(&prog.Ops[i], io, spill)
		} else {
			err = s.ExecDecoded(d, i, io, spill)
		}
		if err != nil {
			errs = append(errs, err.Error())
		} else {
			errs = append(errs, "")
		}
	}
	final := make(map[isa.Row][]uint64)
	for _, r := range interestingRows(prog) {
		final[r] = s.Row(r)
	}
	return errs, reads, h.events, final
}

var equivalenceLanes = []int{1, 63, 64, 65, 128}

// TestSeedEquivalence is the golden suite: randomized programs through the
// seed reference and all three new dispatch paths must agree on every
// observable. The reused-subarray mode recycles one Subarray across all
// programs and lane widths, proving Reset/Configure leak no state.
func TestSeedEquivalence(t *testing.T) {
	recycled := NewSubarray(8, 32) // deliberately mismatched initial shape
	for progSeed := int64(0); progSeed < 12; progSeed++ {
		rng := rand.New(rand.NewSource(progSeed))
		dRows := 8 + rng.Intn(8)
		prog := genProgram(rng, 80+rng.Intn(80), dRows)
		for _, lanes := range equivalenceLanes {
			wantErrs, wantReads, wantTrace, wantRows := runSeedRef(prog, dRows, lanes)
			for _, mode := range []execMode{modeExec, modeDecoded, modeReused} {
				name := fmt.Sprintf("seed%d/lanes%d/%v", progSeed, lanes, mode)
				gotErrs, gotReads, gotTrace, gotRows := runNew(t, prog, dRows, lanes, mode, recycled)
				if !eqStrings(wantErrs, gotErrs) {
					t.Fatalf("%s: error sequence diverged\nseed: %q\nnew:  %q", name, wantErrs, gotErrs)
				}
				if !eqStrings(wantReads, gotReads) {
					t.Fatalf("%s: ReadSink payloads diverged\nseed: %q\nnew:  %q", name, wantReads, gotReads)
				}
				if !eqStrings(wantTrace, gotTrace) {
					t.Fatalf("%s: fault-hook sequence diverged (%d vs %d events)\nseed: %q\nnew:  %q",
						name, len(wantTrace), len(gotTrace), wantTrace, gotTrace)
				}
				for r, want := range wantRows {
					got := gotRows[r]
					if !eqWords(want, got) {
						t.Fatalf("%s: row %v diverged\nseed: %x\nnew:  %x", name, r, want, got)
					}
				}
			}
		}
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqWords(a, b []uint64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSeedEquivalenceOverflowRows: the seed stored into a D row past the
// D-group and failed only on its read-back. The simulator fails at the
// store, with the text of that read-back, stores nothing and calls no hook
// for the op, and agrees with the seed on every other op.
func TestSeedEquivalenceOverflowRows(t *testing.T) {
	prog := &isa.Program{DRowsUsed: 4, Ops: []isa.Op{
		isa.NewWrite(isa.Row(0), 1),
		isa.NewRead(isa.Row(0), 0),
		isa.NewWrite(isa.Row(99), 0),        // the seed stores it
		isa.NewAAP(isa.Row(0), isa.Row(50)), // and this
		isa.NewRead(isa.Row(99), 0),         // and fails here
	}}
	stores := map[int]string{2: "sim: row D99 beyond D-group size 4", 3: "sim: row D50 beyond D-group size 4"}
	for _, lanes := range equivalenceLanes {
		wantErrs, wantReads, seedTrace, wantRows := runSeedRef(prog, 4, lanes)
		var wantTrace []string
		for _, e := range seedTrace {
			if !strings.Contains(e, " op2 ") && !strings.Contains(e, " op3 ") {
				wantTrace = append(wantTrace, e)
			}
		}
		for i, msg := range stores {
			if wantErrs[i] != "" {
				t.Fatalf("the seed failed op %d: %s", i, wantErrs[i])
			}
			wantErrs[i] = msg
		}
		wantRows[isa.Row(99)], wantRows[isa.Row(50)] = nil, nil
		for _, mode := range []execMode{modeExec, modeDecoded} {
			gotErrs, gotReads, gotTrace, gotRows := runNew(t, prog, 4, lanes, mode, nil)
			if !slices.Equal(wantErrs, gotErrs) || !slices.Equal(wantReads, gotReads) || !slices.Equal(wantTrace, gotTrace) {
				t.Fatalf("lanes %d %v: diverged\nwant: %q %q %q\ngot:  %q %q %q",
					lanes, mode, wantErrs, wantReads, wantTrace, gotErrs, gotReads, gotTrace)
			}
			for r, want := range wantRows {
				if !eqWords(want, gotRows[r]) {
					t.Fatalf("lanes %d %v: row %v diverged", lanes, mode, r)
				}
			}
		}
	}
}
