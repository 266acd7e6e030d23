// Package sim executes PUD micro-op programs functionally — on a bit-matrix
// model of DRAM subarrays — and, through the dram timing engine and the ssd
// device model, computes how long the execution takes.
//
// The functional model is the ground truth for the whole compiler test
// suite: a kernel is only considered correctly compiled when running its
// micro-ops here reproduces, lane by lane, the result of the corresponding
// plain Go computation.
//
// The row store is a flat preallocated arena indexed by a dense row id
// (special rows first, then D-group rows) plus a presence bitmap, so the
// steady-state execution loop performs no map lookups and no allocations;
// see docs/PERFORMANCE.md for the layout and the pooling rules that let
// verify/reliability sweeps reuse subarrays across trials via Reset.
package sim

import (
	"context"
	"fmt"
	"math/bits"

	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/isa"
	"chopper/internal/ssd"
)

// HostIO supplies WRITE payloads and consumes READ results. Tags identify
// logical rows: the compiler assigns a tag to every input bit-row and every
// output bit-row. For multi-subarray runs (each subarray processing its own
// data tile), the At variants take precedence when non-nil.
//
// The slice passed to ReadSink is a reusable scratch buffer owned by the
// subarray: it is valid only for the duration of the call, and a sink that
// wants to retain the payload must copy it.
type HostIO struct {
	// WriteData returns the row payload for a WRITE with the given tag.
	WriteData func(tag int) []uint64
	// ReadSink receives the row payload of a READ with the given tag.
	ReadSink func(tag int, data []uint64)

	// WriteDataAt, when set, supplies per-subarray payloads.
	WriteDataAt func(bank, sub, tag int) []uint64
	// ReadSinkAt, when set, consumes per-subarray results.
	ReadSinkAt func(bank, sub, tag int, data []uint64)
}

// FaultHook observes — and may perturb — a subarray's row operations. It
// is how the fault package's deterministic DRAM fault models (TRA
// charge-sharing flips, copy corruption, stuck bitlines, retention decay)
// attach to the functional simulator; a nil hook costs nothing. All data
// slices are the subarray's live row storage and may be mutated in place.
type FaultHook interface {
	// BeforeLoad runs when row r is about to be sensed as an operand
	// (retention decay materializes here).
	BeforeLoad(opIdx int, r isa.Row, data []uint64, lanes int)
	// AfterCompute runs on a TRA result before it latches back into the
	// participating rows.
	AfterCompute(opIdx int, data []uint64, lanes int)
	// AfterCopy runs on an AAP payload before it is stored.
	AfterCopy(opIdx int, data []uint64, lanes int)
	// AfterStore runs on a row's stored contents (persistent bitline
	// effects apply here).
	AfterStore(opIdx int, r isa.Row, data []uint64, lanes int)
}

// numSpecialRows is the number of dense arena slots reserved for the
// C-group and B-group rows (isa.C0 .. isa.DCC1N map to slots 0..9).
const numSpecialRows = 10

// Subarray is the functional state of one PUD subarray: a set of rows, each
// a bit-vector of `lanes` bits stored as 64-bit words. Dual-contact cell
// pairs are kept complementary on every write, which is how in-DRAM NOT
// works on Ambit-style substrates.
//
// Storage is a flat arena of (numSpecialRows + physRows) x words uint64s.
// Special rows occupy the first ten slots; D-group row r lives at slot
// numSpecialRows+r. The arena grows geometrically with the highest D row
// touched, so a program using 50 rows never pays for the subarray's full
// 1006-row address space, and a pooled subarray reaches steady state (zero
// allocations per op) after its first trial. Rows outside the dense range
// (exotic negative ids, D rows beyond dRows) fall back to a map, preserving
// the historical write-then-fail-on-read semantics byte for byte.
type Subarray struct {
	lanes int
	words int
	mask  uint64 // valid bits of the last word
	dRows int

	arena    []uint64 // (numSpecialRows+physRows) rows x words
	physRows int      // D rows currently backed by the arena
	present  []uint64 // presence bitmap over numSpecialRows+dRows slots
	extra    map[isa.Row][]uint64
	cDirty   bool // a C-group row was overwritten outside ROWINIT

	scratch []uint64 // AAP copy / AP majority staging buffer
	readBuf []uint64 // READ payload buffer handed to ReadSink

	// Online parity tracking (recovery's cheap storage-fault detector).
	// When armed, every dense-row store records the row's parity bit and
	// every sense re-derives it: a mismatch means the stored charge changed
	// behind the program's back (a stuck bitline forced a lane, a cell
	// decayed) and is counted in parBad. Compute faults corrupt the data
	// BEFORE the store records its parity, so they are invisible here by
	// construction — that asymmetry is the detector's documented trade-off.
	// Overflow (extra-map) rows are outside the dense bitline array model
	// and are not tracked.
	parTrack bool
	parity   []uint64 // per-slot parity bitmap, valid where present
	parBad   int      // mismatches observed since the tracker was armed

	hook  FaultHook
	opIdx int // ops executed so far; the index passed to the hook
}

// NewSubarray creates a subarray with dRows data rows and `lanes` bitlines.
// The C-group rows are initialized to their architectural constants.
func NewSubarray(dRows, lanes int) *Subarray {
	s := &Subarray{}
	s.Configure(dRows, lanes)
	return s
}

// Configure resizes the subarray to dRows data rows and `lanes` bitlines
// and resets it to its initial state, reusing allocated storage where the
// shape permits. It is the trial-reuse entry point behind Reset.
func (s *Subarray) Configure(dRows, lanes int) {
	if dRows <= 0 || lanes <= 0 {
		panic(fmt.Sprintf("sim: bad subarray dims dRows=%d lanes=%d", dRows, lanes))
	}
	words := (lanes + 63) / 64
	mask := ^uint64(0)
	if r := lanes % 64; r != 0 {
		mask = (uint64(1) << uint(r)) - 1
	}
	if words != s.words {
		// Row geometry changed: the arena layout is invalid, restart it at
		// special-rows-only (it regrows on demand).
		s.physRows = 0
		need := numSpecialRows * words
		if cap(s.arena) < need {
			s.arena = make([]uint64, need)
		} else {
			s.arena = s.arena[:need]
		}
		if cap(s.scratch) < words {
			s.scratch = make([]uint64, words)
			s.readBuf = make([]uint64, words)
		} else {
			s.scratch = s.scratch[:words]
			s.readBuf = s.readBuf[:words]
		}
	} else if s.arena == nil {
		s.arena = make([]uint64, numSpecialRows*words)
		s.scratch = make([]uint64, words)
		s.readBuf = make([]uint64, words)
	}
	s.lanes, s.words, s.mask, s.dRows = lanes, words, mask, dRows
	pw := (numSpecialRows + dRows + 63) / 64
	if cap(s.present) < pw {
		s.present = make([]uint64, pw)
	} else {
		s.present = s.present[:pw]
	}
	if cap(s.parity) < pw {
		s.parity = make([]uint64, pw)
	} else {
		s.parity = s.parity[:pw]
	}
	s.Reset()
}

// Reset returns the subarray to its initial state — constant rows hold
// their architectural patterns, every other row is uninitialized, the op
// counter is zero and no fault hook is attached — while keeping the arena
// and scratch buffers allocated for reuse across trials.
func (s *Subarray) Reset() {
	for i := range s.present {
		s.present[i] = 0
	}
	if s.extra != nil {
		clear(s.extra)
	}
	s.cDirty = false
	s.opIdx = 0
	s.hook = nil
	s.parTrack = false
	s.parBad = 0
	s.initRow(isa.C0, 0)
	s.initRow(isa.C1, ^uint64(0))
}

// Lanes returns the SIMD width of the subarray.
func (s *Subarray) Lanes() int { return s.lanes }

// SetFaultHook attaches a fault model to the subarray (nil detaches).
func (s *Subarray) SetFaultHook(h FaultHook) { s.hook = h }

// MemBytes reports the bytes of reusable storage the subarray holds (arena,
// presence bitmap and scratch buffers) — the quantity choppersim reports as
// peak scratch.
func (s *Subarray) MemBytes() int64 {
	n := int64(cap(s.arena)+cap(s.scratch)+cap(s.readBuf)) * 8
	n += int64(cap(s.present)+cap(s.parity)) * 8
	for _, row := range s.extra {
		n += int64(cap(row)) * 8
	}
	return n
}

// slot maps a row to its dense arena slot. ok is false for rows outside
// the dense range (exotic negatives, D rows beyond dRows), which live in
// the overflow map instead.
func (s *Subarray) slot(r isa.Row) (int, bool) {
	if r >= 0 {
		if int(r) >= s.dRows {
			return 0, false
		}
		return numSpecialRows + int(r), true
	}
	if r >= isa.DCC1N { // special rows occupy -1..-10
		return -1 - int(r), true
	}
	return 0, false
}

func (s *Subarray) isPresent(idx int) bool { return s.present[idx>>6]&(1<<uint(idx&63)) != 0 }
func (s *Subarray) markPresent(idx int)    { s.present[idx>>6] |= 1 << uint(idx&63) }

// rowParity is the XOR reduction of every bit of a row (masked words only,
// which setRow/initRow guarantee).
func rowParity(data []uint64) uint64 {
	var x uint64
	for _, w := range data {
		x ^= w
	}
	return uint64(bits.OnesCount64(x) & 1)
}

// setParity records the parity bit of a freshly stored dense row.
func (s *Subarray) setParity(idx int, data []uint64) {
	w, b := idx>>6, uint(idx&63)
	if rowParity(data) == 1 {
		s.parity[w] |= 1 << b
	} else {
		s.parity[w] &^= 1 << b
	}
}

// checkParity compares a sensed row against its recorded parity bit,
// counting a mismatch once (the bit re-arms to the corrupted contents, so
// repeated senses of the same corruption are not double-counted).
func (s *Subarray) checkParity(idx int, data []uint64) {
	w, b := idx>>6, uint(idx&63)
	if s.parity[w]>>b&1 != rowParity(data) {
		s.parBad++
		s.setParity(idx, data)
	}
}

// SetParityTracking arms (true) or disarms (false) online parity tracking.
// Arming seeds the parity bit of every currently stored dense row and
// zeroes the mismatch counter; disarming just stops the bookkeeping. The
// recovery layer arms it for parity-detector runs only, so ordinary runs
// pay nothing.
func (s *Subarray) SetParityTracking(on bool) {
	s.parTrack = on
	s.parBad = 0
	if !on {
		return
	}
	n := s.allocRows()
	for idx := 0; idx < n; idx++ {
		if s.isPresent(idx) {
			s.setParity(idx, s.rowData(idx))
		}
	}
}

// ParityMismatches returns the parity mismatches observed since the
// tracker was armed or last cleared.
func (s *Subarray) ParityMismatches() int { return s.parBad }

// ClearParityMismatches zeroes the mismatch counter (an epoch commit
// accepts whatever state it is committing).
func (s *Subarray) ClearParityMismatches() { s.parBad = 0 }

// ParitySweep re-derives the parity of every stored dense row, counts rows
// whose recorded bit no longer matches (adding them to ParityMismatches)
// and re-arms those bits. It is the end-of-epoch detector pass: it catches
// storage corruption in rows the program has not re-sensed since the
// corruption landed. Returns the mismatches found by this sweep.
func (s *Subarray) ParitySweep() int {
	if !s.parTrack {
		return 0
	}
	found := 0
	n := s.allocRows()
	for idx := 0; idx < n; idx++ {
		if !s.isPresent(idx) {
			continue
		}
		data := s.rowData(idx)
		w, b := idx>>6, uint(idx&63)
		if s.parity[w]>>b&1 != rowParity(data) {
			found++
			s.setParity(idx, data)
		}
	}
	s.parBad += found
	return found
}

// allocRows is the number of rows the arena currently backs.
func (s *Subarray) allocRows() int { return numSpecialRows + s.physRows }

// rowData returns the arena storage of a backed slot.
func (s *Subarray) rowData(idx int) []uint64 {
	return s.arena[idx*s.words : (idx+1)*s.words : (idx+1)*s.words]
}

// ensure grows the arena so slot idx is backed. Growth is geometric, so a
// warm subarray never grows again and the loop stays allocation-free.
func (s *Subarray) ensure(idx int) {
	if idx < s.allocRows() {
		return
	}
	need := idx - numSpecialRows + 1
	phys := s.physRows * 2
	if phys < need {
		phys = need
	}
	if phys < 8 {
		phys = 8
	}
	if phys > s.dRows {
		phys = s.dRows
	}
	newLen := (numSpecialRows + phys) * s.words
	if cap(s.arena) < newLen {
		na := make([]uint64, newLen)
		copy(na, s.arena)
		s.arena = na
	} else {
		s.arena = s.arena[:newLen]
	}
	s.physRows = phys
}

// peek returns the live storage of row r if it is initialized.
func (s *Subarray) peek(r isa.Row) ([]uint64, bool) {
	if idx, ok := s.slot(r); ok {
		if idx < s.allocRows() && s.isPresent(idx) {
			return s.rowData(idx), true
		}
		return nil, false
	}
	if s.extra != nil {
		row, ok := s.extra[r]
		return row, ok
	}
	return nil, false
}

// load senses row r as an operand of the op at idx, giving the fault hook
// its chance to materialize retention decay in the stored charge.
func (s *Subarray) load(idx int, r isa.Row) ([]uint64, error) {
	row, err := s.getRow(r)
	if err != nil {
		return nil, err
	}
	if s.hook != nil {
		s.hook.BeforeLoad(idx, r, row, s.lanes)
	}
	if s.parTrack {
		// The hook has materialized any retention decay: a sensed row whose
		// contents no longer match the parity recorded at store time is a
		// detected storage fault.
		if si, ok := s.slot(r); ok {
			s.checkParity(si, row)
		}
	}
	return row, nil
}

// stored notifies the hook that row r was just (re)written, letting
// persistent bitline defects corrupt the stored contents.
func (s *Subarray) stored(idx int, r isa.Row) {
	if s.hook == nil {
		return
	}
	if row, ok := s.peek(r); ok {
		s.hook.AfterStore(idx, r, row, s.lanes)
	}
}

func (s *Subarray) getRow(r isa.Row) ([]uint64, error) {
	if r.IsDGroup() && int(r) >= s.dRows {
		return nil, fmt.Errorf("sim: row %s beyond D-group size %d", r, s.dRows)
	}
	row, ok := s.peek(r)
	if !ok {
		return nil, fmt.Errorf("sim: read of uninitialized row %s", r)
	}
	return row, nil
}

// setRow stores data into r, maintaining the dual-contact complement
// invariant. The slice is copied; a freshly initialized row behaves as if
// zero-filled first (words beyond len(data) read as zero), exactly like
// the historical map-backed store.
func (s *Subarray) setRow(r isa.Row, data []uint64) {
	if idx, ok := s.slot(r); ok {
		s.ensure(idx)
		dst := s.rowData(idx)
		if !s.isPresent(idx) {
			s.markPresent(idx)
			for i := len(data); i < s.words; i++ {
				dst[i] = 0
			}
		}
		copy(dst, data)
		dst[s.words-1] &= s.mask
		if r.IsCGroup() {
			s.cDirty = true
		}
		if s.parTrack {
			// Parity is recorded from the row buffer BEFORE the AfterStore
			// hook can apply stuck-at defects to the stored charge, which is
			// exactly why those defects are detectable on the next sense.
			s.setParity(idx, dst)
		}
		if comp := r.Complement(); comp != isa.RowNone {
			cidx, _ := s.slot(comp) // complements are special rows, always dense
			cdst := s.rowData(cidx)
			s.markPresent(cidx)
			for i := range cdst {
				cdst[i] = ^dst[i]
			}
			cdst[s.words-1] &= s.mask
			if s.parTrack {
				s.setParity(cidx, cdst)
			}
		}
		return
	}
	// Overflow row: preserve the historical map semantics (stores succeed,
	// reads of out-of-range D rows fail with the bound error).
	if s.extra == nil {
		s.extra = make(map[isa.Row][]uint64)
	}
	dst, ok := s.extra[r]
	if !ok {
		dst = make([]uint64, s.words)
		s.extra[r] = dst
	}
	copy(dst, data)
	dst[s.words-1] &= s.mask
}

// initRow fills r with a replicated constant pattern (the ROWINIT
// semantic) without staging the row through a temporary.
func (s *Subarray) initRow(r isa.Row, pattern uint64) {
	if idx, ok := s.slot(r); ok {
		s.ensure(idx)
		dst := s.rowData(idx)
		s.markPresent(idx)
		for i := range dst {
			dst[i] = pattern
		}
		dst[s.words-1] &= s.mask
		if s.parTrack {
			s.setParity(idx, dst)
		}
		if comp := r.Complement(); comp != isa.RowNone {
			cidx, _ := s.slot(comp)
			cdst := s.rowData(cidx)
			s.markPresent(cidx)
			for i := range cdst {
				cdst[i] = ^dst[i]
			}
			cdst[s.words-1] &= s.mask
			if s.parTrack {
				s.setParity(cidx, cdst)
			}
		}
		return
	}
	if s.extra == nil {
		s.extra = make(map[isa.Row][]uint64)
	}
	dst, ok := s.extra[r]
	if !ok {
		dst = make([]uint64, s.words)
		s.extra[r] = dst
	}
	for i := range dst {
		dst[i] = pattern
	}
	dst[s.words-1] &= s.mask
}

// Row returns a copy of the row's contents (nil if uninitialized); intended
// for tests and debugging dumps.
func (s *Subarray) Row(r isa.Row) []uint64 {
	row, ok := s.peek(r)
	if !ok {
		return nil
	}
	out := make([]uint64, len(row))
	copy(out, row)
	return out
}

// spillSlot is one SSD-backed spill slot; the buffer is retained when the
// slot is logically freed so refilling it allocates nothing.
type spillSlot struct {
	data []uint64
	live bool
}

// SpillStore holds spilled rows, keyed by spill slot. Slot buffers are
// reused across overwrites and across Reset, so a warm store performs no
// allocation in the steady state.
type SpillStore struct {
	slots map[uint64]*spillSlot
}

// NewSpillStore creates an empty store.
func NewSpillStore() *SpillStore { return &SpillStore{slots: make(map[uint64]*spillSlot)} }

// Reset logically empties the store (every slot reads as unwritten) while
// keeping slot buffers allocated for trial reuse.
func (sp *SpillStore) Reset() {
	for _, sl := range sp.slots {
		sl.live = false
	}
}

// MemBytes reports the bytes of slot storage the store retains.
func (sp *SpillStore) MemBytes() int64 {
	var n int64
	for _, sl := range sp.slots {
		n += int64(cap(sl.data)) * 8
	}
	return n
}

// put copies src (words wide) into the slot, reusing its buffer.
func (sp *SpillStore) put(slot uint64, src []uint64, words int) {
	sl := sp.slots[slot]
	if sl == nil {
		sl = &spillSlot{}
		sp.slots[slot] = sl
	}
	if cap(sl.data) < words {
		sl.data = make([]uint64, words)
	} else {
		sl.data = sl.data[:words]
	}
	copy(sl.data, src)
	sl.live = true
}

// get returns the slot's payload if it has been written.
func (sp *SpillStore) get(slot uint64) ([]uint64, bool) {
	sl := sp.slots[slot]
	if sl == nil || !sl.live {
		return nil, false
	}
	return sl.data, true
}

// Exec executes one micro-op against the subarray.
func (s *Subarray) Exec(op *isa.Op, io *HostIO, spill *SpillStore) error {
	idx := s.opIdx
	s.opIdx++
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
				return fmt.Errorf("sim: ROWINIT %s with wrong pattern %#x", op.Dst[0], op.Imm)
			}
			if slot, ok := s.slot(op.Dst[0]); ok && s.isPresent(slot) && !s.cDirty {
				// The row already holds its constant: skip the redundant
				// rewrite (and the full-row copy it used to cost).
				return nil
			}
		}
		s.initRow(op.Dst[0], op.Imm)
		return nil

	case isa.OpAAP:
		src, err := s.load(idx, op.Src)
		if err != nil {
			return err
		}
		// Copy out first: a destination may alias the source's complement.
		tmp := s.scratch
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
		res := s.scratch
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
		out := s.readBuf
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
		spill.put(op.Imm, src, s.words)
		return nil

	case isa.OpSpillIn:
		if spill == nil {
			return fmt.Errorf("sim: spill with no spill store")
		}
		data, ok := spill.get(op.Imm)
		if !ok {
			return fmt.Errorf("sim: SPILL_IN of unwritten slot %d", op.Imm)
		}
		s.setRow(op.Dst[0], data)
		s.stored(idx, op.Dst[0])
		return nil
	}
	return fmt.Errorf("sim: unknown op kind %d", int(op.Kind))
}

// Machine simulates a whole device: many subarrays (created lazily), a
// shared spill store, the timing engine, and optionally an SSD device
// charged for spill traffic. Subarrays and spill stores are held in dense
// slices indexed by (bank, subarray) within the geometry; placements
// outside it fall back to a map, preserving the historical tolerance.
type Machine struct {
	geom  dram.Geometry
	lanes int

	engine *dram.Engine
	ssd    *ssd.Device

	subs   []*Subarray
	spills []*SpillStore
	// xsubs/xspills hold beyond-geometry placements (rare; map fallback).
	xsubs   map[[2]int]*Subarray
	xspills map[[2]int]*SpillStore

	fault func(bank, sub int) FaultHook
}

// MachineConfig configures a Machine.
type MachineConfig struct {
	Geom  dram.Geometry
	Arch  isa.Arch
	SALP  bool
	Lanes int // functional lanes per subarray; 0 means Geom.Bitlines()

	// SSD, when non-nil, charges spill traffic to the device.
	SSD *ssd.Device

	// Fault, when non-nil, supplies a fault model per subarray (each
	// subarray must get its own hook: hooks are stateful and not safe
	// for sharing). A nil return leaves that subarray fault-free.
	Fault func(bank, sub int) FaultHook
}

// NewMachine builds a machine.
func NewMachine(cfg MachineConfig) *Machine {
	m := &Machine{}
	m.Reconfigure(cfg)
	return m
}

// Reconfigure resets the machine for a new run under cfg, reusing every
// allocated subarray arena, spill buffer and engine table the new shape
// permits. It is the trial-reuse entry point the verify/reliability sweeps
// pool machines through.
func (m *Machine) Reconfigure(cfg MachineConfig) {
	lanes := cfg.Lanes
	if lanes == 0 {
		lanes = cfg.Geom.Bitlines()
	}
	timing := dram.TimingFor(cfg.Arch, cfg.Geom)
	units := cfg.Geom.Banks * cfg.Geom.SubarraysPB
	if m.engine == nil {
		m.engine = dram.NewEngine(cfg.Geom, timing, cfg.SALP)
	} else {
		m.engine.Reconfigure(cfg.Geom, timing, cfg.SALP)
	}
	if cfg.Geom != m.geom || len(m.subs) != units {
		m.subs = make([]*Subarray, units)
		m.spills = make([]*SpillStore, units)
	}
	m.geom = cfg.Geom
	m.lanes = lanes
	m.fault = cfg.Fault
	m.xsubs, m.xspills = nil, nil
	dRows := cfg.Geom.DRows()
	for i, s := range m.subs {
		if s == nil {
			continue
		}
		s.Configure(dRows, lanes)
		if cfg.Fault != nil {
			bank := i / cfg.Geom.SubarraysPB
			sub := i % cfg.Geom.SubarraysPB
			s.SetFaultHook(cfg.Fault(bank, sub))
		}
		m.spills[i].Reset()
	}
	m.ssd = cfg.SSD
	if cfg.SSD != nil {
		rowBytes := cfg.Geom.RowBytes
		dev := cfg.SSD
		m.engine.SSDDelay = func(out bool, slot uint64, startNs float64) float64 {
			if out {
				return dev.Write(slot, rowBytes, startNs)
			}
			return dev.Read(slot, startNs)
		}
	} else {
		m.engine.SSDDelay = nil
	}
}

// denseIdx maps (bank, sub) to the dense slice index, reporting whether the
// placement is inside the geometry.
func (m *Machine) denseIdx(bank, sub int) (int, bool) {
	if bank < 0 || sub < 0 || bank >= m.geom.Banks || sub >= m.geom.SubarraysPB {
		return 0, false
	}
	return bank*m.geom.SubarraysPB + sub, true
}

func (m *Machine) newSub(bank, sub int) *Subarray {
	s := NewSubarray(m.geom.DRows(), m.lanes)
	if m.fault != nil {
		s.SetFaultHook(m.fault(bank, sub))
	}
	return s
}

// Sub returns (creating if needed) the functional subarray at (bank, sub).
func (m *Machine) Sub(bank, sub int) *Subarray {
	if i, ok := m.denseIdx(bank, sub); ok {
		s := m.subs[i]
		if s == nil {
			s = m.newSub(bank, sub)
			m.subs[i] = s
			m.spills[i] = NewSpillStore()
		}
		return s
	}
	key := [2]int{bank, sub}
	s, ok := m.xsubs[key]
	if !ok {
		if m.xsubs == nil {
			m.xsubs = make(map[[2]int]*Subarray)
			m.xspills = make(map[[2]int]*SpillStore)
		}
		s = m.newSub(bank, sub)
		m.xsubs[key] = s
		m.xspills[key] = NewSpillStore()
	}
	return s
}

// spillAt returns the spill store of (bank, sub), creating the subarray
// pair if needed.
func (m *Machine) spillAt(bank, sub int) *SpillStore {
	if i, ok := m.denseIdx(bank, sub); ok {
		if m.spills[i] == nil {
			m.Sub(bank, sub)
		}
		return m.spills[i]
	}
	m.Sub(bank, sub)
	return m.xspills[[2]int{bank, sub}]
}

// MemBytes reports the reusable storage the machine retains across trials
// (subarray arenas, spill buffers, engine tables): the peak scratch figure
// surfaced by choppersim and RunResult.
func (m *Machine) MemBytes() int64 {
	n := m.engine.MemBytes()
	for _, s := range m.subs {
		if s != nil {
			n += s.MemBytes()
		}
	}
	for _, sp := range m.spills {
		if sp != nil {
			n += sp.MemBytes()
		}
	}
	for _, s := range m.xsubs {
		n += s.MemBytes()
	}
	for _, sp := range m.xspills {
		n += sp.MemBytes()
	}
	return n
}

// Run executes a placed op stream functionally and through the timing
// engine, returning the makespan in nanoseconds. The first functional error
// aborts the run.
func (m *Machine) Run(stream []dram.Placed, io *HostIO) (float64, error) {
	return m.RunCtx(nil, stream, io, guard.Budget{})
}

// RunCtx is Run under the guard layer: b.MaxSimSteps caps how many
// micro-ops execute functionally and b.MaxDRAMCommands caps how many
// reach the timing engine (both checked per op, so the same stream
// exhausts the same dimension at the same index on every run), and a
// non-nil ctx is observed every 256 ops for cooperative cancellation.
// Guard stops, like functional errors, abort before the offending op
// executes.
func (m *Machine) RunCtx(ctx context.Context, stream []dram.Placed, io *HostIO, b guard.Budget) (float64, error) {
	// Per-subarray HostIO adapters for the At variants are built at most
	// once per (run, subarray) — never per op.
	useAt := io != nil && (io.WriteDataAt != nil || io.ReadSinkAt != nil)
	var adapters []*HostIO
	var xadapters map[[2]int]*HostIO
	if useAt {
		adapters = make([]*HostIO, len(m.subs))
	}
	for i := range stream {
		if i&255 == 0 {
			if err := guard.Ctx(ctx); err != nil {
				return m.engine.Makespan(), err
			}
		}
		if err := guard.Check(guard.DimSimSteps, b.MaxSimSteps, i+1); err != nil {
			return m.engine.Makespan(), err
		}
		if err := guard.Check(guard.DimDRAMCommands, b.MaxDRAMCommands, i+1); err != nil {
			return m.engine.Makespan(), err
		}
		p := &stream[i]
		sub := m.Sub(p.Bank, p.Subarray)
		effIO := io
		if useAt {
			var a *HostIO
			if di, ok := m.denseIdx(p.Bank, p.Subarray); ok {
				a = adapters[di]
				if a == nil {
					a = adapterIO(io, p.Bank, p.Subarray)
					adapters[di] = a
				}
			} else {
				a = xadapters[[2]int{p.Bank, p.Subarray}]
				if a == nil {
					if xadapters == nil {
						xadapters = make(map[[2]int]*HostIO)
					}
					a = adapterIO(io, p.Bank, p.Subarray)
					xadapters[[2]int{p.Bank, p.Subarray}] = a
				}
			}
			effIO = a
		}
		if err := sub.Exec(&p.Op, effIO, m.spillAt(p.Bank, p.Subarray)); err != nil {
			return m.engine.Makespan(), fmt.Errorf("op %d at bank %d sub %d: %w", i, p.Bank, p.Subarray, err)
		}
		m.engine.Issue(*p)
	}
	return m.engine.Makespan(), nil
}

// adapterIO binds the At variants of io to one subarray, mirroring the
// plain WriteData/ReadSink fields when the At variant is absent.
func adapterIO(io *HostIO, bank, sub int) *HostIO {
	local := &HostIO{WriteData: io.WriteData, ReadSink: io.ReadSink}
	if io.WriteDataAt != nil {
		local.WriteData = func(tag int) []uint64 { return io.WriteDataAt(bank, sub, tag) }
	}
	if io.ReadSinkAt != nil {
		local.ReadSink = func(tag int, data []uint64) { io.ReadSinkAt(bank, sub, tag, data) }
	}
	return local
}

// Stats exposes the timing engine counters.
func (m *Machine) Stats() dram.EngineStats { return m.engine.Stats() }

// RunProgram is a convenience for single-subarray programs: it places every
// op at bank 0, subarray 0 and runs it on a fresh machine.
func RunProgram(prog *isa.Program, arch isa.Arch, geom dram.Geometry, lanes int, io *HostIO) (float64, error) {
	m := NewMachine(MachineConfig{Geom: geom, Arch: arch, Lanes: lanes})
	return m.RunDecodedCtx(nil, Decode(prog), 0, 0, io, guard.Budget{})
}
