// Package sim executes PUD micro-op programs functionally — on a bit-matrix
// model of DRAM subarrays — and, through the dram timing engine, computes
// how long the execution takes.
//
// The functional model is the ground truth for the whole compiler test
// suite: a kernel is only considered correctly compiled when running its
// micro-ops here reproduces, lane by lane, the result of the corresponding
// plain Go computation.
//
// There is one way to execute a program. What the six micro-ops do is
// defined once (Subarray.exec, decode.go), and every run loop drives it
// through one guard → execute → issue step (stepper): a placed stream
// (Machine.RunCtx), a decoded program at one placement (RunDecodedCtx),
// the same under epoch recovery (RunRecoveredCtx, recover.go — the only
// caller that rewinds) and a bare subarray with no timing at all
// (Subarray.RunDecodedCtx). The entry points differ in how an op reaches
// that step, not in what it does there.
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
		s.arena = grow(s.arena, numSpecialRows*words)
		s.scratch = grow(s.scratch, words)
		s.readBuf = grow(s.readBuf, words)
	}
	s.lanes, s.words, s.mask, s.dRows = lanes, words, mask, dRows
	pw := (numSpecialRows + dRows + 63) / 64
	s.present = grow(s.present, pw)
	s.parity = grow(s.parity, pw)
	s.Reset()
}

// grow returns buf resized to n words, reallocating only when its capacity
// falls short; the contents are unspecified (every user overwrites them or
// guards them behind the presence bitmap).
func grow(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// Reset returns the subarray to its initial state — constant rows hold
// their architectural patterns, every other row is uninitialized, the op
// counter is zero and no fault hook is attached — while keeping the arena
// and scratch buffers allocated for reuse across trials.
func (s *Subarray) Reset() {
	clear(s.present)
	clear(s.extra)
	s.cDirty = false
	s.opIdx = 0
	s.hook = nil
	s.parTrack = false
	s.parBad = 0
	s.initRow(isa.C0, 0)
	s.initRow(isa.C1, ^uint64(0))
}

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
	before := s.parBad
	n := s.allocRows()
	for idx := 0; idx < n; idx++ {
		if s.isPresent(idx) {
			s.checkParity(idx, s.rowData(idx))
		}
	}
	return s.parBad - before
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
	phys := min(max(s.physRows*2, need, 8), s.dRows)
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
	row, ok := s.extra[r]
	return row, ok
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

// dest returns the storage a write to row r lands in, marking the row
// initialized: its arena slot (idx >= 0), or its overflow-map row (idx < 0)
// when r lies outside the dense range — stores there succeed, preserving
// the historical map semantics (reads of out-of-range D rows fail with the
// bound error). held reports whether the row held data before.
func (s *Subarray) dest(r isa.Row) (dst []uint64, idx int, held bool) {
	if idx, ok := s.slot(r); ok {
		s.ensure(idx)
		held = s.isPresent(idx)
		s.markPresent(idx)
		return s.rowData(idx), idx, held
	}
	if s.extra == nil {
		s.extra = make(map[isa.Row][]uint64)
	}
	dst, held = s.extra[r]
	if !held {
		dst = make([]uint64, s.words)
		s.extra[r] = dst
	}
	return dst, -1, held
}

// latch finishes a write of dst, the storage dest returned for r: it masks
// the tail word and, for a dense row, records the parity bit and keeps the
// dual-contact partner complementary — which is how in-DRAM NOT works.
func (s *Subarray) latch(r isa.Row, dst []uint64, idx int) {
	dst[s.words-1] &= s.mask
	if idx < 0 {
		return
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
}

// setRow stores data into r. The slice is copied; a freshly initialized row
// behaves as if zero-filled first (words beyond len(data) read as zero),
// exactly like the historical map-backed store.
func (s *Subarray) setRow(r isa.Row, data []uint64) {
	dst, idx, held := s.dest(r)
	if !held {
		for i := len(data); i < s.words; i++ {
			dst[i] = 0
		}
	}
	copy(dst, data)
	if r.IsCGroup() {
		s.cDirty = true
	}
	s.latch(r, dst, idx)
}

// initRow fills r with a replicated constant pattern (the ROWINIT
// semantic) without staging the row through a temporary.
func (s *Subarray) initRow(r isa.Row, pattern uint64) {
	dst, idx, _ := s.dest(r)
	for i := range dst {
		dst[i] = pattern
	}
	s.latch(r, dst, idx)
}

// Row returns a copy of the row's contents (nil if uninitialized); intended
// for tests and debugging dumps.
func (s *Subarray) Row(r isa.Row) []uint64 {
	row, ok := s.peek(r)
	if !ok {
		return nil
	}
	return append([]uint64(nil), row...)
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
	sl.data = grow(sl.data, words)
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

// unit is everything a machine keeps for one (bank, subarray) placement:
// the functional subarray, its spill store, and the adapter that binds the
// At variants of a run's HostIO to this placement.
type unit struct {
	bank, subarray int
	sub            *Subarray
	spill          *SpillStore

	at    *HostIO // adapterIO of the run numbered atRun; built on first use
	atRun int
}

// Machine simulates a whole device: many subarray units (created lazily)
// and the timing engine. Units are held in a dense slice indexed by (bank, subarray)
// within the geometry; placements outside it fall back to a map,
// preserving the historical tolerance.
type Machine struct {
	geom  dram.Geometry
	lanes int

	engine *dram.Engine

	units  []*unit
	xunits map[[2]int]*unit // beyond-geometry placements (rare)
	runs   int              // runs begun; names the run an adapter belongs to

	fault func(bank, sub int) FaultHook
}

// MachineConfig configures a Machine.
type MachineConfig struct {
	Geom  dram.Geometry
	Arch  isa.Arch
	Lanes int // functional lanes per subarray; 0 means Geom.Bitlines()

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
	// The machine's engine is the base device: no SALP and spill ops at
	// their DRAM/bus cost alone. Tiled runs (which honour SALP) and the SSD
	// study replay on engines of their own (tiled.go, internal/bench).
	if m.engine == nil {
		m.engine = dram.NewEngine(cfg.Geom, timing, false)
	} else {
		m.engine.Reconfigure(cfg.Geom, timing, false)
	}
	if n := cfg.Geom.Banks * cfg.Geom.SubarraysPB; cfg.Geom != m.geom || len(m.units) != n {
		m.units = make([]*unit, n)
	}
	m.geom = cfg.Geom
	m.lanes = lanes
	m.fault = cfg.Fault
	m.xunits = nil
	for _, u := range m.units {
		if u == nil {
			continue
		}
		u.sub.Configure(cfg.Geom.DRows(), lanes)
		if cfg.Fault != nil {
			u.sub.SetFaultHook(cfg.Fault(u.bank, u.subarray))
		}
		u.spill.Reset()
	}
}

// unit returns (creating if needed) the unit at (bank, sub).
func (m *Machine) unit(bank, sub int) *unit {
	dense := bank >= 0 && sub >= 0 && bank < m.geom.Banks && sub < m.geom.SubarraysPB
	i := bank*m.geom.SubarraysPB + sub // the dense index; meaningful only when dense
	var u *unit
	if dense {
		u = m.units[i]
	} else {
		u = m.xunits[[2]int{bank, sub}]
	}
	if u != nil {
		return u
	}
	u = &unit{bank: bank, subarray: sub, sub: NewSubarray(m.geom.DRows(), m.lanes), spill: NewSpillStore()}
	if m.fault != nil {
		u.sub.SetFaultHook(m.fault(bank, sub))
	}
	if dense {
		m.units[i] = u
	} else {
		if m.xunits == nil {
			m.xunits = make(map[[2]int]*unit)
		}
		m.xunits[[2]int{bank, sub}] = u
	}
	return u
}

// Sub returns (creating if needed) the functional subarray at (bank, sub).
func (m *Machine) Sub(bank, sub int) *Subarray { return m.unit(bank, sub).sub }

// MemBytes reports the reusable storage the machine retains across trials
// (subarray arenas, spill buffers, engine tables): the peak scratch figure
// surfaced by choppersim and RunResult.
func (m *Machine) MemBytes() int64 {
	n := m.engine.MemBytes()
	for _, u := range m.units {
		if u != nil {
			n += u.sub.MemBytes() + u.spill.MemBytes()
		}
	}
	for _, u := range m.xunits {
		n += u.sub.MemBytes() + u.spill.MemBytes()
	}
	return n
}

// begin starts a run: the stepper every op of it goes through.
func (m *Machine) begin(ctx context.Context, b guard.Budget) stepper {
	m.runs++
	return stepper{ctx: ctx, b: b, eng: m.engine}
}

// hostIO returns the HostIO unit u executes against in the current run: io
// itself, or — when io carries At variants — an adapter binding them to
// u's placement (the plain WriteData/ReadSink stand in for an absent
// variant), built at most once per (run, unit), never per op.
func (m *Machine) hostIO(u *unit, io *HostIO) *HostIO {
	if io == nil || (io.WriteDataAt == nil && io.ReadSinkAt == nil) {
		return io
	}
	if u.atRun != m.runs {
		bank, sub := u.bank, u.subarray
		u.at, u.atRun = &HostIO{WriteData: io.WriteData, ReadSink: io.ReadSink}, m.runs
		if io.WriteDataAt != nil {
			u.at.WriteData = func(tag int) []uint64 { return io.WriteDataAt(bank, sub, tag) }
		}
		if io.ReadSinkAt != nil {
			u.at.ReadSink = func(tag int, data []uint64) { io.ReadSinkAt(bank, sub, tag, data) }
		}
	}
	return u.at
}

// Stats exposes the timing engine counters.
func (m *Machine) Stats() dram.EngineStats { return m.engine.Stats() }

// RunProgram is a convenience for single-subarray programs: it places every
// op at bank 0, subarray 0 and runs it on a fresh machine.
func RunProgram(prog *isa.Program, arch isa.Arch, geom dram.Geometry, lanes int, io *HostIO) (float64, error) {
	m := NewMachine(MachineConfig{Geom: geom, Arch: arch, Lanes: lanes})
	return m.RunDecodedCtx(nil, Decode(prog), 0, 0, io, guard.Budget{})
}
