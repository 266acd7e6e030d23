// Package sim executes PUD micro-op programs functionally — on a bit-matrix
// model of DRAM subarrays — and, through the dram timing engine, computes
// how long the execution takes.
//
// The functional model is the ground truth for the whole compiler test
// suite: a kernel is only considered correctly compiled when running its
// micro-ops here reproduces, lane by lane, the result of the corresponding
// plain Go computation.
//
// There are two executors, and one rule picks between them. The
// interpreter defines what the six micro-ops do to rows (Subarray.exec,
// decode.go), and both its run loops drive that body through one guard →
// execute → issue loop (stepper) on a Machine — one subarray at the (bank,
// sub) a run names: Machine.RunRecoveredCtx (recover.go; the only loop that
// rewinds and the only timed one) and Machine.RunFunctionalCtx, the same
// loop for a caller that times the program elsewhere (the kernel's memo:
// its issue order is the program's). It is the only executor fault hooks,
// parity tracking and budgets observe, and the reference the other is
// tested against. The translation (translate.go) runs a clean pass: it
// resolves every copy of the program to a rename once per program and
// runs only the ANDs, majorities and host transfers left, in a register
// file (Machine.RunTranslatedCtx). Machine.Translatable is the rule: the
// translation runs only where nothing watches the rows — no fault hook, no
// parity tracking, every row the program names on the subarray, no budget
// stop inside the stream — and there it is the interpreted run, call for
// call and error for error.
//
// The row store is a flat preallocated arena indexed by a dense row id
// (special rows first, then D-group rows) plus a presence bitmap. The
// interpreter runs the program's own isa.Op records; Decode adds one proof
// over the whole stream (every row in range, every read of a row an earlier
// op defines, no store into a constant row), so a whole-stream run of a
// proven stream sizes the arena once, runs each AAP and AP as one body over
// its slots and checks its guards per chunk of ops; see
// docs/PERFORMANCE.md for the layout and the pooling rules that let
// verify/reliability sweeps reuse machines across trials via Reconfigure.
package sim

import (
	"fmt"
	"math/bits"

	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// HostIO supplies WRITE payloads and consumes READ results. Tags identify
// logical rows: the compiler assigns a tag to every input bit-row and every
// output bit-row.
//
// The slice passed to ReadSink is a reusable scratch buffer owned by the
// subarray: it is valid only for the duration of the call, and a sink that
// wants to retain the payload must copy it.
type HostIO struct {
	// WriteData returns the row payload for a WRITE with the given tag.
	WriteData func(tag int) []uint64
	// ReadSink receives the row payload of a READ with the given tag.
	ReadSink func(tag int, data []uint64)
}

// FaultHook observes — and may perturb — a subarray's row operations. It
// is how the fault package's deterministic DRAM fault models (TRA
// charge-sharing flips, copy corruption, stuck bitlines, retention decay)
// attach to the functional simulator; a nil hook costs nothing. All data
// slices are the subarray's live row storage and may be mutated in place.
// Hooks are stateful: give each subarray its own.
//
// A hook is called only for the events it subscribes to (Events, read
// when the hook is attached): a subscription that leaves out an event
// whose call would not change the data or the hook's state skips work
// without changing any result. A recovered run (RunRecoveredCtx) raises
// every event to an EpochHook, whose checkpoints and scrubs read the
// state all of them build.
//
// One store raises no event: the complement a store into a dual-contact
// row writes into its partner (Subarray.paired). A hook first sees the
// partner when it is next sensed.
//
// A run with a hook is interpreted, unless the hook is a TRAFlipper that
// subscribes to isa.EvCompute alone: such a run may take the translation
// (Machine.Translatable), which has no rows to pass to a callback.
type FaultHook interface {
	// Events is the set of events the hook observes.
	Events() isa.Events
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

// TRAFlipper is a FaultHook whose AfterCompute flips at most one lane of a
// TRA result and decides which, if any, from the op index and the draws
// before it alone, never from the data. Subscribed to isa.EvCompute alone,
// it lets a run take the translation: the run draws every AP's flip before
// it starts, in op order, and applies each to the value the AP computes
// (fault.Injector with TRA flips alone is one).
type TRAFlipper interface {
	FaultHook
	// NextTRAFlip makes AfterCompute's draws for the APs at ops[k:] of a run
	// over lanes lanes (ops ascending), in order, changing the hook's state
	// as those calls would, up to the first that flips a lane: it returns
	// that AP's index in ops and the lane, or len(ops) and -1.
	NextTRAFlip(ops []int32, k, lanes int) (int, int)
}

// numSpecialRows is the number of dense arena slots reserved for the
// C-group and B-group rows (isa.DCC1N .. isa.C0 map to slots 0..9).
const numSpecialRows = 10

// Subarray is the functional state of one PUD subarray: a set of rows, each
// a bit-vector of `lanes` bits stored as 64-bit words. Dual-contact cell
// pairs are kept complementary on every write, which is how in-DRAM NOT
// works on Ambit-style substrates.
//
// Its rows are the device's: the ten special rows (C-group and B-group) and
// dRows D-group rows. An op that names any other row — a D row at or past
// dRows, a negative id that is no special row — fails at that op, before it
// senses or stores anything.
//
// Storage is a flat arena of (numSpecialRows + physRows) x words uint64s.
// Special rows occupy the first ten slots; every row r lives at slot
// numSpecialRows+r (slotOf). The arena grows geometrically with the
// highest D row touched, so a program using 50 rows never pays for the
// subarray's full 1006-row address space, and a pooled subarray reaches
// steady state (zero allocations per op) after its first trial.
type Subarray struct {
	lanes int
	words int
	mask  uint64 // valid bits of the last word
	dRows int

	arena    []uint64 // (numSpecialRows+physRows) rows x words
	physRows int      // D rows currently backed by the arena
	present  []uint64 // presence bitmap over numSpecialRows+dRows slots

	scratch []uint64 // AAP copy / AP majority staging buffer
	readBuf []uint64 // READ payload buffer handed to ReadSink

	// Online parity tracking (recovery's cheap storage-fault detector).
	// When armed, every dense-row store records the row's parity bit and
	// every sense re-derives it: a mismatch means the stored charge changed
	// behind the program's back (a stuck bitline forced a lane, a cell
	// decayed) and is counted in parBad. Compute faults corrupt the data
	// BEFORE the store records its parity, so they are invisible here by
	// construction — that asymmetry is the detector's documented trade-off.
	parTrack bool
	parity   []uint64 // per-slot parity bitmap, valid where present
	parBad   int      // mismatches observed since the tracker was armed

	hook    FaultHook
	flipper TRAFlipper // hook, if it is one
	events  isa.Events // what hook subscribes to; none without a hook
	opIdx   int        // ops executed so far; the index passed to the hook
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
		s.scratch = grow(s.scratch, words)
		s.readBuf = grow(s.readBuf, words)
	}
	// The presence bitmap covers dRows: back no row past them.
	s.physRows = min(s.physRows, dRows)
	s.arena = grow(s.arena, (numSpecialRows+s.physRows)*words)
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
	s.opIdx = 0
	s.SetFaultHook(nil)
	s.parTrack = false
	s.parBad = 0
	s.fillRow(slotOf(isa.C0), 0)
	s.fillRow(slotOf(isa.C1), ^uint64(0))
}

// SetFaultHook attaches a fault model to the subarray (nil detaches) and
// caches the events it subscribes to.
func (s *Subarray) SetFaultHook(h FaultHook) {
	s.hook, s.events = h, 0
	s.flipper, _ = h.(TRAFlipper)
	if h != nil {
		s.events = h.Events()
	}
}

// MemBytes reports the bytes of reusable storage the subarray holds (arena,
// presence bitmap and scratch buffers) — the quantity choppersim reports as
// peak scratch.
func (s *Subarray) MemBytes() int64 {
	return int64(cap(s.arena)+cap(s.scratch)+cap(s.readBuf)+cap(s.present)+cap(s.parity)) * 8
}

// outside is the error of the first row in rows the subarray does not
// have: a D row at or past dRows, or a negative id that is no special row.
// Every other row has its arena slot.
func (s *Subarray) outside(rows []isa.Row) error {
	for _, r := range rows {
		switch {
		case r.IsDGroup() && int(r) >= s.dRows:
			return fmt.Errorf("sim: row %s beyond D-group size %d", r, s.dRows)
		case slotOf(r) < 0:
			return fmt.Errorf("sim: no row %s in the subarray", r)
		}
	}
	return nil
}

func (s *Subarray) isPresent(idx int) bool { return s.present[idx>>6]&(1<<uint(idx&63)) != 0 }
func (s *Subarray) markPresent(idx int)    { s.present[idx>>6] |= 1 << uint(idx&63) }

// rowParity is the XOR reduction of every bit of a row (masked words only,
// which setRow/fillRow guarantee).
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
	s.parity[w] = s.parity[w]&^(1<<b) | rowParity(data)<<b
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
	for idx := range s.allocRows() {
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
	for idx := range s.allocRows() {
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
	lo := idx * s.words
	return s.arena[lo : lo+s.words : lo+s.words]
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

// defined reports whether the row at slot idx holds data.
func (s *Subarray) defined(idx int) bool { return idx < s.allocRows() && s.isPresent(idx) }

// plan reports whether a whole-stream run of d may trust its proof (exec):
// d is proven and names only rows the subarray holds, backed here, once,
// up to d's highest.
func (s *Subarray) plan(d *Decoded) bool {
	if !d.proven || d.maxD >= s.dRows {
		return false
	}
	s.ensure(numSpecialRows + d.maxD)
	return true
}

// sensed gives the fault hook its chance to materialize retention decay in
// data, the sensed storage of row r at slot i, then checks the row's parity.
func (s *Subarray) sensed(idx int, r isa.Row, i int, data []uint64) []uint64 {
	if s.events&isa.EvLoad != 0 {
		s.hook.BeforeLoad(idx, r, data, s.lanes)
	}
	if s.parTrack {
		// The hook has materialized any retention decay: a sensed row whose
		// contents no longer match the parity recorded at store time is a
		// detected storage fault.
		s.checkParity(i, data)
	}
	return data
}

// setRow stores data into slot i, a row of the subarray, and returns the
// row's storage: its arena slot, backed and marked initialized. The slice
// is copied; a freshly initialized row behaves as if zero-filled first
// (words beyond len(data) read as zero). The store is put and paired.
func (s *Subarray) setRow(i int, data []uint64) []uint64 {
	s.ensure(i)
	if !s.isPresent(i) {
		clear(s.rowData(i)[min(len(data), s.words):])
	}
	dst := s.put(i, data)
	s.paired(i, dst)
	return dst
}

// put and paired are every store into the arena. put copies data into the
// backed slot i, masked, marks the row present and returns its storage;
// paired records the row's parity bit and keeps its dual-contact partner
// complementary — which is how in-DRAM NOT works — and may be skipped when
// there is neither to do.
func (s *Subarray) put(i int, data []uint64) []uint64 {
	dst := s.rowData(i)
	copy(dst, data)
	dst[len(dst)-1] &= s.mask
	s.markPresent(i)
	return dst
}

func (s *Subarray) paired(i int, dst []uint64) {
	if s.parTrack {
		// Parity is recorded from the row buffer BEFORE the AfterStore
		// hook can apply stuck-at defects to the stored charge, which is
		// exactly why those defects are detectable on the next sense.
		s.setParity(i, dst)
	}
	if cidx := partner(i); cidx >= 0 { // partners are special rows, always backed
		cdst := s.rowData(cidx)[:len(dst)]
		for j := range cdst {
			cdst[j] = ^dst[j]
		}
		cdst[len(cdst)-1] &= s.mask
		s.markPresent(cidx)
		if s.parTrack {
			s.setParity(cidx, cdst)
		}
	}
}

// fillRow stores pattern, replicated across the row, into slot i.
func (s *Subarray) fillRow(i int, pattern uint64) {
	for j := range s.scratch {
		s.scratch[j] = pattern
	}
	s.setRow(i, s.scratch)
}

// Row returns a copy of the row's contents (nil if uninitialized or not a
// row of the subarray); intended for tests and debugging dumps.
func (s *Subarray) Row(r isa.Row) []uint64 {
	if s.outside([]isa.Row{r}) != nil || !s.defined(slotOf(r)) {
		return nil
	}
	return append([]uint64(nil), s.rowData(slotOf(r))...)
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

// NewSpillStore creates an empty store (the zero value is one too).
func NewSpillStore() *SpillStore { return new(SpillStore) }

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
		if sp.slots == nil {
			sp.slots = make(map[uint64]*spillSlot)
		}
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

// Machine is one simulated subarray with everything a run of it keeps: the
// functional state, its spill store, the timing engine and the recovery
// scratch. A run names the (bank, sub) the subarray sits at, one of the
// geometry's, which is only what the engine charges and what errors report;
// Reconfigure starts the next run from fresh state. Multi-subarray execution is the compiler's
// (VIRCOE's issue order) and the timing model's business, not the
// functional simulator's: a tiled run executes its tiles on a machine each.
type Machine struct {
	geom   dram.Geometry
	sub    Subarray
	spill  SpillStore
	engine dram.Engine
	rec    recoverScratch
	regs   []uint64 // a translated run's register file (RunTranslatedCtx)
	flips  []tflip  // and the TRA flips it applies
}

// MachineConfig configures a Machine.
type MachineConfig struct {
	Geom  dram.Geometry
	Arch  isa.Arch
	Lanes int // functional lanes; 0 means Geom.Bitlines()

	// Fault, when non-nil, is the subarray's fault model (see FaultHook).
	Fault FaultHook
}

// NewMachine builds a machine.
func NewMachine(cfg MachineConfig) *Machine {
	m := &Machine{}
	m.Reconfigure(cfg)
	return m
}

// Reconfigure resets the machine for a new run under cfg, reusing the
// subarray arena, spill buffers, engine tables and recovery scratch the new
// shape permits. It is the trial-reuse entry point the verify/reliability
// sweeps pool machines through.
func (m *Machine) Reconfigure(cfg MachineConfig) {
	lanes := cfg.Lanes
	if lanes == 0 {
		lanes = cfg.Geom.Bitlines()
	}
	// The machine's engine is the base device: no SALP and spill ops at
	// their DRAM/bus cost alone. Tiled runs (which honour SALP) and the SSD
	// study replay on engines of their own (tiled.go, internal/bench).
	m.geom = cfg.Geom
	m.engine.Reconfigure(cfg.Geom, dram.TimingFor(cfg.Arch, cfg.Geom), false)
	m.sub.Configure(cfg.Geom.DRows(), lanes)
	m.sub.SetFaultHook(cfg.Fault)
	m.spill.Reset()
}

// MemBytes reports the reusable storage the machine retains across trials
// (subarray arena, spill buffers, engine tables, a translated run's
// register file and flips): the peak scratch figure surfaced by choppersim
// and RunResult.
func (m *Machine) MemBytes() int64 {
	return m.engine.MemBytes() + m.sub.MemBytes() + m.spill.MemBytes() + int64(cap(m.regs))*8 + int64(cap(m.flips))*8
}

// Stats exposes the timing engine counters.
func (m *Machine) Stats() dram.EngineStats { return m.engine.Stats() }

// RunProgram is a convenience for single-subarray programs: it runs prog at
// bank 0, subarray 0 of a fresh machine.
func RunProgram(prog *isa.Program, arch isa.Arch, geom dram.Geometry, lanes int, io *HostIO) (float64, error) {
	m := NewMachine(MachineConfig{Geom: geom, Arch: arch, Lanes: lanes})
	t, _, err := m.RunRecoveredCtx(nil, Decode(prog), 0, 0, io, guard.Budget{}, RecoveryPolicy{})
	return t, err
}
