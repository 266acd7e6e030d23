// Epoch-recovery execution: the simulator's detect-and-recover runtime.
//
// A recovered run splits the program into epochs at scheduler-chosen cut
// points (isa.Program.EpochMarks, with a fixed-stride fallback), snapshots
// the subarray and spill state at each boundary into the machine's checkpoint,
// runs a cheap online detector at the end of every epoch, and on a
// detector mismatch rolls back, scrubs retention state, applies a
// deterministic exponential backoff, and replays the epoch under a salted
// fault draw — at most MaxRetries extra times. Every replayed micro-op is
// charged to the same guard.Budget dimensions as first-try execution, so
// recovery can never loop past a deadline or budget.
//
// Two detectors are provided, with complementary blind spots:
//
//   - parity: a per-row parity bit recorded at store time and re-derived
//     at sense time plus an end-of-epoch sweep. Near-zero overhead. It
//     catches storage faults (stuck bitlines, retention decay) but NOT
//     compute faults: a TRA upset or AAP corruption happens before the
//     store records its parity, so the recorded bit matches the corrupted
//     data.
//   - vote: the epoch is executed at least twice from the checkpoint,
//     each attempt under an independent fault draw, and commits when two
//     attempts agree on a digest of the functional state. Roughly 2x the
//     micro-ops — epoch-granular recompute redundancy, cheaper than
//     whole-kernel TMR's ~3x — and it catches transient compute faults.
//     Permanent defects corrupt every attempt identically, so vote cannot
//     see them (and no replay policy can fix them); parity at least
//     detects them.
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"chopper/internal/guard"
	"chopper/internal/isa"
)

// DetectorKind selects the online error detector of a recovered run.
type DetectorKind int

const (
	// DetectNone disables recovery (RunRecoveredCtx is the plain run).
	DetectNone DetectorKind = iota
	// DetectParity arms per-row parity tracking with an end-of-epoch sweep.
	DetectParity
	// DetectVote re-executes each epoch until two attempts agree on a
	// functional-state digest.
	DetectVote
)

// RecoveryPolicy parameterizes a recovered run. The zero value disables
// recovery.
type RecoveryPolicy struct {
	// Detector selects the online detector.
	Detector DetectorKind
	// EpochUops is the target epoch length in micro-ops; cut points snap
	// forward to the next scheduler mark. <= 0 means 256.
	EpochUops int
	// MaxRetries bounds the re-executions of one epoch beyond the
	// detector's minimum (parity executes an epoch at least once, vote at
	// least twice). When retries are exhausted the run accepts the last
	// attempt's state and counts the epoch as uncorrected instead of
	// failing — permanent defects would otherwise wedge every run.
	MaxRetries int
	// BackoffNs is the base host stall charged before a retry that follows
	// a detection, doubling with each further detection in the same epoch
	// (deterministic exponential backoff, surfaced as EngineStats.StallNs).
	BackoffNs float64
}

// RecoveryStats counts what the recovery layer did during one run.
type RecoveryStats struct {
	// Epochs is the number of epochs committed.
	Epochs int
	// Detections counts detector mismatches (a parity epoch check that
	// found corrupted rows; a vote digest comparison that disagreed).
	Detections int
	// Retries counts re-executions triggered by a detection (the vote
	// detector's mandatory redundant execution is not a retry).
	Retries int
	// Corrected counts epochs that saw at least one detection and still
	// committed a state the detector accepted.
	Corrected int
	// Uncorrected counts epochs that exhausted their retry budget and
	// accepted a state the detector still rejected (e.g. permanent
	// stuck-at defects, which every replay re-corrupts identically).
	Uncorrected int
	// WastedUops counts micro-ops executed in attempts that were rolled
	// back — for the vote detector this includes the mandatory redundant
	// execution, which is the detector's price.
	WastedUops int
	// WastedCommands counts the DRAM commands those rolled-back attempts
	// issued (they still occupied the device and appear in the makespan).
	WastedCommands int
	// DetectorCommands counts the synthetic commands charged for detector
	// checks themselves (one AAP + one AP per epoch check).
	DetectorCommands int
	// ScrubbedRows totals the rows refreshed by retention scrub passes run
	// before fault-retry attempts.
	ScrubbedRows int
	// CheckpointBytes is the largest epoch snapshot taken: the rows that
	// held data at the snapshot, the bitmaps and the live spill slots. It
	// is a property of the run, not of the pooled subarray that served it
	// (whose arena keeps the high-water mark of earlier runs).
	CheckpointBytes int64
}

// Add accumulates other into r (CheckpointBytes keeps the maximum).
func (r *RecoveryStats) Add(other RecoveryStats) {
	r.Epochs += other.Epochs
	r.Detections += other.Detections
	r.Retries += other.Retries
	r.Corrected += other.Corrected
	r.Uncorrected += other.Uncorrected
	r.WastedUops += other.WastedUops
	r.WastedCommands += other.WastedCommands
	r.DetectorCommands += other.DetectorCommands
	r.ScrubbedRows += other.ScrubbedRows
	r.CheckpointBytes = max(r.CheckpointBytes, other.CheckpointBytes)
}

// EpochHook extends FaultHook with epoch checkpoint/rollback cooperation.
// A fault model that implements it is snapshotted and restored alongside
// the subarray, and its transient draws are re-salted per retry attempt;
// fault.Injector is the canonical implementation. A FaultHook that does
// not implement EpochHook still works under recovery, but replays then
// re-observe whatever the hook does statefully.
type EpochHook interface {
	FaultHook
	// EpochCheckpoint snapshots the hook's state at an epoch boundary.
	EpochCheckpoint()
	// EpochRestore rewinds to the last checkpoint and arms retry attempt
	// `attempt` (0 reproduces the original draw; n > 0 salts it).
	EpochRestore(attempt int)
	// Scrub models a retention scrub pass at opIdx and returns the number
	// of rows refreshed.
	Scrub(opIdx int) int
}

// savedRow is one live spill slot captured in a checkpoint (key = the slot).
type savedRow struct {
	key  uint64
	data []uint64
}

// save records (key, data) as entry n of list, reusing the buffer a previous
// epoch's entry n left there.
func save(list []savedRow, n int, key uint64, data []uint64) []savedRow {
	if n == len(list) {
		list = append(list, savedRow{})
	}
	list[n].key = key
	list[n].data = append(list[n].data[:0], data...)
	return list
}

// checkpoint is a functional snapshot of one subarray + spill store at an
// epoch boundary. All storage is reused across epochs and runs (see
// recoverScratch), so steady-state snapshots allocate nothing.
type checkpoint struct {
	arena    []uint64
	present  []uint64
	parity   []uint64
	rowWords int // words of arena the rows marked in present occupy
	physRows int
	opIdx    int
	parBad   int

	spillSlots []savedRow
}

func (c *checkpoint) bytes() int64 {
	n := int64(c.rowWords+len(c.present)+len(c.parity)) * 8
	for i := range c.spillSlots {
		n += int64(len(c.spillSlots[i].data))*8 + 8
	}
	return n
}

// snapshot captures the subarray's functional state into c.
func (s *Subarray) snapshot(c *checkpoint) {
	c.arena = append(c.arena[:0], s.arena...)
	c.present = append(c.present[:0], s.present...)
	c.rowWords = 0
	for _, w := range s.present {
		c.rowWords += bits.OnesCount64(w) * s.words
	}
	if s.parTrack {
		c.parity = append(c.parity[:0], s.parity...)
	} else {
		c.parity = c.parity[:0]
	}
	c.physRows = s.physRows
	c.opIdx = s.opIdx
	c.parBad = s.parBad
}

// restore rewinds the subarray to the snapshot in c. The arena may have
// grown since the snapshot; restoring slices it back down (capacity is
// kept, so the regrowth on replay allocates nothing).
func (s *Subarray) restore(c *checkpoint) {
	s.arena = s.arena[:len(c.arena)]
	copy(s.arena, c.arena)
	copy(s.present, c.present)
	if s.parTrack {
		copy(s.parity, c.parity)
	}
	s.physRows = c.physRows
	s.opIdx = c.opIdx
	s.parBad = c.parBad
}

// snapshot captures the store's live slots into c.
func (sp *SpillStore) snapshot(c *checkpoint) {
	c.spillSlots = c.spillSlots[:cap(c.spillSlots)]
	n := 0
	for id, sl := range sp.slots {
		if sl.live {
			c.spillSlots = save(c.spillSlots, n, id, sl.data)
			n++
		}
	}
	c.spillSlots = c.spillSlots[:n]
}

// restore rewinds the store to the snapshot in c (slot buffers are
// reused via put).
func (sp *SpillStore) restore(c *checkpoint) {
	sp.Reset()
	for i := range c.spillSlots {
		sv := &c.spillSlots[i]
		sp.put(sv.key, sv.data, len(sv.data))
	}
}

// epochIO buffers READ payloads during an epoch and releases them to the
// real sink only when the epoch commits, which is what makes every op
// index a legal cut point: a rolled-back attempt's host-visible output
// simply never happened. The sink contract (payload valid only during the
// call) is preserved because the buffer copies.
type epochIO struct {
	inner   *HostIO
	io      HostIO // the adapter handed to the executor
	tags    []int32
	offs    []int32 // start offset of each buffered payload
	payload []uint64
}

func (b *epochIO) init(inner *HostIO) {
	b.inner = inner
	b.clear()
	b.io = HostIO{}
	if inner != nil {
		b.io.WriteData = inner.WriteData
		if inner.ReadSink != nil {
			// Only buffer when a sink exists: a READ with no sink must keep
			// failing exactly like it does without recovery.
			b.io.ReadSink = b.buffer
		}
	}
}

func (b *epochIO) buffer(tag int, data []uint64) {
	b.tags = append(b.tags, int32(tag))
	b.offs = append(b.offs, int32(len(b.payload)))
	b.payload = append(b.payload, data...)
}

func (b *epochIO) clear() {
	b.tags = b.tags[:0]
	b.offs = b.offs[:0]
	b.payload = b.payload[:0]
}

// read returns the payload of buffered read i.
func (b *epochIO) read(i int) []uint64 {
	end := len(b.payload)
	if i+1 < len(b.offs) {
		end = int(b.offs[i+1])
	}
	return b.payload[b.offs[i]:end]
}

// flush releases the committed epoch's buffered reads to the real sink in
// program order.
func (b *epochIO) flush() {
	for i, tag := range b.tags {
		b.inner.ReadSink(int(tag), b.read(i))
	}
	b.clear()
}

// recoverScratch is the machine's working set for recovered runs: the
// epoch checkpoint, the read buffer, the digest history and the sort
// scratch. Zero allocation across epochs and runs once warm.
type recoverScratch struct {
	ck      checkpoint
	eio     epochIO
	digests []uint64
	slotIDs []uint64
}

// mix64 is the splitmix64 finalizer (the digest's word mixer).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// digestState hashes the complete functional state an epoch leaves behind:
// every stored row (by slot), live spill slots (sorted) and the epoch's
// buffered host reads.
// Two attempts that produce the same digest are functionally
// interchangeable; the vote detector commits on the first agreement.
func (sc *recoverScratch) digestState(s *Subarray, sp *SpillStore) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	word := func(x uint64) {
		h = mix64(h ^ x)
	}
	for idx := range s.allocRows() {
		if !s.isPresent(idx) {
			continue
		}
		word(uint64(idx) | 1<<32)
		for _, w := range s.rowData(idx) {
			word(w)
		}
	}
	sc.slotIDs = sc.slotIDs[:0]
	for id, sl := range sp.slots {
		if sl.live {
			sc.slotIDs = append(sc.slotIDs, id)
		}
	}
	if len(sc.slotIDs) > 0 {
		slices.Sort(sc.slotIDs)
		for _, id := range sc.slotIDs {
			word(id | 3<<32)
			for _, w := range sp.slots[id].data {
				word(w)
			}
		}
	}
	for i, tag := range sc.eio.tags {
		word(uint64(uint32(tag)) | 4<<32)
		for _, w := range sc.eio.read(i) {
			word(w)
		}
	}
	return h
}

// RunRecoveredCtx executes a decoded program on the machine's subarray,
// placed at (bank, sub), through the timing engine under the guard layer:
// ctx every 256 executed ops, b.MaxSimSteps/b.MaxDRAMCommands checked
// before every op. It returns the makespan in nanoseconds; the first
// functional error or guard stop aborts the run; a (bank, sub) outside the
// machine's geometry fails before the first op. With the zero policy that
// is the whole run — sim.RunProgram's timed run of a program.
//
// A detector in pol adds the detect-and-recover layer: epoch checkpoints,
// an online detector per epoch, and bounded rollback/scrub/backoff/replay
// on mismatch, under the same guard contract (replays and detector checks
// included, so recovery is always bounded by the run's budget and
// deadline). Epoch cut points come from the program's EpochMarks (snapping
// the target stride forward to a gate boundary); programs without marks
// fall back to fixed-stride cuts. On exhausted retries the run accepts the
// last attempt's state and counts the epoch in RecoveryStats.Uncorrected —
// graceful degradation, mirroring the compile-time ladder.
func (m *Machine) RunRecoveredCtx(ctx context.Context, d *Decoded, bank, sub int, io *HostIO, b guard.Budget, pol RecoveryPolicy) (float64, RecoveryStats, error) {
	if bank < 0 || bank >= m.geom.Banks || sub < 0 || sub >= m.geom.SubarraysPB {
		return 0, RecoveryStats{}, fmt.Errorf("sim: bank %d sub %d outside the geometry's %d banks x %d subarrays", bank, sub, m.geom.Banks, m.geom.SubarraysPB)
	}
	// One stepper for the whole run: its counters keep counting across
	// rollbacks, so wasted replay work is charged to the same budget
	// dimensions as first-try work and recovery cannot loop past a budget.
	// A replay restores its epoch's start, so it may trust the proofs too.
	st := stepper{ctx: ctx, b: b, m: m, eng: &m.engine, bank: bank, sub: sub, planned: m.sub.plan(d)}
	s, spill, eng := &m.sub, &m.spill, &m.engine
	var rs RecoveryStats
	if pol.Detector == DetectNone {
		err := st.span(d, 0, len(d.ops), io)
		return eng.Makespan(), rs, err
	}
	if pol.EpochUops <= 0 {
		pol.EpochUops = 256
	}
	if pol.MaxRetries < 0 {
		pol.MaxRetries = 0
	}

	sc := &m.rec
	sc.eio.init(io)
	runIO := &sc.eio.io
	if io == nil {
		runIO = nil
	}

	eh, _ := s.hook.(EpochHook)
	if eh != nil {
		// Its checkpoints carry, and its scrubs count, the state every
		// event builds (the access clocks of fault.Injector). The mask
		// stays widened until a hook is next attached.
		s.events = isa.EvAll
	}
	if pol.Detector == DetectParity {
		s.SetParityTracking(true)
	}
	fin := func(err error) (float64, RecoveryStats, error) {
		if pol.Detector == DetectParity {
			s.SetParityTracking(false)
		}
		return eng.Makespan(), rs, err
	}

	// chargeDetector accounts the detector check itself: one AAP (fold the
	// checked rows into the checksum row) and one AP (majority-compare),
	// issued to the timing engine so detector overhead shows up in the
	// makespan and the command budget.
	chargeDetector := func() error {
		for _, kind := range [...]isa.OpKind{isa.OpAAP, isa.OpAP} {
			if err := guard.Check(guard.DimDRAMCommands, b.MaxDRAMCommands, st.cmds+1); err != nil {
				return err
			}
			eng.IssueOp(bank, sub, kind, 0)
			st.cmds++
			rs.DetectorCommands++
		}
		return nil
	}

	marks := d.prog.EpochMarks
	nextCut := func(start int) int {
		target := start + pol.EpochUops
		if target >= len(d.ops) {
			return len(d.ops)
		}
		if len(marks) > 0 {
			if i := sort.SearchInts(marks, target); i < len(marks) {
				return marks[i]
			}
			return len(d.ops)
		}
		return target
	}

	maxAttempts := 1 + pol.MaxRetries
	if pol.Detector == DetectVote {
		maxAttempts = 2 + pol.MaxRetries
	}
	for start := 0; start < len(d.ops); {
		end := nextCut(start)
		s.snapshot(&sc.ck)
		spill.snapshot(&sc.ck)
		if eh != nil {
			eh.EpochCheckpoint()
		}
		rs.CheckpointBytes = max(rs.CheckpointBytes, sc.ck.bytes())
		sc.digests = sc.digests[:0]
		detections := 0
		for attempt := 0; ; attempt++ {
			if attempt > 0 {
				rs.WastedUops += end - start
				rs.WastedCommands += end - start
				s.restore(&sc.ck)
				spill.restore(&sc.ck)
				sc.eio.clear()
				if eh != nil {
					eh.EpochRestore(attempt)
					if detections > 0 {
						rs.ScrubbedRows += eh.Scrub(s.opIdx)
					}
				}
				if detections > 0 {
					rs.Retries++
					if pol.BackoffNs > 0 {
						eng.Stall(pol.BackoffNs * float64(uint64(1)<<min(detections-1, 20)))
					}
				}
				if err := guard.Ctx(ctx); err != nil {
					return fin(err)
				}
			}
			if err := st.span(d, start, end, runIO); err != nil {
				return fin(err)
			}
			// The detector's verdict: commit accepts the state; a rejection
			// is a detection unless there was nothing to disagree with yet
			// (the vote detector's first attempt of an epoch).
			commit, detected := false, false
			switch pol.Detector {
			case DetectParity:
				s.ParitySweep()
				commit = s.ParityMismatches() == 0
				detected = !commit
			case DetectVote:
				dg := sc.digestState(s, spill)
				commit = slices.Contains(sc.digests, dg)
				detected = !commit && len(sc.digests) > 0
				sc.digests = append(sc.digests, dg)
			}
			if err := chargeDetector(); err != nil {
				return fin(err)
			}
			if detected {
				rs.Detections++
				detections++
			}
			if commit {
				if detections > 0 {
					rs.Corrected++
				}
				break
			}
			if attempt == maxAttempts-1 {
				rs.Uncorrected++
				break
			}
		}
		rs.Epochs++
		sc.eio.flush()
		s.ClearParityMismatches()
		start = end
	}
	return fin(nil)
}
