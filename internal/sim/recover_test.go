package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/fault"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// The canonical fault model must plug into the recovery layer.
var _ EpochHook = (*fault.Injector)(nil)

// recProgram builds `blocks` independent AND-style blocks (6 ops each:
// WRITE, 3x AAP, AP, READ) with an epoch mark at every block boundary.
// Each block reads back exactly the pattern written for its tag, so the
// expected host output is trivially checkable per tag.
func recProgram(blocks int) *isa.Program {
	p := &isa.Program{DRowsUsed: 1}
	for i := 0; i < blocks; i++ {
		p.Append(
			isa.NewWrite(isa.Row(0), i),
			isa.NewAAP(isa.Row(0), isa.T0),
			isa.NewAAP(isa.Row(0), isa.T1),
			isa.NewAAP(isa.C0, isa.T2),
			isa.NewAP(isa.T0, isa.T1, isa.T2),
			isa.NewRead(isa.T0, i),
		)
		p.EpochMarks = append(p.EpochMarks, int32(len(p.Ops)))
	}
	return p
}

func recPattern(tag int) uint64 { return 0x1111111111111111 * uint64(tag%15+1) }

func recMachine(hook FaultHook) *Machine {
	return NewMachine(MachineConfig{Geom: dram.DefaultGeometry(), Arch: isa.Ambit, Lanes: 64, Fault: hook})
}

type readLog struct {
	tags []int
	data []uint64
}

func recIO(log *readLog) *HostIO {
	return &HostIO{
		WriteData: func(tag int) []uint64 { return []uint64{recPattern(tag)} },
		ReadSink: func(tag int, data []uint64) {
			log.tags = append(log.tags, tag)
			log.data = append(log.data, data[0])
		},
	}
}

func checkReads(t *testing.T, log *readLog, blocks int) {
	t.Helper()
	if len(log.tags) != blocks {
		t.Fatalf("got %d reads, want %d", len(log.tags), blocks)
	}
	for i, tag := range log.tags {
		if tag != i {
			t.Errorf("read %d delivered tag %d (out of order or duplicated)", i, tag)
		}
		if log.data[i] != recPattern(tag) {
			t.Errorf("tag %d: got %#x, want %#x", tag, log.data[i], recPattern(tag))
		}
	}
}

// flakyHook is a deterministic EpochHook for tests: it corrupts exactly
// one op (by global index) — only on retry attempt 0 — so a single replay
// is always clean. The corruption point selects which detector can see it:
// AfterCompute faults are compute faults (vote territory; fires on AP
// ops), AfterStore faults corrupt the stored charge after parity was
// recorded (parity territory; fires on any storing op).
type flakyHook struct {
	fireOp  int
	inStore bool // corrupt the stored charge instead of the compute result

	attempt int
	fired   bool
	ckFired bool
}

func (h *flakyHook) Events() isa.Events                                        { return isa.EvAll }
func (h *flakyHook) BeforeLoad(opIdx int, r isa.Row, data []uint64, lanes int) {}
func (h *flakyHook) AfterCompute(opIdx int, data []uint64, lanes int) {
	if !h.inStore {
		h.fire(opIdx, data)
	}
}
func (h *flakyHook) AfterCopy(opIdx int, data []uint64, lanes int) {}
func (h *flakyHook) AfterStore(opIdx int, r isa.Row, data []uint64, lanes int) {
	if h.inStore {
		h.fire(opIdx, data)
	}
}
func (h *flakyHook) fire(opIdx int, data []uint64) {
	if h.attempt == 0 && !h.fired && opIdx == h.fireOp {
		data[0] ^= 1
		h.fired = true
	}
}
func (h *flakyHook) EpochCheckpoint()         { h.ckFired = h.fired; h.attempt = 0 }
func (h *flakyHook) EpochRestore(attempt int) { h.fired = h.ckFired; h.attempt = attempt }
func (h *flakyHook) Scrub(opIdx int) int      { return 0 }

func runRecovered(t *testing.T, m *Machine, prog *isa.Program, io *HostIO, b guard.Budget, pol RecoveryPolicy) (float64, RecoveryStats, error) {
	t.Helper()
	return m.RunRecoveredCtx(context.Background(), Decode(prog), 0, 0, io, b, pol)
}

// TestReconfigureAfterRecoveredRun: a recovered run is the one run that
// issues on the machine's engine. Reconfigure after it leaves the engine's
// stats at zero, and a second run on the same unit takes the makespan the
// first took, so the units that run touched start again from time zero.
func TestReconfigureAfterRecoveredRun(t *testing.T) {
	prog := recProgram(3)
	cfg := MachineConfig{Geom: dram.DefaultGeometry(), Arch: isa.Ambit, Lanes: 64}
	m := NewMachine(cfg)
	var log readLog
	first, _, err := m.RunRecoveredCtx(context.Background(), Decode(prog), 3, 5, recIO(&log), guard.Budget{}, RecoveryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Ops == 0 {
		t.Fatal("the recovered run issued nothing on the engine")
	}
	m.Reconfigure(cfg)
	if st := m.Stats(); st != (dram.EngineStats{}) {
		t.Fatalf("stats after Reconfigure: %+v, want zero", st)
	}
	second, _, err := m.RunRecoveredCtx(context.Background(), Decode(prog), 3, 5, recIO(&log), guard.Budget{}, RecoveryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("second run's makespan %v, first's %v", second, first)
	}
}

func TestRecoveryZeroFaultEquivalence(t *testing.T) {
	const blocks = 5
	prog := recProgram(blocks)
	for _, pol := range []RecoveryPolicy{
		{Detector: DetectNone},
		{Detector: DetectParity, EpochUops: 6, MaxRetries: 3},
		{Detector: DetectVote, EpochUops: 6, MaxRetries: 3},
	} {
		var log readLog
		m := recMachine(nil)
		_, rs, err := runRecovered(t, m, prog, recIO(&log), guard.Budget{}, pol)
		if err != nil {
			t.Fatalf("detector %d: %v", pol.Detector, err)
		}
		checkReads(t, &log, blocks)
		if rs.Detections != 0 || rs.Retries != 0 || rs.Corrected != 0 || rs.Uncorrected != 0 {
			t.Errorf("detector %d: spurious recovery activity on a clean run: %+v", pol.Detector, rs)
		}
		if pol.Detector != DetectNone && rs.Epochs != blocks {
			t.Errorf("detector %d: %d epochs, want %d", pol.Detector, rs.Epochs, blocks)
		}
		if pol.Detector == DetectVote && rs.WastedUops != blocks*6 {
			t.Errorf("vote redundancy: WastedUops=%d, want %d", rs.WastedUops, blocks*6)
		}
	}
}

func TestRecoveryVoteCorrectsComputeFault(t *testing.T) {
	const blocks = 4
	prog := recProgram(blocks)
	hook := &flakyHook{fireOp: 10} // the AP of the second epoch
	var log readLog
	m := recMachine(hook)
	_, rs, err := runRecovered(t, m, prog, recIO(&log), guard.Budget{},
		RecoveryPolicy{Detector: DetectVote, EpochUops: 6, MaxRetries: 3, BackoffNs: 10})
	if err != nil {
		t.Fatal(err)
	}
	checkReads(t, &log, blocks)
	if rs.Detections == 0 || rs.Corrected != 1 || rs.Uncorrected != 0 {
		t.Errorf("stats = %+v, want one detected+corrected epoch", rs)
	}
	if m.Stats().StallNs <= 0 {
		t.Error("detected retry did not charge backoff stall")
	}
}

func TestRecoveryParityCorrectsStorageFault(t *testing.T) {
	const blocks = 4
	prog := recProgram(blocks)
	hook := &flakyHook{fireOp: 7, inStore: true}
	var log readLog
	m := recMachine(hook)
	_, rs, err := runRecovered(t, m, prog, recIO(&log), guard.Budget{},
		RecoveryPolicy{Detector: DetectParity, EpochUops: 6, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkReads(t, &log, blocks)
	if rs.Detections == 0 || rs.Corrected != 1 || rs.Uncorrected != 0 {
		t.Errorf("stats = %+v, want one detected+corrected epoch", rs)
	}
	if rs.Retries != 1 {
		t.Errorf("Retries = %d, want 1", rs.Retries)
	}
}

func TestRecoveryParityMissesComputeFault(t *testing.T) {
	// A compute fault happens before the store records parity, so the
	// parity detector cannot see it: documented blind spot.
	prog := recProgram(2)
	hook := &flakyHook{fireOp: 10}
	var log readLog
	m := recMachine(hook)
	_, rs, err := runRecovered(t, m, prog, recIO(&log), guard.Budget{},
		RecoveryPolicy{Detector: DetectParity, EpochUops: 6, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Detections != 0 {
		t.Errorf("parity detected a compute fault (stats %+v); the blind-spot contract changed", rs)
	}
	if log.data[1] == recPattern(1) {
		t.Error("expected the undetected compute fault to corrupt the output")
	}
}

func TestRecoveryParityDetectsStuckAtButCannotCorrect(t *testing.T) {
	const blocks = 3
	prog := recProgram(blocks)
	inj := fault.New(fault.Config{StuckColumns: []fault.StuckColumn{{Lane: 3, High: true}}}, 1)
	var log readLog
	m := recMachine(inj)
	_, rs, err := runRecovered(t, m, prog, recIO(&log), guard.Budget{},
		RecoveryPolicy{Detector: DetectParity, EpochUops: 6, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Detections == 0 {
		t.Fatalf("parity failed to detect a stuck-at column: %+v", rs)
	}
	if rs.Uncorrected == 0 {
		t.Errorf("stuck-at is permanent; expected uncorrected epochs, got %+v", rs)
	}
	if rs.Corrected != 0 {
		t.Errorf("replay cannot fix a permanent defect, yet Corrected=%d", rs.Corrected)
	}
	if rs.Retries == 0 || rs.ScrubbedRows == 0 {
		t.Errorf("expected scrubbed retry attempts, got %+v", rs)
	}
}

func TestRecoveryEpochCuts(t *testing.T) {
	const blocks = 6
	prog := recProgram(blocks)
	cases := []struct {
		epochUops int
		marks     bool
		want      int
	}{
		{6, true, 6}, // every mark is a cut
		{7, true, 3}, // snap forward to every second mark
		{1000, true, 1},
		{6, false, 6}, // stride fallback without marks
		{5, false, 8}, // ceil(36 ops / stride 5)
	}
	for _, tc := range cases {
		p := prog
		if !tc.marks {
			cp := *prog
			cp.EpochMarks = nil
			p = &cp
		}
		var log readLog
		m := recMachine(nil)
		_, rs, err := runRecovered(t, m, p, recIO(&log), guard.Budget{},
			RecoveryPolicy{Detector: DetectParity, EpochUops: tc.epochUops})
		if err != nil {
			t.Fatal(err)
		}
		checkReads(t, &log, blocks)
		if rs.Epochs != tc.want {
			t.Errorf("epochUops=%d marks=%v: %d epochs, want %d", tc.epochUops, tc.marks, rs.Epochs, tc.want)
		}
	}
}

func TestRecoveryReadsBufferedUntilCommit(t *testing.T) {
	// The rolled-back attempt's READ must never reach the host sink: each
	// tag is delivered exactly once, in program order, with committed data.
	const blocks = 4
	prog := recProgram(blocks)
	hook := &flakyHook{fireOp: 10}
	var log readLog
	m := recMachine(hook)
	_, rs, err := runRecovered(t, m, prog, recIO(&log), guard.Budget{},
		RecoveryPolicy{Detector: DetectVote, EpochUops: 6, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Detections == 0 {
		t.Fatal("test needs at least one rollback to be meaningful")
	}
	checkReads(t, &log, blocks)
}

func TestRecoveryBudgetBoundsReplay(t *testing.T) {
	// A guard budget must also bound replayed work: with an epoch that
	// keeps retrying, the run surfaces ErrBudget mid-recovery instead of
	// looping or reporting a detector artifact.
	prog := recProgram(4)
	hook := &flakyHook{fireOp: 10}
	var log readLog
	m := recMachine(hook)
	_, _, err := runRecovered(t, m, prog, recIO(&log), guard.Budget{MaxSimSteps: 20},
		RecoveryPolicy{Detector: DetectVote, EpochUops: 6, MaxRetries: 3})
	if !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if !guard.IsGuard(err) {
		t.Fatalf("budget violation mid-recovery must classify as a guard error, got %v", err)
	}
}

func TestRecoveryCancelMidRun(t *testing.T) {
	prog := recProgram(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var log readLog
	m := recMachine(nil)
	_, _, err := m.RunRecoveredCtx(ctx, Decode(prog), 0, 0, recIO(&log), guard.Budget{},
		RecoveryPolicy{Detector: DetectParity, EpochUops: 6})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(log.tags) != 0 {
		t.Error("canceled run leaked buffered reads to the host sink")
	}
}

func TestRecoveryMachineReuseAcrossRuns(t *testing.T) {
	// A pooled machine must not leak parity tracking or recovery state
	// into a later plain run, and a second recovered run starts fresh.
	const blocks = 3
	prog := recProgram(blocks)
	hook := &flakyHook{fireOp: 7, inStore: true}
	m := recMachine(hook)
	var log1 readLog
	_, rs1, err := runRecovered(t, m, prog, recIO(&log1), guard.Budget{},
		RecoveryPolicy{Detector: DetectParity, EpochUops: 6, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rs1.Detections == 0 {
		t.Fatal("first run saw no fault; reuse test is vacuous")
	}
	if m.sub.parTrack {
		t.Fatal("parity tracking left armed after the recovered run")
	}
	// Plain decoded run on the same machine: must behave as always.
	m.Reconfigure(MachineConfig{Geom: dram.DefaultGeometry(), Arch: isa.Ambit, Lanes: 64})
	var log2 readLog
	if _, _, err := runRecovered(t, m, prog, recIO(&log2), guard.Budget{}, RecoveryPolicy{}); err != nil {
		t.Fatal(err)
	}
	checkReads(t, &log2, blocks)
}

// spillProgram is three epochs over the state recProgram never touches:
// spill slots. Epoch 0 leaves a live slot behind; epoch 1 reads the slot
// BEFORE overwriting it, adds a second slot, and ends in the AP a flakyHook
// corrupts; epoch 2 reads both slots back. A rollback that fails to rewind
// a slot replays epoch 1 over its own leftovers, and the read tagged 10
// delivers the wrong epoch's data.
func spillProgram() (p *isa.Program, faultOp int) {
	p = &isa.Program{DRowsUsed: 4}
	mark := func() { p.EpochMarks = append(p.EpochMarks, int32(len(p.Ops))) }
	p.Append(
		isa.NewWrite(isa.Row(0), 0),
		isa.NewSpillOut(isa.Row(0), 7),
		isa.NewRead(isa.Row(0), 0),
	)
	mark()
	p.Append(
		isa.NewWrite(isa.Row(1), 1),
		isa.NewSpillIn(isa.Row(2), 7),
		isa.NewRead(isa.Row(2), 10),
		isa.NewSpillOut(isa.Row(1), 7),
		isa.NewSpillOut(isa.Row(1), 9),
		isa.NewAAP(isa.Row(1), isa.T0),
		isa.NewAAP(isa.Row(1), isa.T1),
		isa.NewAAP(isa.C0, isa.T2),
		isa.NewAP(isa.T0, isa.T1, isa.T2),
	)
	faultOp = len(p.Ops) - 1
	p.Append(isa.NewRead(isa.T0, 1))
	mark()
	p.Append(
		isa.NewSpillIn(isa.Row(2), 7),
		isa.NewRead(isa.Row(2), 20),
		isa.NewSpillIn(isa.Row(2), 9),
		isa.NewRead(isa.Row(2), 21),
	)
	mark()
	return p, faultOp
}

// TestRecoveryRollsBackSpillSlots holds a recovered run whose rolled-back
// epoch holds live spill slots against the fault-free plain run: host
// reads, spill contents and row dumps.
func TestRecoveryRollsBackSpillSlots(t *testing.T) {
	prog, faultOp := spillProgram()
	rows := []isa.Row{isa.Row(0), isa.Row(1), isa.Row(2), isa.T0, isa.T1, isa.T2}
	type state struct {
		log   readLog
		rows  [][]uint64
		spill map[uint64][]uint64
	}
	run := func(hook FaultHook, pol RecoveryPolicy) (state, RecoveryStats) {
		var st state
		m := recMachine(hook)
		_, rs, err := runRecovered(t, m, prog, recIO(&st.log), guard.Budget{}, pol)
		if err != nil {
			t.Fatalf("detector %d: %v", pol.Detector, err)
		}
		for _, r := range rows {
			st.rows = append(st.rows, m.sub.Row(r))
		}
		st.spill = map[uint64][]uint64{}
		for id, sl := range m.spill.slots {
			if sl.live {
				st.spill[id] = append([]uint64(nil), sl.data...)
			}
		}
		return st, rs
	}
	want, _ := run(nil, RecoveryPolicy{})
	if len(want.spill) != 2 {
		t.Fatalf("fault-free run left spill %v: the program no longer exercises two spill slots", want.spill)
	}
	if want.log.data[1] != recPattern(0) {
		t.Fatalf("epoch 1 read %#x from the slot, want epoch 0's %#x", want.log.data[1], recPattern(0))
	}

	got, rs := run(&flakyHook{fireOp: faultOp}, RecoveryPolicy{Detector: DetectVote, EpochUops: 3, MaxRetries: 3})
	if rs.Epochs != 3 || rs.Detections != 1 || rs.Corrected != 1 || rs.Uncorrected != 0 {
		t.Fatalf("stats = %+v, want three epochs with one detected and corrected", rs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered run diverged from the fault-free run\n got: %+v\nwant: %+v", got, want)
	}
}
