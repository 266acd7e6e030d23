package chopper

// The run path's three shortcuts against the work they skip: a fault
// hook hears only the events it subscribes to, a clean recovered run
// replays the kernel's memo, and fault-free verify trials share passes.
// Each test drives the shortcut and the full path side by side and
// requires every returned field but ScratchBytes to match.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"chopper/internal/codegen"
	"chopper/internal/fault"
	"chopper/internal/isa"
	"chopper/internal/obs"
	"chopper/internal/sim"
	"chopper/internal/transpose"
)

// everyEvent is a fault.Injector that subscribes to every event: the fault
// hook of the full path.
type everyEvent struct{ *fault.Injector }

func (everyEvent) Events() isa.Events { return isa.EvAll }

// fullRun is the run path with no shortcut: the rows bound as a pass binds
// them, one Machine.RunRecoveredCtx through the timing engine under the
// kernel's recovery policy (the zero policy is the plain run), and a fault
// hook that hears every event.
func fullRun(k *Kernel, rows map[string][][]uint64, lanes int, fc FaultConfig, seed int64) (*RunResult, error) {
	p, err := k.tilePlan()
	if err != nil {
		return nil, err
	}
	var host hostRows
	in, out := host.bind(p, lanes)
	spans, _ := laneSpans([]int{lanes})
	if err := p.pasteRows(k.Inputs, in, rows, spans[0]); err != nil {
		return nil, err
	}
	cfg := sim.MachineConfig{Geom: k.Opts.Geometry, Arch: k.Opts.Target, Lanes: lanes}
	var inj *fault.Injector
	if fc.Enabled() {
		inj = fault.New(fc, seed)
		cfg.Fault = everyEvent{inj}
	}
	m := sim.NewMachine(cfg)
	t, rs, err := m.RunRecoveredCtx(nil, sim.Decode(k.prog), 0, 0, host.hostIO(), k.Opts.Budget, k.Opts.Recovery.policy())
	if err != nil {
		return nil, err
	}
	res := &RunResult{Rows: k.keepRows(out, spans)[0], TimeNs: t, Stats: m.Stats(), RecoveryStats: rs}
	if inj != nil {
		res.Faults = inj.Counts()
	}
	return res, nil
}

// sameRun fails unless got and want agree on every field but ScratchBytes.
func sameRun(t *testing.T, label string, got, want *RunResult) {
	t.Helper()
	rowsEqual(t, label, got.Rows, want.Rows)
	if got.TimeNs != want.TimeNs || got.Stats != want.Stats {
		t.Fatalf("%s: timing\n got %v %+v\nwant %v %+v", label, got.TimeNs, got.Stats, want.TimeNs, want.Stats)
	}
	if got.Faults != want.Faults {
		t.Fatalf("%s: faults %+v, want %+v", label, got.Faults, want.Faults)
	}
	if got.RecoveryStats != want.RecoveryStats {
		t.Fatalf("%s: recovery %+v, want %+v", label, got.RecoveryStats, want.RecoveryStats)
	}
}

func shortcutRows(k *Kernel, lanes int) map[string][][]uint64 {
	wide := wideInputs(k, lanes)
	rows := make(map[string][][]uint64, len(k.Inputs))
	for _, in := range k.Inputs {
		rows[in.Name] = transpose.ToVerticalWide(wide[in.Name], in.Width, lanes)
	}
	return rows
}

var shortcutKernels = []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"}

var shortcutRecovery = []struct {
	name string
	rec  Recovery
}{{"plain", Recovery{}}, {"parity", Recovery{Detector: DetectorParity}}, {"vote", Recovery{Detector: DetectorVote}}}

// TestRunShortcutsMatchFullPath holds each shortcut to the full path on the
// four paper kernels on Ambit and SIMDRAM.
func TestRunShortcutsMatchFullPath(t *testing.T) {
	// (a) Each fault model alone and all four together, plain and under
	// both detectors: the injector's subscription against a hook that
	// hears every event.
	t.Run("events", func(t *testing.T) {
		stuck := []StuckColumn{{Lane: 3, High: true}, {Lane: 40}}
		models := []struct {
			name string
			fc   FaultConfig
		}{
			{"tra", FaultConfig{TRAFlipRate: 1e-2}},
			{"copy", FaultConfig{CopyFlipRate: 1e-2}},
			{"stuck", FaultConfig{StuckColumns: stuck}},
			{"retention", FaultConfig{RetentionRate: 0.5, RefreshOps: 64}},
			{"all", FaultConfig{TRAFlipRate: 1e-2, CopyFlipRate: 1e-2, StuckColumns: stuck, RetentionRate: 0.5, RefreshOps: 64}},
		}
		const lanes, seed = 64, 3
		injected := map[string]int{}
		for _, name := range shortcutKernels {
			for _, target := range []Target{Ambit, SIMDRAM} {
				for _, r := range shortcutRecovery {
					k := compileWorkload(t, name, Options{Target: target, Recovery: r.rec})
					rows := shortcutRows(k, lanes)
					for _, m := range models {
						label := fmt.Sprintf("%s %v %s %s", name, target, r.name, m.name)
						want, err := fullRun(k, rows, lanes, m.fc, seed)
						if err != nil {
							t.Fatalf("%s: full path: %v", label, err)
						}
						got, err := k.RunRowsCtx(nil, rows, lanes, m.fc, seed)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameRun(t, label, got, want)
						injected[m.name] += got.Faults.Total()
					}
				}
			}
		}
		for _, m := range models {
			if injected[m.name] == 0 {
				t.Errorf("model %s injected nothing: its comparisons are vacuous", m.name)
			}
		}
		// A mask that dropped loads and stores under a detector read 0
		// here: scrubs count the access clocks those events keep.
		k := compileWorkload(t, "SW-64", Options{Target: Ambit, Recovery: Recovery{Detector: DetectorVote}})
		zero := map[string][][]uint64{}
		for _, in := range k.Inputs {
			zero[in.Name] = transpose.ToVertical(make([]uint64, lanes), in.Width, lanes)
		}
		fc := FaultConfig{TRAFlipRate: 1e-2}
		want, err := fullRun(k, zero, lanes, fc, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.RunRowsCtx(nil, zero, lanes, fc, seed)
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, "SW-64 vote zero operands", got, want)
		if got.RecoveryStats.ScrubbedRows != 2474 {
			t.Errorf("SW-64 vote zero operands: ScrubbedRows %d, want 2474", got.RecoveryStats.ScrubbedRows)
		}
	})

	// (b) Clean recovered runs, whose first run per lane-word count fills
	// the memo and every later one replays it, against the full loop. The
	// lane counts of a kernel run concurrently, so first runs race to
	// store (equal) entries.
	t.Run("memo", func(t *testing.T) {
		lanesSet := []int{1, 63, 64, 65, 128}
		for _, name := range shortcutKernels {
			for _, target := range []Target{Ambit, SIMDRAM} {
				for _, r := range shortcutRecovery[1:] {
					k := compileWorkload(t, name, Options{Target: target, Recovery: r.rec})
					rows := make([]map[string][][]uint64, len(lanesSet))
					wants := make([]*RunResult, len(lanesSet))
					for i, lanes := range lanesSet {
						rows[i] = shortcutRows(k, lanes)
						var err error
						if wants[i], err = fullRun(k, rows[i], lanes, FaultConfig{}, 0); err != nil {
							t.Fatal(err)
						}
					}
					var wg sync.WaitGroup
					errs := make([]error, len(lanesSet))
					gots := make([][2]*RunResult, len(lanesSet))
					for i, lanes := range lanesSet {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for run := range gots[i] {
								if gots[i][run], errs[i] = k.RunRows(rows[i], lanes); errs[i] != nil {
									return
								}
							}
						}()
					}
					wg.Wait()
					for i, lanes := range lanesSet {
						if errs[i] != nil {
							t.Fatal(errs[i])
						}
						for run, got := range gots[i] {
							sameRun(t, fmt.Sprintf("%s %v %s lanes=%d run %d", name, target, r.name, lanes, run), got, wants[i])
						}
					}
					if len(k.shards) != 2 {
						t.Errorf("%s %v %s: memo holds %d entries, want one per lane-word count (1, 2)", name, target, r.name, len(k.shards))
					}
				}
			}
		}
	})

	// (c) A valid but wrong program — one AP operand swapped for another
	// compute row an earlier op defined — fails packed Verify with the
	// text per-trial passes give. A stuck column past every lane enables
	// fault injection, which forces one pass per trial, and injects
	// nothing.
	t.Run("verify", func(t *testing.T) {
		codegen.TestBreakHook = func(_ obs.Variant, prog *isa.Program) { swapAPOperand(prog) }
		defer func() { codegen.TestBreakHook = nil }()
		perTrial := FaultConfig{StuckColumns: []StuckColumn{{Lane: 1 << 20}}}
		failing := 0
		for _, name := range shortcutKernels {
			for _, target := range []Target{Ambit, SIMDRAM} {
				k := compileWorkload(t, name, Options{Target: target})
				want := k.VerifyCtx(nil, 12, 5, 1, perTrial)
				if want != nil {
					failing++
				}
				for _, workers := range []int{1, 4} {
					got := k.VerifyCtx(nil, 12, 5, workers, FaultConfig{})
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s %v workers=%d: packed %v\nper-trial %v", name, target, workers, got, want)
					}
				}
			}
		}
		if failing == 0 {
			t.Error("no broken kernel failed verification: the comparison is vacuous")
		}
	})
}

// swapAPOperand replaces the last operand of the program's middle AP with
// a compute row the AP does not name and an earlier op stored: the
// program stays valid, and reads only defined rows.
func swapAPOperand(prog *isa.Program) {
	var aps []int
	for i := range prog.Ops {
		if prog.Ops[i].Kind == isa.OpAP {
			aps = append(aps, i)
		}
	}
	if len(aps) == 0 {
		return
	}
	at := aps[len(aps)/2]
	ap := &prog.Ops[at]
	for i := at - 1; i >= 0; i-- {
		op := &prog.Ops[i]
		if op.Kind != isa.OpAAP && op.Kind != isa.OpAP {
			continue
		}
		for _, r := range op.Dsts() {
			if r.IsBGroup() && r != ap.Dst[0] && r != ap.Dst[1] && r != ap.Dst[2] {
				ap.Dst[2] = r
				return
			}
		}
	}
}

// TestRecoveredMemoBudgetAndCancel: a budget the memo's run would cross
// takes the full loop, and stops with its error; a budget it just fits
// replays the memo; a cancelled ctx stops a memo run.
func TestRecoveredMemoBudgetAndCancel(t *testing.T) {
	const lanes = 64
	for _, r := range shortcutRecovery[1:] {
		k := compileWorkload(t, "WTC-64", Options{Target: Ambit, Recovery: r.rec})
		rows := shortcutRows(k, lanes)
		clean, err := k.RunRows(rows, lanes) // fills the memo
		if err != nil {
			t.Fatal(err)
		}
		n, rs := len(k.prog.Ops), clean.RecoveryStats
		steps, cmds := n+rs.WastedUops, n+rs.WastedCommands+rs.DetectorCommands
		if r.rec.Detector == DetectorVote && steps == n {
			t.Fatalf("%s: the vote run rolled nothing back", r.name)
		}
		for _, b := range []Budget{{MaxSimSteps: steps - 1}, {MaxDRAMCommands: cmds - 1}, {MaxSimSteps: steps}, {MaxDRAMCommands: cmds}} {
			label := fmt.Sprintf("%s %+v", r.name, b)
			k.Opts.Budget = b
			want, wantErr := fullRun(k, rows, lanes, FaultConfig{}, 0)
			got, err := k.RunRows(rows, lanes)
			if wantErr != nil {
				var be *BudgetError
				if !errors.As(err, &be) || err.Error() != wantErr.Error() {
					t.Fatalf("%s: error %v, want the full loop's %v", label, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameRun(t, label, got, want)
			sameRun(t, label+" vs unlimited", got, clean)
		}
		k.Opts.Budget = Budget{}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := k.RunRowsCtx(ctx, rows, lanes, FaultConfig{}, 0); !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: cancelled run: %v, want ErrCanceled", r.name, err)
		}
	}
}
