package sim

import (
	"fmt"
	"testing"

	"chopper/internal/fault"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// FuzzPlannedBody widens TestPlannedBodyLockstep to any planStreams seed
// and lane count, and adds what the planned body meets in production.
// Every whole-stream loop (functional, plain, parity- and vote-recovered)
// is held against the seed simulator op by op with the lockstep's oracle;
// then a parity-recovered run with no hook, which must detect nothing (no
// fault was injected, so a detection is a parity bit the body failed to
// record); then the functional loop with a fault.Injector attached against
// the seed simulator with an identical one — same stop, READ payloads, rows
// and fault counts, since the injector's draws follow the hook calls alone.
func FuzzPlannedBody(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(60+seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, l uint8) {
		lanes := int(l)%130 + 1
		dRows, progs := planStreams(seed)
		cfg := fault.Config{TRAFlipRate: 0.2, CopyFlipRate: 0.2, RetentionRate: 0.2, RefreshOps: 6,
			StuckColumns: []fault.StuckColumn{{Lane: int(seed&0xffff) % lanes, High: seed&1 == 0}}}
		for v, prog := range progs {
			d := Decode(prog)
			name := fmt.Sprintf("seed %d variant %d lanes %d", seed, v, lanes)
			for _, w := range wholeRuns {
				want, _ := refWhole(prog, dRows, lanes, w.hook)
				if got, _ := runWhole(w, prog, d, dRows, lanes); mismatch(got, want, w.epoch) != "" {
					t.Fatalf("%s %s: %s", name, w.name, mismatch(got, want, w.epoch))
				}
			}

			want, _ := refWhole(prog, dRows, lanes, false)
			var rs RecoveryStats
			got := machineRun(prog, dRows, lanes, nil, func(m *Machine, io *HostIO) (err error) {
				_, rs, err = m.RunRecoveredCtx(nil, d, 0, 0, io, guard.Budget{}, RecoveryPolicy{Detector: DetectParity, EpochUops: 8})
				return err
			})
			if msg := mismatch(got, want, true); msg != "" || rs.Detections != 0 {
				t.Fatalf("%s unhooked parity: %s, %d detections", name, msg, rs.Detections)
			}

			want, wantCounts := refInjected(prog, dRows, lanes, fault.New(cfg, seed))
			inj := fault.New(cfg, seed)
			got = machineRun(prog, dRows, lanes, inj, func(m *Machine, io *HostIO) error {
				return m.RunFunctionalCtx(nil, d, io, guard.Budget{})
			})
			if msg := mismatch(got, want, false); msg != "" || inj.Counts() != wantCounts {
				t.Fatalf("%s injected: %s; injected %+v, reference %+v", name, msg, inj.Counts(), wantCounts)
			}
		}
	})
}

// machineRun runs prog through run on a fresh machine with hook attached.
func machineRun(prog *isa.Program, dRows, lanes int, hook FaultHook, run func(*Machine, *HostIO) error) outcome {
	m := NewMachine(MachineConfig{Geom: planGeom(dRows), Arch: isa.Ambit, Lanes: lanes, Fault: hook})
	var o outcome
	if err := run(m, testIO(m.sub.words, 42, &o.reads)); err != nil {
		o.err = err.Error()
	}
	o.capture(prog, m.sub.Row)
	return o
}

// refInjected runs prog on the seed simulator with inj attached until its
// first error, as a whole-stream loop stops.
func refInjected(prog *isa.Program, dRows, lanes int, inj *fault.Injector) (outcome, fault.Counts) {
	s := newSeedSub(dRows, lanes)
	s.hook = inj
	var o outcome
	io := testIO(s.words, 42, &o.reads)
	spill := &seedSpill{slots: make(map[uint64][]uint64)}
	for i := range prog.Ops {
		if err := s.exec(&prog.Ops[i], io, spill); err != nil {
			o.err = fmt.Sprintf("op %d at bank 0 sub 0: %v", i, err)
			break
		}
	}
	o.capture(prog, s.row)
	return o, inj.Counts()
}
