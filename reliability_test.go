package chopper

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"

	"chopper/internal/transpose"
)

const relAdderSrc = `
node main(a: u8, b: u8) returns (s: u8)
  let s = a + b;
tel`

func compileRel(t *testing.T, harden bool) *Kernel {
	t.Helper()
	k, err := Compile(relAdderSrc, Options{Harden: harden})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// relRows is the fault tests' fixed operand pair in vertical layout.
func relRows(lanes int) map[string][][]uint64 {
	a, b := make([]uint64, lanes), make([]uint64, lanes)
	for l := 0; l < lanes; l++ {
		a[l] = uint64(l * 7 % 256)
		b[l] = uint64(l * 13 % 256)
	}
	return map[string][][]uint64{"a": transpose.ToVertical(a, 8, lanes), "b": transpose.ToVertical(b, 8, lanes)}
}

// rowsDigest is the SHA-256 of a run's output rows, k.Outputs order, each
// word little-endian.
func rowsDigest(k *Kernel, rows map[string][][]uint64) string {
	h := sha256.New()
	for _, o := range k.Outputs {
		for _, row := range rows[o.Name] {
			for _, w := range row {
				binary.Write(h, binary.LittleEndian, w)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Identical Config + seed must reproduce identical corruption, lane for
// lane — the acceptance bar for the deterministic fault models. The counts
// and the output digest are pinned, and RunRowsUnderFault and RunRowsCtx
// must both give them.
func TestFaultInjectionDeterministic(t *testing.T) {
	k := compileRel(t, false)
	const lanes = 64
	cfg := FaultConfig{TRAFlipRate: 0.05, CopyFlipRate: 0.02, RetentionRate: 0.1, RefreshOps: 32}
	const wantDigest = "ddb136fc6a3f2c3628bc6f9e05250a9566b67e5e1994ebf2e6125bb5c9257341"
	wantFaults := FaultCounts{TRAFlips: 4, CopyFlips: 4}

	r1, err := k.RunRowsUnderFault(relRows(lanes), lanes, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := k.RunRowsCtx(nil, relRows(lanes), lanes, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []*RunResult{r1, r2} {
		if r.Faults != wantFaults {
			t.Errorf("run %d: fault counts %+v, want %+v", i, r.Faults, wantFaults)
		}
		if got := rowsDigest(k, r.Rows); got != wantDigest {
			t.Errorf("run %d: output digest %s, want %s", i, got, wantDigest)
		}
	}
}

// The robustness win: a guaranteed single TRA fault breaks the unhardened
// adder, while the TMR-hardened build of the same source survives it. The
// plain kernel's first discrepancy is pinned.
func TestHardenSurvivesSingleFault(t *testing.T) {
	plain := compileRel(t, false)
	hard := compileRel(t, true)

	cfg := FaultConfig{TRAFlipRate: 1, MaxFaults: 1}
	err := plain.VerifyCtx(nil, 4, 17, 0, cfg)
	const want = `chopper: verify: trial 0 lane 23: output "s" = 118, reference says 116`
	if err == nil || err.Error() != want {
		t.Fatalf("unhardened kernel under a guaranteed TRA fault: error %v, want %s", err, want)
	}
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("corruption error %v does not match ErrVerify", err)
	}
	if err := hard.VerifyCtx(nil, 4, 17, 0, cfg); err != nil {
		t.Fatalf("hardened kernel corrupted by a single TRA fault: %v", err)
	}
}

// The zero FaultConfig is the fault-free run: VerifyCtx and RunRowsCtx given
// it agree with Verify and RunRows, and inject nothing whatever the seed.
func TestZeroFaultConfigIsFaultFree(t *testing.T) {
	k := compileRel(t, false)
	if got, want := k.VerifyCtx(nil, 5, 17, 0, FaultConfig{}), k.Verify(5, 17); !reflect.DeepEqual(got, want) {
		t.Errorf("VerifyCtx with the zero FaultConfig = %v, Verify = %v", got, want)
	}
	const lanes = 64
	want, err := k.RunRows(relRows(lanes), lanes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.RunRowsCtx(nil, relRows(lanes), lanes, FaultConfig{}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults != (FaultCounts{}) {
		t.Errorf("zero FaultConfig injected %+v", got.Faults)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || got.TimeNs != want.TimeNs || got.Stats != want.Stats {
		t.Errorf("zero FaultConfig run differs from RunRows: %v ns %+v vs %v ns %+v", got.TimeNs, got.Stats, want.TimeNs, want.Stats)
	}
}

// A config holding only stuck-at columns has no transient rate, and still
// injects: the stuck lane is forced on every row store, and the sweep
// reports the corruption (both pinned).
func TestStuckColumnsAloneInject(t *testing.T) {
	k := compileRel(t, false)
	cfg := FaultConfig{StuckColumns: []StuckColumn{{Lane: 3, High: true}}}
	const lanes = 64
	res, err := k.RunRowsCtx(nil, relRows(lanes), lanes, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	if want := (FaultCounts{StuckLanes: 60}); res.Faults != want {
		t.Errorf("stuck-column run: faults %+v, want %+v", res.Faults, want)
	}
	const want = `chopper: verify: trial 0 lane 3: output "s" = 255, reference says 57`
	if err := k.VerifyCtx(nil, 4, 17, 0, cfg); err == nil || err.Error() != want {
		t.Errorf("stuck-column sweep: error %v, want %s", err, want)
	}
}

// Hardening must not change fault-free semantics.
func TestHardenedKernelVerifies(t *testing.T) {
	hard := compileRel(t, true)
	if err := hard.Verify(3, 2); err != nil {
		t.Fatal(err)
	}
	if hard.Stats().APs <= compileRel(t, false).Stats().APs {
		t.Fatal("hardened kernel is not larger than the plain one")
	}
}

// The reliability harness quantifies the trade: hardened kernels trade
// latency (TimeNs overhead) for a lower silent-data-corruption rate.
func TestReliabilityReport(t *testing.T) {
	plain := compileRel(t, false)
	hard := compileRel(t, true)

	cfgs := []FaultConfig{
		{},                             // control point: no faults
		{TRAFlipRate: 1, MaxFaults: 1}, // guaranteed single fault
	}
	const trials = 6
	pr, err := plain.ReliabilityCtx(nil, trials, 41, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := hard.ReliabilityCtx(nil, trials, 41, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}

	if pr.Points[0].SDCRuns != 0 || hr.Points[0].SDCRuns != 0 {
		t.Fatalf("SDC without faults: plain %d, hardened %d", pr.Points[0].SDCRuns, hr.Points[0].SDCRuns)
	}
	if pr.Points[1].SDCRate() == 0 {
		t.Fatal("unhardened kernel shows no SDC under guaranteed single faults")
	}
	if hr.Points[1].SDCRuns != 0 {
		t.Fatalf("hardened kernel shows SDC under single faults: %d/%d runs",
			hr.Points[1].SDCRuns, hr.Points[1].Runs)
	}
	if hr.Points[1].Injected.Total() == 0 {
		t.Fatal("no faults injected into the hardened kernel (survival is vacuous)")
	}
	if hr.TimeNs <= pr.TimeNs {
		t.Fatalf("TMR latency overhead missing: hardened %.1fns <= plain %.1fns", hr.TimeNs, pr.TimeNs)
	}
	t.Logf("TMR overhead: %.2fx latency, SDC %0.2f -> %0.2f",
		hr.TimeNs/pr.TimeNs, pr.Points[1].SDCRate(), hr.Points[1].SDCRate())
}

// TestInvalidFaultConfigRejected: a fault setting no run can honour — a
// negative or NaN rate, a negative MaxFaults, FirstOp or RefreshOps — is an
// ErrOptions error from every verb that takes one, not a fault-free run;
// the zero config and the boundary values still run.
func TestInvalidFaultConfigRejected(t *testing.T) {
	k := compileRel(t, false)
	const lanes = 8
	rows := map[string][][]uint64{
		"a": transpose.ToVertical(make([]uint64, lanes), 8, lanes),
		"b": transpose.ToVertical(make([]uint64, lanes), 8, lanes),
	}
	verbs := map[string]func(FaultConfig) error{
		"RunRowsCtx": func(fc FaultConfig) error {
			_, err := k.RunRowsCtx(nil, rows, lanes, fc, 1)
			return err
		},
		"VerifyCtx": func(fc FaultConfig) error {
			err := k.VerifyCtx(nil, 2, 1, 1, fc)
			if errors.Is(err, ErrVerify) {
				return nil // the faults corrupted a lane: it ran
			}
			return err
		},
		"ReliabilityCtx": func(fc FaultConfig) error {
			_, err := k.ReliabilityCtx(nil, 1, 1, []FaultConfig{{}, fc}, 1)
			return err
		},
	}
	for _, tc := range []struct {
		name string
		fc   FaultConfig
		bad  bool
	}{
		{"zero", FaultConfig{}, false},
		{"boundaries", FaultConfig{TRAFlipRate: 1, CopyFlipRate: 0, RetentionRate: 1, RefreshOps: 0, MaxFaults: 0, FirstOp: 0}, false},
		{"negative TRA rate", FaultConfig{TRAFlipRate: -0.5}, true},
		{"NaN TRA rate", FaultConfig{TRAFlipRate: math.NaN()}, true},
		{"negative copy rate", FaultConfig{CopyFlipRate: -1e-9}, true},
		{"NaN copy rate", FaultConfig{CopyFlipRate: math.NaN()}, true},
		{"negative retention rate", FaultConfig{RetentionRate: -1, RefreshOps: 10}, true},
		{"NaN retention rate", FaultConfig{RetentionRate: math.NaN(), RefreshOps: 10}, true},
		{"negative MaxFaults", FaultConfig{TRAFlipRate: 0.1, MaxFaults: -1}, true},
		{"negative FirstOp", FaultConfig{TRAFlipRate: 0.1, FirstOp: -1}, true},
		{"negative RefreshOps", FaultConfig{RetentionRate: 0.1, RefreshOps: -5}, true},
	} {
		for name, verb := range verbs {
			err := verb(tc.fc)
			if tc.bad != errors.Is(err, ErrOptions) || !tc.bad && err != nil {
				t.Errorf("%s: %s(%+v) = %v, want an ErrOptions error: %v", tc.name, name, tc.fc, err, tc.bad)
			}
		}
	}
}
