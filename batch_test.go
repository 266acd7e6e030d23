package chopper

import (
	"math/rand"
	"strings"
	"testing"

	"chopper/internal/isa"
	"chopper/internal/transpose"
	"chopper/internal/workloads"
)

// batchLaneSchedule varies member lane counts across the 64-bit word
// boundary, like the verify sweep does, so span masking bugs cannot hide
// behind whole-word members.
var batchLaneSchedule = []int{64, 1, 63, 65, 128, 7}

// paperWorkloadSources returns the first configuration of each of the
// four Table II domains: DenseNet-16, WTC-64, DiffGen-64, SW-64.
func paperWorkloadSources() []workloads.Spec {
	var specs []workloads.Spec
	for _, d := range workloads.Domains {
		specs = append(specs, workloads.Build(d, workloads.Configs[d][0]))
	}
	return specs
}

// batchMembersFor draws n RunBatch members of k's operands (each at most
// 64 bits wide), their lane counts cycling through batchLaneSchedule.
func batchMembersFor(k *Kernel, n int, seed int64) []BatchRun {
	members := make([]BatchRun, n)
	for i := range members {
		lanes := batchLaneSchedule[i%len(batchLaneSchedule)]
		rng := rand.New(rand.NewSource(seed + int64(i)))
		inWide := randWideInputs(rng, k.Inputs, lanes)
		inputs := make(map[string][]uint64, len(k.Inputs))
		for _, in := range k.Inputs {
			vals := make([]uint64, lanes)
			for l, v := range inWide[in.Name] {
				vals[l] = v[0]
			}
			inputs[in.Name] = vals
		}
		members[i] = BatchRun{Inputs: inputs, Lanes: lanes}
	}
	return members
}

// soloRows runs member m alone through RunRows, its operands transposed to
// vertical rows.
func soloRows(k *Kernel, m BatchRun) (*RunResult, error) {
	rows := make(map[string][][]uint64, len(k.Inputs))
	for _, in := range k.Inputs {
		rows[in.Name] = transpose.ToVertical(m.Inputs[in.Name], in.Width, m.Lanes)
	}
	return k.RunRows(rows, m.Lanes)
}

func sameRows(a, b map[string][][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ra := range a {
		rb, ok := b[name]
		if !ok || len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if len(ra[i]) != len(rb[i]) {
				return false
			}
			for j := range ra[i] {
				if ra[i][j] != rb[i][j] {
					return false
				}
			}
		}
	}
	return true
}

// TestBatchByteIdentityPaperWorkloads pins the coalesced pass's core
// contract on all four paper workloads, whose operands fit RunBatch's 64
// bits: at batch sizes 1, 2, 7 and 16 (chopperd's CI max-batch), every
// member's output rows, simulated time and engine counters are
// byte-identical to a solo RunRows of the same operands.
func TestBatchByteIdentityPaperWorkloads(t *testing.T) {
	for _, spec := range paperWorkloadSources() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			k, err := Compile(spec.Src, Options{Target: Ambit})
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 2, 7, 16} {
				members := batchMembersFor(k, size, int64(size)*1000+7)
				solo := make([]*RunResult, size)
				for i, m := range members {
					r, err := soloRows(k, m)
					if err != nil {
						t.Fatalf("size %d solo member %d: %v", size, i, err)
					}
					solo[i] = r
				}
				_, batched, err := k.RunBatchCtx(nil, members)
				if err != nil {
					t.Fatalf("size %d batched: %v", size, err)
				}
				for i := range members {
					if !sameRows(solo[i].Rows, batched[i].Rows) {
						t.Errorf("size %d member %d: output rows differ from solo run", size, i)
					}
					if solo[i].TimeNs != batched[i].TimeNs {
						t.Errorf("size %d member %d: TimeNs %v != solo %v", size, i, batched[i].TimeNs, solo[i].TimeNs)
					}
					if solo[i].Stats != batched[i].Stats {
						t.Errorf("size %d member %d: engine stats differ from solo run", size, i)
					}
				}
			}
		})
	}
}

// TestBatchRunOutputsMatchSolo checks the horizontal (Run-shaped) entry
// point: operands transposed directly into the shared arena come back as
// the same per-lane outputs a solo Run produces.
func TestBatchRunOutputsMatchSolo(t *testing.T) {
	k, err := Compile("node main(a: u8, b: u8) returns (z: u8) let z = a * b + a; tel", Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	var reqs []BatchRun
	for i := 0; i < 7; i++ {
		lanes := batchLaneSchedule[i%len(batchLaneSchedule)]
		in := map[string][]uint64{"a": make([]uint64, lanes), "b": make([]uint64, lanes)}
		for l := 0; l < lanes; l++ {
			in["a"][l] = rng.Uint64() & 0xFF
			in["b"][l] = rng.Uint64() & 0xFF
		}
		reqs = append(reqs, BatchRun{Inputs: in, Lanes: lanes})
	}
	outs, results, err := k.RunBatchCtx(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		want, err := k.Run(r.Inputs, r.Lanes)
		if err != nil {
			t.Fatal(err)
		}
		for name, wv := range want {
			gv := outs[i][name]
			if len(gv) != len(wv) {
				t.Fatalf("member %d output %q: %d lanes, want %d", i, name, len(gv), len(wv))
			}
			for l := range wv {
				if gv[l] != wv[l] {
					t.Errorf("member %d output %q lane %d: %d != solo %d", i, name, l, gv[l], wv[l])
				}
			}
		}
		if results[i].TimeNs <= 0 {
			t.Errorf("member %d: no simulated time", i)
		}
	}
}

// TestBatchVerifyMatchesSolo checks that a coalesced verification sweep
// reports exactly what each solo sweep reports — for passing kernels and
// for a sabotaged kernel, message for message.
func TestBatchVerifyMatchesSolo(t *testing.T) {
	src := "node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel"
	specs := []VerifySpec{{Trials: 3, Seed: 11}, {Trials: 5, Seed: 7}, {Trials: 1, Seed: 3}, {Trials: 2, Seed: 11}}

	k, err := Compile(src, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	perSpec, err := k.VerifyBatchCtx(nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		want := k.VerifyCtx(nil, sp.Trials, sp.Seed, 1, FaultConfig{})
		if (perSpec[i] == nil) != (want == nil) {
			t.Errorf("member %d: batched %v, solo %v", i, perSpec[i], want)
		}
	}

	// Sabotage one control-row copy of a fresh kernel, before anything it
	// caches for its runs is built from the program, so verification
	// fails; then require every member of the batched sweep to fail with
	// the solo sweep's discrepancy.
	k, err = Compile(src, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	sabotaged := false
	for i := range k.prog.Ops {
		if op := &k.prog.Ops[i]; op.Kind == isa.OpAAP && op.Src == isa.C0 {
			op.Src = isa.C1
			sabotaged = true
			break
		}
	}
	if !sabotaged {
		t.Skip("no control-row copy to sabotage")
	}
	perSpec, err = k.VerifyBatchCtx(nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		want := k.VerifyCtx(nil, sp.Trials, sp.Seed, 1, FaultConfig{})
		switch {
		case perSpec[i] == nil:
			t.Errorf("member %d: the batched sweep passed a sabotaged kernel (solo: %v)", i, want)
		case want == nil:
			t.Errorf("member %d: the solo sweep passed a sabotaged kernel (batched: %v)", i, perSpec[i])
		case perSpec[i].Error() != want.Error():
			t.Errorf("member %d:\n  batched: %v\n  solo:    %v", i, perSpec[i], want)
		}
	}
}

// TestBatchBudgetStopMatchesSolo: the budget checkpoints count per
// micro-op, not per word, so a coalesced pass trips at exactly the point
// a solo run trips, with the same sentinel error.
func TestBatchBudgetStopMatchesSolo(t *testing.T) {
	k, err := Compile("node main(a: u8, b: u8) returns (z: u8) let z = a * b + a; tel",
		Options{Target: Ambit, Budget: Budget{MaxSimSteps: 10}})
	if err != nil {
		t.Fatal(err)
	}
	members := batchMembersFor(k, 3, 5)
	_, soloErr := soloRows(k, members[0])
	if soloErr == nil {
		t.Fatal("solo run within a 10-step budget: want a budget stop")
	}
	_, _, batchErr := k.RunBatchCtx(nil, members)
	if batchErr == nil {
		t.Fatal("batched run within a 10-step budget: want a budget stop")
	}
	if soloErr.Error() != batchErr.Error() {
		t.Errorf("budget stops differ:\n  solo:    %v\n  batched: %v", soloErr, batchErr)
	}
	if ErrorClass(batchErr) != "budget" {
		t.Errorf("batched stop classifies as %q, want budget", ErrorClass(batchErr))
	}
}

// TestBatchRejectsRecoveryKernels: epoch recovery checkpoints a single
// request's subarray; multi-member passes must refuse it up front.
func TestBatchRejectsRecoveryKernels(t *testing.T) {
	k, err := Compile("node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel",
		Options{Target: Ambit, Recovery: Recovery{Detector: DetectorParity}})
	if err != nil {
		t.Fatal(err)
	}
	members := batchMembersFor(k, 2, 1)
	if _, _, err := k.RunBatchCtx(nil, members); err == nil {
		t.Error("multi-member batch accepted a recovery-enabled kernel")
	} else if ErrorClass(err) != "options" {
		t.Errorf("recovery rejection classifies as %q, want options", ErrorClass(err))
	}
	// A single-member batch is a solo run and keeps recovery support.
	if _, _, err := k.RunBatchCtx(nil, members[:1]); err != nil {
		t.Errorf("single-member batch on a recovery kernel: %v", err)
	}
}

// TestBatchOfOneKeepsRecoveryStats: a batch of one is a solo run, so a
// recovery-enabled kernel must report what the recovery layer did
// identically through RunBatch and RunRows — RunBatch used to return
// all-zero RecoveryStats.
func TestBatchOfOneKeepsRecoveryStats(t *testing.T) {
	const lanes = 64
	k, err := Compile(recAdderSrc, Options{Target: Ambit, Recovery: Recovery{Detector: DetectorVote, EpochUops: 16}})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := k.RunRows(recRows(t, k, lanes), lanes)
	if err != nil {
		t.Fatal(err)
	}
	if solo.RecoveryStats.Epochs == 0 || solo.RecoveryStats.WastedUops == 0 || solo.RecoveryStats.CheckpointBytes == 0 {
		t.Fatalf("solo run reports no recovery activity (%+v); the test is vacuous", solo.RecoveryStats)
	}
	_, runOf, err := k.RunBatch([]BatchRun{{Inputs: recInputs(lanes), Lanes: lanes}})
	if err != nil {
		t.Fatal(err)
	}
	if got := runOf[0]; got.RecoveryStats != solo.RecoveryStats {
		t.Errorf("RunBatch of one: RecoveryStats %+v, solo RunRows %+v", got.RecoveryStats, solo.RecoveryStats)
	} else if got.Faults != solo.Faults || got.TimeNs != solo.TimeNs || got.Stats != solo.Stats || !sameRows(got.Rows, solo.Rows) {
		t.Error("RunBatch of one diverged from the solo run beyond RecoveryStats")
	}
}

// TestDeterminismBatchPass: the coalesced pass is a pure function of its
// members — repeated passes are byte-identical (CI runs this under
// -race -cpu 1,4).
func TestDeterminismBatchPass(t *testing.T) {
	k, err := Compile("node main(a: u8, b: u8) returns (z: u8) let z = (a ^ b) & (a | b); tel", Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	members := batchMembersFor(k, 7, 42)
	_, first, err := k.RunBatchCtx(nil, members)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		_, again, err := k.RunBatchCtx(nil, batchMembersFor(k, 7, 42))
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if !sameRows(first[i].Rows, again[i].Rows) || first[i].TimeNs != again[i].TimeNs || first[i].Stats != again[i].Stats {
				t.Fatalf("rep %d member %d: coalesced pass not deterministic", rep, i)
			}
		}
	}
}

// TestBatchOversizedRejected: combined lanes beyond one row's bitlines
// must be refused — a coalesced pass is one device pass, not a tiling.
func TestBatchOversizedRejected(t *testing.T) {
	k, err := Compile("node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel", Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	bl := k.Opts.Geometry.Bitlines()
	members := []BatchRun{
		{Inputs: batchMembersFor(k, 1, 1)[0].Inputs, Lanes: bl},
		batchMembersFor(k, 1, 2)[0],
	}
	// The first member's operands only cover its generated lanes, but lane
	// validation happens before operand scattering, so the oversize reject
	// fires first.
	if _, _, err := k.RunBatchCtx(nil, members); err == nil {
		t.Error("batch beyond one row's bitlines was accepted")
	} else if !strings.Contains(err.Error(), "bitlines") {
		t.Errorf("unexpected error: %v", err)
	}
}
