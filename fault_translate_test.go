package chopper

// TRA-fault runs on the translation. A run whose only fault model is TRA
// flips (FaultConfig with TRAFlipRate alone) takes the kernel's translation
// with its APs mapped (sim.TranslateTRAs): the injector draws every AP's
// flip before the run, and each lands on the value the AP's instruction
// computes. These tests hold that run to the interpreted run of the same
// program under the same injector (genericRunRows, equiv_test.go).

import (
	"fmt"
	"math/rand"
	"testing"

	"chopper/internal/fault"
	"chopper/internal/sim"
	"chopper/internal/transpose"
	"chopper/internal/workloads"
)

// randomRows is lanes lanes of random operands for k's inputs, in vertical
// layout, drawn from seed.
func randomRows(k *Kernel, lanes int, seed int64) map[string][][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make(map[string][][]uint64, len(k.Inputs))
	for _, in := range k.Inputs {
		limbs := (in.Width + 63) / 64
		vals := make([][]uint64, lanes)
		for l := range vals {
			v := make([]uint64, limbs)
			for i := range v {
				v[i] = rng.Uint64()
			}
			if r := in.Width % 64; r != 0 {
				v[limbs-1] &= uint64(1)<<uint(r) - 1
			}
			vals[l] = v
		}
		rows[in.Name] = transpose.ToVerticalWide(vals, in.Width, lanes)
	}
	return rows
}

// faultRunsAgree runs k under cfg and seed through RunRowsCtx and through
// the reference loop with a fresh injector, and reports the first
// difference in rows, fault counts, time or engine stats, with how many
// TRA flips the run drew.
func faultRunsAgree(k *Kernel, rows map[string][][]uint64, lanes int, cfg FaultConfig, seed int64) (flips int, diff string) {
	got, err := k.RunRowsCtx(nil, rows, lanes, cfg, seed)
	if err != nil {
		return 0, fmt.Sprintf("run: %v", err)
	}
	inj := fault.New(cfg, seed)
	want, err := genericRunRows(k, rows, lanes, inj, Budget{})
	if err != nil {
		return 0, fmt.Sprintf("reference: %v", err)
	}
	switch {
	case got.Faults != inj.Counts():
		return 0, fmt.Sprintf("fault counts %+v, reference %+v", got.Faults, inj.Counts())
	case got.TimeNs != want.TimeNs || got.Stats != want.Stats:
		return 0, fmt.Sprintf("time %v stats %+v, reference %v %+v", got.TimeNs, got.Stats, want.TimeNs, want.Stats)
	}
	for _, o := range k.Outputs {
		for b, row := range want.Rows[o.Name] {
			for w := range row {
				if g := got.Rows[o.Name][b][w]; g != row[w] {
					return 0, fmt.Sprintf("output %q bit %d word %d: %#x, reference %#x", o.Name, b, w, g, row[w])
				}
			}
		}
	}
	return got.Faults.TRAFlips, ""
}

// TestFaultRunsTranslatedMatchInterpreter: over the first Table-II
// configuration of each domain × the three targets × the four levels ×
// {plain, NarrowSafe, Harden}, a TRA-fault run is the interpreted run —
// rows, fault counts, time and stats — at lanes 1, 63, 65, 128 and 1,024
// and rates 1e-4 and 1e-2, and so is a single fault (rate 1, MaxFaults 1)
// aimed by FirstOp at a live AP and, where the translation folds one, a
// folded AP (and at a dead AP, but codegen emits none: the random corpus of
// internal/sim's TestTRAFlipsTranslatedMatchInterpreter has them). No such
// run decodes the kernel: each took the translation.
func TestFaultRunsTranslatedMatchInterpreter(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("the full matrix; TestFaultRunTranslatedSmoke covers -short and -race")
	}
	var runs, flips int
	fates := map[string]int{}
	for _, domain := range workloads.Domains {
		spec := workloads.Build(domain, workloads.Configs[domain][0])
		for _, target := range []Target{Ambit, ELP2IM, SIMDRAM} {
			for _, opt := range []OptLevel{OptBitslice, OptSchedule, OptReuse, OptFull} {
				for _, variant := range []string{"plain", "narrow", "harden"} {
					opts := Options{Target: target, Opt: opt, Harden: variant == "harden"}
					if variant == "narrow" {
						opts.Narrow = NarrowSafe
					}
					name := fmt.Sprintf("%s/%v/%v/%s", spec.Name, target, opt, variant)
					k, err := Compile(spec.Src, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					r, f := checkFaultRuns(t, name, k, fates)
					runs, flips = runs+r, flips+f
				}
			}
		}
	}
	t.Logf("%d TRA-fault runs, %d flips, agree with the interpreter; single faults aimed at %d live, %d dead and %d folded APs",
		runs, flips, fates["live"], fates["dead"], fates["folded"])
	if fates["live"] == 0 || fates["folded"] == 0 {
		t.Fatalf("the matrix aimed single faults at %v: it needs a live and a folded AP", fates)
	}
}

// TestFaultRunTranslatedSmoke is the matrix's first cell per domain, for
// -short and -race builds.
func TestFaultRunTranslatedSmoke(t *testing.T) {
	fates := map[string]int{}
	for _, domain := range workloads.Domains {
		spec := workloads.Build(domain, workloads.Configs[domain][0])
		k, err := Compile(spec.Src, Options{Target: SIMDRAM, Opt: OptBitslice})
		if err != nil {
			t.Fatal(err)
		}
		checkFaultRuns(t, spec.Name, k, fates)
	}
}

// checkFaultRuns is one cell of the matrix: it returns the runs made and
// the flips they drew, and counts in fates the APs it aimed single faults
// at.
func checkFaultRuns(t *testing.T, name string, k *Kernel, fates map[string]int) (runs, flips int) {
	t.Helper()
	check := func(lanes int, cfg FaultConfig, seed int64) {
		f, diff := faultRunsAgree(k, randomRows(k, lanes, seed), lanes, cfg, seed)
		if diff != "" {
			t.Fatalf("%s lanes %d %+v seed %d: %s", name, lanes, cfg, seed, diff)
		}
		runs, flips = runs+1, flips+f
	}
	for i, lanes := range []int{1, 63, 65, 128, 1024} {
		for j, rate := range []float64{1e-4, 1e-2} {
			check(lanes, FaultConfig{TRAFlipRate: rate}, int64(1+10*i+j))
		}
	}
	live, dead, folded := sim.APFates(k.prog)
	for _, aim := range []struct {
		fate string
		ops  []int
	}{{"live", live}, {"dead", dead}, {"folded", folded}} {
		if len(aim.ops) > 0 {
			fates[aim.fate]++
			// The middle one: past the first ctx checkpoint in a long program.
			check(65, FaultConfig{TRAFlipRate: 1, MaxFaults: 1, FirstOp: aim.ops[len(aim.ops)/2]}, 7)
		}
	}
	if k.decoded != nil {
		t.Fatalf("%s: a TRA-fault run decoded the kernel", name)
	}
	return runs, flips
}

// TestFaultCountsPinned pins the faults RunRowsUnderFault injects, summed
// over eight seeds, on four kernels at OptSchedule under five fault
// configurations, rates 5e-324 to 1. The figures are the float-compare
// draw's (x/2^53 < p), which the injector's integer threshold replaced:
// the draw it makes is exactly that one. Fault draws depend on the op
// stream and not on the data, so the inputs do not matter.
func TestFaultCountsPinned(t *testing.T) {
	const lanes = 128
	cfgs := []FaultConfig{
		{TRAFlipRate: 1e-4},
		{TRAFlipRate: 0.003, CopyFlipRate: 0.002},
		{RetentionRate: 0.3, RefreshOps: 40},
		{TRAFlipRate: 1, MaxFaults: 5},
		{TRAFlipRate: 5e-324, CopyFlipRate: 5e-324},
	}
	want := map[string][5]FaultCounts{
		"DenseNet-16": {{TRAFlips: 3}, {TRAFlips: 212, CopyFlips: 631}, {DecayFlips: 5879}, {TRAFlips: 40}, {}},
		"WTC-64":      {{TRAFlips: 22}, {TRAFlips: 560, CopyFlips: 1606}, {DecayFlips: 39420}, {TRAFlips: 40}, {}},
		"DiffGen-64":  {{TRAFlips: 1}, {TRAFlips: 48, CopyFlips: 108}, {DecayFlips: 1673}, {TRAFlips: 40}, {}},
		"SW-64":       {{TRAFlips: 3}, {TRAFlips: 62, CopyFlips: 136}, {DecayFlips: 1280}, {TRAFlips: 40}, {}},
	}
	for name, counts := range want {
		spec, _ := workloads.Get(name)
		k, err := Compile(spec.Src, Options{Target: Ambit, Opt: OptSchedule})
		if err != nil {
			t.Fatal(err)
		}
		rows := randomRows(k, lanes, 1)
		for i, cfg := range cfgs {
			var got FaultCounts
			for seed := range int64(8) {
				res, err := k.RunRowsUnderFault(rows, lanes, cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				got.TRAFlips += res.Faults.TRAFlips
				got.CopyFlips += res.Faults.CopyFlips
				got.DecayFlips += res.Faults.DecayFlips
			}
			if got != counts[i] {
				t.Errorf("%s under %+v: injected %+v, want %+v", name, cfg, got, counts[i])
			}
		}
	}
}
