package chopper_test

// The golden-equivalence suite for the dense-index middle-end rewrite:
// every program the rewritten compiler emits must be byte-for-byte
// identical to what the frozen pre-change snapshot (internal/seedcompile)
// emits for the same graph, across targets, optimization levels,
// hardening, budget truncation, and the degradation ladder. The fast path
// is allowed to change how the answer is computed, never the answer.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"chopper"
	"chopper/internal/obs"
	"chopper/internal/seedcompile"
	seedobs "chopper/internal/seedcompile/obs"
	"chopper/internal/workloads"
)

// goldenWorkloads is the compared set: a Table II subset, one workload per
// paper domain.
var goldenWorkloads = []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"}

var goldenTargets = []chopper.Target{chopper.Ambit, chopper.ELP2IM, chopper.SIMDRAM}

var goldenOpts = []chopper.OptLevel{chopper.OptBitslice, chopper.OptSchedule, chopper.OptReuse, chopper.OptFull}

// seedCompile runs the frozen pipeline on the kernel's own graph with the
// kernel's effective configuration, at the given optimization level.
func seedCompile(k *chopper.Kernel, opt chopper.OptLevel) (*seedcompile.Result, error) {
	return seedcompile.Compile(k.Graph, seedcompile.Options{
		Arch:        k.Opts.Target,
		Opt:         seedobs.Variant(int(opt)),
		DRows:       k.Opts.Geometry.DRows(),
		Harden:      k.Opts.Harden,
		MaxNetGates: k.Opts.Budget.MaxNetGates,
		MaxMicroOps: k.Opts.Budget.MaxMicroOps,
	})
}

// assertGolden fails unless the kernel and the seed result are identical:
// same program bytes, same row/slot accounting, same host ABI tags, and
// the same legalized net underneath.
func assertGolden(t *testing.T, k *chopper.Kernel, seed *seedcompile.Result) {
	t.Helper()
	got, want := k.Prog(), seed.Code.Prog
	if g, w := got.Format(), want.Format(); g != w {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("program text diverges from seed at byte %d (len %d vs %d):\n fast: %.80q\n seed: %.80q",
			i, len(g), len(w), g[max(0, i-40):], w[max(0, i-40):])
	}
	if got.DRowsUsed != want.DRowsUsed || got.SpillSlots != want.SpillSlots {
		t.Fatalf("row/slot accounting diverges: DRowsUsed %d/%d, SpillSlots %d/%d",
			got.DRowsUsed, want.DRowsUsed, got.SpillSlots, want.SpillSlots)
	}
	if !reflect.DeepEqual(k.Code.InputTag, seed.Code.InputTag) {
		t.Fatalf("InputTag diverges:\n fast: %v\n seed: %v", k.Code.InputTag, seed.Code.InputTag)
	}
	if !reflect.DeepEqual(k.Code.OutputTag, seed.Code.OutputTag) {
		t.Fatalf("OutputTag diverges:\n fast: %v\n seed: %v", k.Code.OutputTag, seed.Code.OutputTag)
	}
	if len(k.Code.ConstPattern) != 0 || len(seed.Code.ConstPattern) != 0 {
		if !reflect.DeepEqual(k.Code.ConstPattern, seed.Code.ConstPattern) {
			t.Fatalf("ConstPattern diverges:\n fast: %v\n seed: %v", k.Code.ConstPattern, seed.Code.ConstPattern)
		}
	}
	if g, w := fmt.Sprint(k.Net.Gates), fmt.Sprint(seed.Net.Gates); g != w {
		t.Fatalf("legalized net diverges: %d vs %d gates", len(k.Net.Gates), len(seed.Net.Gates))
	}
	if g, w := fmt.Sprint(k.Net.Inputs, k.Net.InputNames, k.Net.Outputs, k.Net.OutputNames),
		fmt.Sprint(seed.Net.Inputs, seed.Net.InputNames, seed.Net.Outputs, seed.Net.OutputNames); g != w {
		t.Fatalf("legalized net interface diverges:\n fast: %s\n seed: %s", g, w)
	}
}

// TestGoldenSeedEquivalence compares the emitted program on every
// workload × target × optimization level of the paper's breakdown ladder.
func TestGoldenSeedEquivalence(t *testing.T) {
	for _, wl := range goldenWorkloads {
		spec, ok := workloads.Get(wl)
		if !ok {
			t.Fatalf("unknown workload %q", wl)
		}
		for _, arch := range goldenTargets {
			for _, opt := range goldenOpts {
				t.Run(fmt.Sprintf("%s/%s/%s", wl, arch, opt), func(t *testing.T) {
					k, err := chopper.Compile(spec.Src, chopper.Options{Target: arch}.WithOpt(opt))
					if err != nil {
						t.Fatal(err)
					}
					seed, err := seedCompile(k, opt)
					if err != nil {
						t.Fatal(err)
					}
					assertGolden(t, k, seed)
				})
			}
		}
	}
}

// TestGoldenSeedEquivalenceHarden repeats the comparison with TMR
// hardening on, at both ends of the opt ladder.
func TestGoldenSeedEquivalenceHarden(t *testing.T) {
	for _, wl := range []string{"DiffGen-64", "SW-64"} {
		spec, _ := workloads.Get(wl)
		for _, arch := range goldenTargets {
			for _, opt := range []chopper.OptLevel{chopper.OptBitslice, chopper.OptFull} {
				t.Run(fmt.Sprintf("%s/%s/%s", wl, arch, opt), func(t *testing.T) {
					k, err := chopper.Compile(spec.Src, chopper.Options{Target: arch, Harden: true}.WithOpt(opt))
					if err != nil {
						t.Fatal(err)
					}
					seed, err := seedCompile(k, opt)
					if err != nil {
						t.Fatal(err)
					}
					assertGolden(t, k, seed)
				})
			}
		}
	}
}

// TestGoldenSeedBudgets compares budget-truncated compiles: both sides
// must trip the same guard dimension at the same count.
func TestGoldenSeedBudgets(t *testing.T) {
	spec, _ := workloads.Get("SW-64")
	cases := []struct {
		name   string
		budget chopper.Budget
	}{
		{"micro-ops", chopper.Budget{MaxMicroOps: 100}},
		{"net-gates", chopper.Budget{MaxNetGates: 100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := chopper.Compile(spec.Src, chopper.Options{Target: chopper.Ambit, Budget: tc.budget})
			var fastBE *chopper.BudgetError
			if !errors.As(err, &fastBE) {
				t.Fatalf("fast compile: want *BudgetError, got %v", err)
			}
			// Build the graph once without a budget to feed the seed side.
			full, err := chopper.Compile(spec.Src, chopper.Options{Target: chopper.Ambit})
			if err != nil {
				t.Fatal(err)
			}
			_, err = seedcompile.Compile(full.Graph, seedcompile.Options{
				Arch:        chopper.Ambit,
				Opt:         seedobs.Rename,
				DRows:       full.Opts.Geometry.DRows(),
				MaxNetGates: tc.budget.MaxNetGates,
				MaxMicroOps: tc.budget.MaxMicroOps,
			})
			var seedBE *chopper.BudgetError
			if !errors.As(err, &seedBE) {
				t.Fatalf("seed compile: want *BudgetError, got %v", err)
			}
			if fastBE.Dimension != seedBE.Dimension || fastBE.Limit != seedBE.Limit || fastBE.Count != seedBE.Count {
				t.Fatalf("budget errors diverge:\n fast: %v\n seed: %v", fastBE, seedBE)
			}
		})
	}
}

// TestGoldenSeedDegradation forces the scheduled OBS passes to panic so
// the ladder lands on OptBitslice, and checks the degraded program equals
// the seed pipeline run directly at bitslice level.
func TestGoldenSeedDegradation(t *testing.T) {
	obs.TestPanicHook = func(pressureAware bool) {
		if pressureAware {
			panic("obs: forced test panic")
		}
	}
	defer func() { obs.TestPanicHook = nil }()

	spec, _ := workloads.Get("DiffGen-64")
	for _, arch := range goldenTargets {
		t.Run(arch.String(), func(t *testing.T) {
			k, err := chopper.Compile(spec.Src, chopper.Options{Target: arch})
			if err != nil {
				t.Fatal(err)
			}
			if k.Degradation == nil || k.Degradation.Effective != chopper.OptBitslice {
				t.Fatalf("expected degradation to OptBitslice, got %+v", k.Degradation)
			}
			seed, err := seedCompile(k, chopper.OptBitslice)
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, k, seed)
		})
	}
}
