package chopper

import (
	"reflect"
	"runtime"
	"testing"
)

// The determinism contract of the parallel execution layer: every verify /
// reliability entry point must produce byte-identical results at any
// worker count, because each trial derives its randomness from (seed,
// trial) alone and the pool reports the lowest failing index. CI runs
// these under `-cpu 1,4` and `-race`.

const detSrc = `
node main(a: u8, b: u8) returns (s: u8)
  let s = a + b;
tel`

func detWorkerCounts() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}
}

func TestDeterminismVerifyAcrossWorkers(t *testing.T) {
	k, err := Compile(detSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range detWorkerCounts() {
		if err := k.VerifyCtx(nil, 10, 33, w); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
	}
}

func TestDeterminismVerifyUnderFaultAcrossWorkers(t *testing.T) {
	// A guaranteed single TRA fault corrupts the unhardened adder; the
	// reported failure (lowest failing trial, exact message) must not
	// depend on the worker count.
	k, err := Compile(detSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := FaultConfig{TRAFlipRate: 1, MaxFaults: 1}
	ref := k.VerifyUnderFaultCtx(nil, 8, 17, cfg, 1)
	if ref == nil {
		t.Fatal("unhardened kernel survived guaranteed faults (test is vacuous)")
	}
	for _, w := range detWorkerCounts() {
		for rep := 0; rep < 3; rep++ {
			err := k.VerifyUnderFaultCtx(nil, 8, 17, cfg, w)
			if err == nil || err.Error() != ref.Error() {
				t.Fatalf("workers=%d rep=%d: error %q, want %q", w, rep, err, ref)
			}
		}
	}

	// The hardened build survives at every worker count.
	hard, err := Compile(detSrc, Options{Harden: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range detWorkerCounts() {
		if err := hard.VerifyUnderFaultCtx(nil, 8, 17, cfg, w); err != nil {
			t.Errorf("hardened, workers=%d: %v", w, err)
		}
	}
}

func TestDeterminismReliabilityAcrossWorkers(t *testing.T) {
	k, err := Compile(detSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []FaultConfig{
		{},
		{TRAFlipRate: 0.3},
		{TRAFlipRate: 1, MaxFaults: 1},
	}
	ref, err := k.ReliabilityCtx(nil, 6, 41, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range detWorkerCounts() {
		rep, err := k.ReliabilityCtx(nil, 6, 41, cfgs, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(ref, rep) {
			t.Errorf("workers=%d: report diverged from 1-worker reference:\n1: %+v\n%d: %+v", w, ref, w, rep)
		}
	}
}

func TestDeterminismRunTiled(t *testing.T) {
	// Tiles execute in parallel; gathered outputs must match a repeat run
	// and the per-lane RunWide reference.
	k, err := Compile(detSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lanes := k.Opts.Geometry.Bitlines() + 100 // 2 tiles, second partial
	in := map[string][][]uint64{"a": make([][]uint64, lanes), "b": make([][]uint64, lanes)}
	for l := 0; l < lanes; l++ {
		in["a"][l] = []uint64{uint64(l*7) % 256}
		in["b"][l] = []uint64{uint64(l*13) % 256}
	}
	r1, err := k.RunTiled(in, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Tiles != 2 {
		t.Fatalf("expected 2 tiles, got %d", r1.Tiles)
	}
	r2, err := k.RunTiled(in, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Outputs, r2.Outputs) {
		t.Fatal("repeat RunTiled diverged")
	}
	if r1.TimeNs != r2.TimeNs || r1.Stats != r2.Stats {
		t.Fatal("repeat RunTiled timing diverged")
	}
	for l := 0; l < lanes; l++ {
		want := (in["a"][l][0] + in["b"][l][0]) % 256
		if got := r1.Outputs["s"][l][0]; got != want {
			t.Fatalf("lane %d: s=%d want %d", l, got, want)
		}
	}
}
