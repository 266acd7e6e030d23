package chopper

// Clean runs take the translated executor (sim.Translate,
// Machine.RunTranslatedCtx) whenever nothing watches the rows, runs whose
// only fault model is TRA flips its AP-mapped twin (sim.TranslateTRAs), and
// the interpreter otherwise. internal/prove's TestProveTable holds every
// CHOPPER product program's translated runs to its proved net, and
// TestBaselineGoldenPrograms every baseline program's to the interpreter.

import (
	"runtime"
	"testing"
	"unsafe"

	"chopper/internal/isa"
	"chopper/internal/sim"
)

// TestCleanKernelNeverDecodes: a kernel that only runs clean — plain runs,
// verify trials — keeps its program and its translation and nothing more,
// and one that then runs TRA-faulted adds the AP-mapped translation and
// still never decodes. It logs what each costs per op on DenseNet-128
// (heap bytes retained by one build of each, measured before the kernel
// runs), the interpreter's whole-stream proof (sim.Decode) included.
func TestCleanKernelNeverDecodes(t *testing.T) {
	const lanes = 128
	k := compileWorkload(t, "DenseNet-128", Options{Target: Ambit})
	ops := float64(len(k.prog.Ops))
	perOp := func(build func() any) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		v := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(v)
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / ops
	}
	t.Logf("DenseNet-128, %.0f ops: isa.Op %d B/op, translation %.1f B/op, AP-mapped translation %.1f B/op more, whole-stream proof %.1f B/op",
		ops, unsafe.Sizeof(isa.Op{}), perOp(func() any { tr, _ := sim.Translate(k.prog); return tr }),
		perOp(func() any { return sim.TranslateTRAs(k.prog, k.translatedProg()) }), perOp(func() any { return sim.Decode(k.prog) }))
	if _, err := k.RunWide(wideInputs(k, lanes), lanes); err != nil {
		t.Fatal(err)
	}
	if err := k.Verify(4, 1); err != nil {
		t.Fatal(err)
	}
	if k.decoded != nil || k.translated == nil || k.flipped != nil {
		t.Fatal("a kernel that only ran clean decoded its program, did not translate it, or mapped its APs")
	}
	rows := randomRows(k, lanes, 1)
	for _, fc := range []FaultConfig{{TRAFlipRate: 1e-3}, {TRAFlipRate: 1, MaxFaults: 1, FirstOp: len(k.prog.Ops) / 2}} {
		if res, err := k.RunRowsCtx(nil, rows, lanes, fc, 1); err != nil || res.Faults.TRAFlips == 0 {
			t.Fatalf("%+v: %v, faults %+v", fc, err, res.Faults)
		}
	}
	if k.decoded != nil || k.flipped == nil {
		t.Fatal("a kernel that ran clean and TRA-faulted decoded its program, or did not map its APs")
	}
}

// TestDecodeAllocGate: decoding a program builds its whole-stream proof
// and nothing per op, so sim.Decode of Ambit OptFull DenseNet-128 (half a
// million ops) allocates under 16 KiB: the Decoded and a definition bitmap
// over the rows the program names. A second µop record per op would be
// tens of megabytes.
func TestDecodeAllocGate(t *testing.T) {
	k := compileWorkload(t, "DenseNet-128", Options{Target: Ambit})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := sim.Decode(k.prog)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("sim.Decode of %d ops allocates %d B", d.Len(), n)
	if n >= 16<<10 {
		t.Fatalf("sim.Decode of %d ops allocates %d B, want < 16 KiB", d.Len(), n)
	}
}

// TestFaultRunAllocGate: a warm TRA-fault RunRowsCtx allocates no more than
// a warm clean RunRows of the same kernel, in count and in bytes: the
// flips' scratch is the pooled machine's. Not under the race detector,
// whose runtime drops sync.Pool puts at random.
func TestFaultRunAllocGate(t *testing.T) {
	if raceDetector {
		t.Skip("the race runtime drops sync.Pool puts at random, so warm runs rebuild the pooled worker")
	}
	const lanes = 128
	k := compileWorkload(t, "WTC-64", Options{Target: Ambit})
	rows := randomRows(k, lanes, 1)
	measure := func(fc FaultConfig) (allocs, bytes uint64) {
		run := func() {
			if _, err := k.RunRowsCtx(nil, rows, lanes, fc, 1); err != nil {
				t.Fatal(err)
			}
		}
		run()
		runtime.GC() // the pooled worker survives one collection; warm it again
		run()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	cleanN, cleanB := measure(FaultConfig{})
	faultN, faultB := measure(FaultConfig{TRAFlipRate: 1e-2})
	t.Logf("warm WTC-64 RunRowsCtx at %d lanes: clean %d allocs %d B, TRA-fault %d allocs %d B", lanes, cleanN, cleanB, faultN, faultB)
	if faultN > cleanN || faultB > cleanB {
		t.Errorf("a warm TRA-fault run allocates %d times, %d B; a warm clean run %d times, %d B", faultN, faultB, cleanN, cleanB)
	}
	if k.decoded != nil {
		t.Error("a TRA-fault run decoded the kernel")
	}
}
