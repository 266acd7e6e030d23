package chopper

// Clean runs take the translated executor (sim.Translate,
// Machine.RunTranslatedCtx) whenever nothing watches the rows, and the
// interpreter otherwise. internal/prove's TestProveTable holds every
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
// verify trials — keeps its program and its translation, and never builds
// the decoded stream. It logs what each costs per op on DenseNet-128 (heap
// bytes retained by one build of each, measured before the kernel runs).
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
	t.Logf("DenseNet-128, %.0f ops: isa.Op %d B/op, translation %.1f B/op, decoded stream %.1f B/op",
		ops, unsafe.Sizeof(isa.Op{}), perOp(func() any { return sim.Translate(k.prog) }), perOp(func() any { return sim.Decode(k.prog) }))
	if _, err := k.RunWide(wideInputs(k, lanes), lanes); err != nil {
		t.Fatal(err)
	}
	if err := k.Verify(4, 1); err != nil {
		t.Fatal(err)
	}
	if k.decoded != nil || k.translated == nil {
		t.Fatal("a kernel that only ran clean decoded its program, or did not translate it")
	}
}
