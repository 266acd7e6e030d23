package chopper

// Clean runs take the translated executor (sim.Translate,
// Machine.RunTranslatedCtx) whenever nothing watches the rows, and the
// interpreter otherwise. A program Translate rejected would fall back to
// the interpreter without a word, so the product programs are held to
// being accepted, and each translated run to the interpreter's outputs.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/isa"
	"chopper/internal/pool"
	"chopper/internal/sim"
	"chopper/internal/workloads"
)

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// productKernel is one product compile configuration.
type productKernel struct {
	name    string
	compile func() (*Kernel, error)
}

// productKernels is every Table-II kernel × 3 targets × 4 optimization
// levels × {plain, NarrowSafe, Harden} and its CompileBaseline, the
// horizontal sources, and three kernels on a 40-row subarray, whose
// programs spill. short keeps the first configuration of each domain.
func productKernels(short bool) []productKernel {
	var out []productKernel
	add := func(name, src string, opts Options, compile func(string, Options) (*Kernel, error)) {
		out = append(out, productKernel{name, func() (*Kernel, error) { return compile(src, opts) }})
	}
	targets := []Target{Ambit, ELP2IM, SIMDRAM}
	for _, spec := range workloads.All() {
		if short && spec.Config != workloads.Configs[spec.Domain][0] {
			continue
		}
		for _, target := range targets {
			for _, opt := range []OptLevel{OptBitslice, OptSchedule, OptReuse, OptFull} {
				base := Options{Target: target}.WithOpt(opt)
				narrow, hard := base, base
				narrow.Narrow, hard.Harden = NarrowSafe, true
				name := fmt.Sprintf("%s/%v/%v", spec.Name, target, opt)
				add(name, spec.Src, base, Compile)
				add(name+"/narrow", spec.Src, narrow, Compile)
				add(name+"/harden", spec.Src, hard, Compile)
			}
			add(fmt.Sprintf("%s/%v/baseline", spec.Name, target), spec.Src, Options{Target: target}, CompileBaseline)
		}
	}
	for i, src := range []string{
		"node main(a: u8, b: u8, m: u8) returns (z: u8) let z = (a & m) ^ (b | ~m); tel",
		"node main(a: u32, b: u32) returns (z: u32) let z = a & b; tel",
	} {
		for _, target := range targets {
			add(fmt.Sprintf("horizontal-%d/%v", i, target), src, Options{Target: target}, CompileHorizontal)
		}
	}
	small := dram.DefaultGeometry().WithRowsPerSub(40)
	for _, wl := range []string{"DenseNet-16", "WTC-64", "SW-64"} {
		spec, _ := workloads.Get(wl)
		add(wl+"/40-rows", spec.Src, Options{Geometry: small}, Compile)
	}
	return out
}

// TestTranslateAcceptsProductPrograms: sim.Translate accepts the program of
// every product configuration, a clean run of it takes the translation,
// and that run's outputs are the interpreter's at lanes either side of a
// word and at 1,024. The configurations run on two workers, so that at
// most two of the largest programs (5M micro-ops) are in memory at once.
func TestTranslateAcceptsProductPrograms(t *testing.T) {
	kernels := productKernels(testing.Short() || raceDetector)
	msgs, spills := make([]string, len(kernels)), make([]bool, len(kernels))
	pool.Run(min(2, pool.Size(0)), len(kernels), func(i int) error {
		msgs[i], spills[i] = checkProductKernel(kernels[i])
		return nil
	})
	for i, msg := range msgs {
		if msg != "" {
			t.Errorf("%s: %s", kernels[i].name, msg)
		}
	}
	if !slices.Contains(spills, true) {
		t.Error("no product program spills; the SPILL renames went untested")
	}
}

// checkProductKernel compiles pk and holds its translation to the
// interpreter; it returns what went wrong ("" if nothing) and whether the
// program spills.
func checkProductKernel(pk productKernel) (string, bool) {
	k, err := pk.compile()
	if err != nil {
		return err.Error(), false
	}
	spills := slices.ContainsFunc(k.prog.Ops, func(op isa.Op) bool { return op.Kind == isa.OpSpillIn })
	if k.translatedProg() == nil {
		return fmt.Sprintf("sim.Translate rejects the %d-op program", len(k.prog.Ops)), spills
	}
	if err := cleanRunsAgree(k, []int{1, 63, 65, 128, 1024}); err != nil {
		return err.Error(), spills
	}
	return "", spills
}

// cleanRunsAgree runs k's program over random inputs at the largest of
// laneCounts on the interpreter, and translated at each of laneCounts
// over the first lanes of the same inputs, and compares the rows each
// translated run's READs delivered with the interpreted run's on the same
// lanes. (Lanes never mix: every row operation is bitwise.)
func cleanRunsAgree(k *Kernel, laneCounts []int) error {
	p, err := k.tilePlan()
	if err != nil {
		return err
	}
	var ref, got hostRows
	wide := slices.Max(laneCounts)
	inRef, outRef := ref.bind(p, wide)
	rng := rand.New(rand.NewSource(int64(len(k.prog.Ops))))
	for _, row := range inRef {
		for w := range row {
			row[w] = rng.Uint64()
		}
		row[len(row)-1] &= laneMaskFor(wide)
	}
	cfg := sim.MachineConfig{Geom: k.Opts.Geometry, Arch: k.Opts.Target, Lanes: wide}
	m := sim.NewMachine(cfg)
	if err := m.RunFunctionalCtx(nil, sim.Decode(k.prog), ref.hostIO(), guard.Budget{}); err != nil {
		return fmt.Errorf("interpreted: %w", err)
	}
	t := k.translatedProg()
	for _, lanes := range laneCounts {
		inGot, outGot := got.bind(p, lanes)
		for r, row := range inGot {
			copy(row, inRef[r])
			row[len(row)-1] &= laneMaskFor(lanes)
		}
		cfg.Lanes = lanes
		m.Reconfigure(cfg)
		if !m.Translatable(t, k.Opts.Budget) {
			return fmt.Errorf("lanes %d: a clean run under budget %+v does not take the translation", lanes, k.Opts.Budget)
		}
		if err := m.RunTranslatedCtx(nil, t, got.hostIO()); err != nil {
			return fmt.Errorf("lanes %d: translated: %w", lanes, err)
		}
		for r, row := range outGot {
			for w, v := range row {
				want := outRef[r][w]
				if w == len(row)-1 {
					want &= laneMaskFor(lanes)
				}
				if v != want {
					return fmt.Errorf("lanes %d: output row %d word %d: translated %#x, interpreted %#x", lanes, r, w, v, want)
				}
			}
		}
	}
	return nil
}

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
