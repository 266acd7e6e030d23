package chopper_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each benchmark regenerates its experiment on a representative workload
// subset (the full 16-workload sweep is `chopperbench -exp all`) and
// reports the paper's headline quantity as a custom metric:
//
//	BenchmarkFig9   — CHOPPER vs hands-tuned speedup (fit + spill regimes)
//	BenchmarkFig10  — full-vs-bitslice breakdown speedup
//	BenchmarkFig11  — subarray-size robustness
//	BenchmarkFig12  — VIRCOE awareness x SALP
//	BenchmarkTable3 — lines-of-code reduction
//
// Compilation-pipeline micro-benchmarks follow (compile throughput for
// each stage), since compiler speed is itself a deliverable.

import (
	"chopper"
	"math/rand"
	"testing"

	"chopper/internal/bench"
	"chopper/internal/bitslice"
	"chopper/internal/dfg"
	"chopper/internal/dsl"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/obs"
	"chopper/internal/transpose"
	"chopper/internal/typecheck"
	"chopper/internal/workloads"
)

// benchSel returns the workload subset for benchmarks: one fit-regime and
// one spill-regime configuration per domain under -short, quick set
// otherwise.
func benchSel(b *testing.B) bench.Selection {
	if testing.Short() {
		return bench.QuickWorkloads()
	}
	var sel bench.Selection
	for _, d := range workloads.Domains {
		sel = append(sel, workloads.Build(d, workloads.Configs[d][0]))
		sel = append(sel, workloads.Build(d, workloads.Configs[d][3]))
	}
	return sel
}

func BenchmarkFig9(b *testing.B) {
	sel := benchSel(b)
	h := bench.NewHarness()
	var fitGeo, spillGeo float64
	for i := 0; i < b.N; i++ {
		t, err := h.Fig9Speedups(sel)
		if err != nil {
			b.Fatal(err)
		}
		// Split the geometric means by regime.
		fit := &bench.Table{}
		spill := &bench.Table{}
		for _, r := range t.Rows {
			spec, _ := workloads.Get(r.Workload)
			s, err := h.SpillsInBaseline(spec, isa.Ambit)
			if err != nil {
				b.Fatal(err)
			}
			if s {
				spill.Rows = append(spill.Rows, bench.Row{Workload: r.Workload, Series: "x", Value: r.Value})
			} else {
				fit.Rows = append(fit.Rows, bench.Row{Workload: r.Workload, Series: "x", Value: r.Value})
			}
		}
		fitGeo = fit.GeoMean("x")
		spillGeo = spill.GeoMean("x")
	}
	b.ReportMetric(fitGeo, "fit-speedup")
	b.ReportMetric(spillGeo, "spill-speedup")
}

func BenchmarkFig10(b *testing.B) {
	sel := benchSel(b)
	h := bench.NewHarness()
	var gain float64
	for i := 0; i < b.N; i++ {
		t, err := h.Fig10(sel)
		if err != nil {
			b.Fatal(err)
		}
		gain = t.GeoMean("rename") / t.GeoMean("bitslice")
	}
	b.ReportMetric(gain, "full-vs-bitslice")
}

func BenchmarkFig11(b *testing.B) {
	sel := benchSel(b)
	h := bench.NewHarness()
	var worst float64
	for i := 0; i < b.N; i++ {
		t, err := h.Fig11(sel)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, rows := range []string{"512", "1024", "2048"} {
			g := t.GeoMean("CHOPPER-"+rows) / t.GeoMean("hand-"+rows)
			if worst == 0 || g < worst {
				worst = g
			}
		}
	}
	b.ReportMetric(worst, "min-speedup-across-sizes")
}

func BenchmarkFig12(b *testing.B) {
	sel := benchSel(b)
	h := bench.NewHarness()
	var amplify float64
	for i := 0; i < b.N; i++ {
		t, err := h.Fig12(sel)
		if err != nil {
			b.Fatal(err)
		}
		amplify = t.GeoMean("rename/sub/SALP") / t.GeoMean("rename/bank/noSALP")
	}
	b.ReportMetric(amplify, "salp-amplification")
}

func BenchmarkTable3(b *testing.B) {
	h := bench.NewHarness()
	var reduction float64
	for i := 0; i < b.N; i++ {
		t, err := h.Table3()
		if err != nil {
			b.Fatal(err)
		}
		reduction = t.GeoMean("hand-single") / t.GeoMean("CHOPPER")
	}
	b.ReportMetric(reduction, "loc-reduction")
}

// --- compiler-stage micro-benchmarks ---

const benchKernel = `
node main(a: u16, b: u16, pred: u16) returns (z: u16)
vars s: u16, d: u16, f: u1;
let
  s = a + b;
  d = absdiff(a, b);
  f = a > pred;
  z = f ? s : d;
tel`

func BenchmarkCompileFrontend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, err := dsl.Parse(benchKernel)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := typecheck.Check(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileBitslice(b *testing.B) {
	prog, _ := dsl.Parse(benchKernel)
	ch, _ := typecheck.Check(prog)
	g, err := dfg.BuildNode(ch, ch.Prog.Entry().Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bitslice.Lower(g, bitslice.Options{Fold: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileFull(b *testing.B) {
	for _, arch := range isa.AllArchs {
		b.Run(arch.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chopper.Compile(benchKernel, chopper.Options{Target: arch}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompileWorkload(b *testing.B) {
	spec := workloads.Build("SW", 128)
	for i := 0; i < b.N; i++ {
		if _, err := chopper.Compile(spec.Src, chopper.Options{Target: chopper.Ambit}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileCold48 is one cycle of the repo benchmark's compile_cold
// workload per iteration: the 16 Table-II kernels on all three targets,
// from source, OptFull, no kernel cache. Profile it with -cpuprofile to
// see where a cold compile's host time goes.
func BenchmarkCompileCold48(b *testing.B) {
	specs := workloads.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			for _, arch := range isa.AllArchs {
				if _, _, err := chopper.CompileCtxCached(nil, s.Src, chopper.Options{Target: arch}); err != nil {
					b.Fatalf("%s/%v: %v", s.Name, arch, err)
				}
			}
		}
	}
}

// BenchmarkCompileBaseline4 is the hands-tuned compile of the four paper
// kernels on Ambit per iteration, one CompileBaseline each: the baseline
// item of the repo benchmark's compile_variants cycle. Profile it with
// -cpuprofile to see where a baseline compile's host time goes.
func BenchmarkCompileBaseline4(b *testing.B) {
	var srcs []string
	for _, name := range []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"} {
		spec, _ := workloads.Get(name)
		srcs = append(srcs, spec.Src)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := chopper.CompileBaseline(src, chopper.Options{Target: chopper.Ambit}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkVerify4 is one verify cycle of the repo benchmark's run_paths
// workload per iteration: its four kernels, Verify(4, seed) each. Profile it
// with -cpuprofile to see how a verification's host time splits between the
// device passes and the reference they are checked against.
func BenchmarkVerify4(b *testing.B) {
	var ks []*chopper.Kernel
	for _, name := range []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"} {
		spec, _ := workloads.Get(name)
		k, err := chopper.Compile(spec.Src, chopper.Options{Target: chopper.Ambit})
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		ks = append(ks, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			if err := k.Verify(4, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunPaths20 is the repo benchmark's run_paths workload: its four
// kernels on Ambit at 128 lanes, each through RunWide, RunRowsUnderFault, a
// parity-recovered RunRows, a RunBatch of 16 members of 8 lanes and
// Verify(4) — 20 operations, the compiler none of them. Sub-benchmark "all"
// is one whole cycle per iteration; "wide", "fault", "recovered", "batch"
// and "verify" run one verb on the four kernels per iteration. Profile it
// with -cpuprofile to see where a run's host time goes.
func BenchmarkRunPaths20(b *testing.B) {
	const lanes, members = 128, 16
	type runKernel struct {
		k, kr *chopper.Kernel
		in    map[string][][]uint64
		rows  map[string][][]uint64
		batch []chopper.BatchRun
	}
	rng := rand.New(rand.NewSource(1))
	var ks []runKernel
	for _, name := range []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"} {
		spec, _ := workloads.Get(name)
		k, err := chopper.Compile(spec.Src, chopper.Options{Target: chopper.Ambit})
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		kr, err := chopper.Compile(spec.Src, chopper.Options{Target: chopper.Ambit, Recovery: chopper.Recovery{Detector: chopper.DetectorParity}})
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		rk := runKernel{k: k, kr: kr, in: map[string][][]uint64{}, rows: map[string][][]uint64{}, batch: make([]chopper.BatchRun, members)}
		for m := range rk.batch {
			rk.batch[m] = chopper.BatchRun{Inputs: map[string][]uint64{}, Lanes: lanes / members}
		}
		for _, in := range k.Inputs {
			vals := make([][]uint64, lanes)
			for l := range vals {
				vals[l] = make([]uint64, (in.Width+63)/64)
				for w := range vals[l] {
					vals[l][w] = rng.Uint64()
				}
				if r := in.Width % 64; r != 0 {
					vals[l][len(vals[l])-1] &= 1<<r - 1
				}
				m := l / (lanes / members)
				rk.batch[m].Inputs[in.Name] = append(rk.batch[m].Inputs[in.Name], vals[l][0])
			}
			rk.in[in.Name] = vals
			rk.rows[in.Name] = transpose.ToVerticalWide(vals, in.Width, lanes)
		}
		ks = append(ks, rk)
	}
	fault := chopper.FaultConfig{TRAFlipRate: 1e-4}
	verbs := []struct {
		name string
		run  func(j int, rk runKernel) error
	}{
		{"wide", func(_ int, rk runKernel) error { _, err := rk.k.RunWide(rk.in, lanes); return err }},
		{"fault", func(j int, rk runKernel) error {
			_, err := rk.k.RunRowsUnderFault(rk.rows, lanes, fault, int64(j))
			return err
		}},
		{"recovered", func(_ int, rk runKernel) error { _, err := rk.kr.RunRows(rk.rows, lanes); return err }},
		{"batch", func(_ int, rk runKernel) error { _, _, err := rk.k.RunBatch(rk.batch); return err }},
		{"verify", func(j int, rk runKernel) error { return rk.k.Verify(4, int64(j)) }},
	}
	bench := func(verbs ...func(int, runKernel) error) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, rk := range ks {
					for _, run := range verbs {
						if err := run(j, rk); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	}
	all := make([]func(int, runKernel) error, len(verbs))
	for i, v := range verbs {
		all[i] = v.run
	}
	b.Run("all", bench(all...))
	for _, v := range verbs {
		b.Run(v.name, bench(v.run))
	}
}

func BenchmarkScheduleGates(b *testing.B) {
	prog, _ := dsl.Parse(benchKernel)
	ch, _ := typecheck.Check(prog)
	g, _ := dfg.BuildNode(ch, ch.Prog.Entry().Name)
	net, _ := bitslice.Lower(g, bitslice.Options{Fold: true})
	leg, _ := logic.Legalize(net, isa.Ambit, logic.BuilderOptions{Fold: true})
	leg = leg.DCE()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.ScheduleGates(leg, true)
	}
}

// --- parallel engine benchmarks ---
//
// The speedup claims of the parallel execution layer: verify/sweep trials
// fan out across the worker pool (compare workers=1 against workers=N at
// 4+ cores for the >=2x wall-clock win; results are byte-identical either
// way), and a warm kernel cache turns repeat compiles into map lookups.

func BenchmarkVerifyUnderFaultWorkers(b *testing.B) {
	k, err := chopper.Compile(benchKernel, chopper.Options{Target: chopper.Ambit, Harden: true})
	if err != nil {
		b.Fatal(err)
	}
	cfg := chopper.FaultConfig{TRAFlipRate: 1, MaxFaults: 1}
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
		name := "max"
		if workers == 1 {
			name = "1"
		}
		b.Run("workers="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := k.VerifyCtx(nil, 32, 7, workers, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReliabilitySweepWorkers(b *testing.B) {
	rates := []float64{0, 0.25, 0.5, 0.75, 1}
	for _, workers := range []int{1, 0} {
		name := "max"
		if workers == 1 {
			name = "1"
		}
		b.Run("workers="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bench.ReliabilitySweepCtx(nil, benchKernel, isa.Ambit, rates, 8, 7, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompileCached(b *testing.B) {
	cache := chopper.NewKernelCache(16)
	opts := chopper.Options{Target: chopper.Ambit, Cache: cache}
	if _, err := chopper.Compile(benchKernel, opts); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chopper.Compile(benchKernel, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := cache.Stats()
	b.ReportMetric(float64(s.Hits)/float64(s.Hits+s.Misses), "hit-rate")
}

// BenchmarkFirstRun times the first clean RunWide of each Table-II kernel
// on Ambit at 128 lanes after a fresh compile (the compile is not timed):
// the run that builds what a kernel keeps for its runs, then runs. Run it
// with -benchtime 10x or so; each iteration compiles the kernel again.
func BenchmarkFirstRun(b *testing.B) {
	const lanes = 128
	for _, spec := range workloads.All() {
		b.Run(spec.Name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var in map[string][][]uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k, err := chopper.Compile(spec.Src, chopper.Options{Target: chopper.Ambit})
				if err != nil {
					b.Fatal(err)
				}
				if in == nil {
					in = make(map[string][][]uint64, len(k.Inputs))
					for _, op := range k.Inputs {
						vals := make([][]uint64, lanes)
						for l := range vals {
							vals[l] = make([]uint64, (op.Width+63)/64)
							for w := range vals[l] {
								vals[l][w] = rng.Uint64()
							}
							if r := op.Width % 64; r != 0 {
								vals[l][len(vals[l])-1] &= 1<<r - 1
							}
						}
						in[op.Name] = vals
					}
				}
				b.StartTimer()
				if _, err := k.RunWide(in, lanes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFunctionalSim(b *testing.B) {
	k, err := chopper.Compile(benchKernel, chopper.Options{Target: chopper.Ambit})
	if err != nil {
		b.Fatal(err)
	}
	lanes := 256
	in := map[string][]uint64{
		"a": make([]uint64, lanes), "b": make([]uint64, lanes), "pred": make([]uint64, lanes),
	}
	for l := 0; l < lanes; l++ {
		in["a"][l] = uint64(l * 7 % 65536)
		in["b"][l] = uint64(l * 13 % 65536)
		in["pred"][l] = 32768
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Run(in, lanes); err != nil {
			b.Fatal(err)
		}
	}
}
