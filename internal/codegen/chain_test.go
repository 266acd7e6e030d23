package codegen_test

import (
	"fmt"
	"slices"
	"testing"

	chopper "chopper"
	"chopper/internal/baseline"
	"chopper/internal/bitslice"
	"chopper/internal/codegen"
	"chopper/internal/dfg"
	"chopper/internal/dram"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/narrow"
	"chopper/internal/obs"
	"chopper/internal/workloads"
)

// spills counts a program's SSD spill traffic, both directions.
func spills(p *isa.Program) int {
	n := 0
	for _, op := range p.Ops {
		if op.Kind == isa.OpSpillOut || op.Kind == isa.OpSpillIn {
			n++
		}
	}
	return n
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestChainNeverLonger holds obs.Scratch.Chain to its purpose on the
// compiler's own programs: at O3 the program codegen emits from the
// chained order is no longer, and spills no more, than the one the
// unchained order yields. It covers every Table-II kernel on every
// target, plain, hardened and narrowed, at 512, 1024 and 2048 rows per
// subarray, and the hands-tuned baseline, whose routines compile at O3
// too. -short, and any -race build, keeps the 64-wide kernels. Nothing
// is generated twice: the chained program at the default 1,024 rows is
// the one the compile emitted, and the baseline lowers the graph that
// compile parsed.
func TestChainNeverLonger(t *testing.T) {
	variants := []struct {
		name string
		opts chopper.Options
	}{
		{"plain", chopper.Options{}},
		{"harden", chopper.Options{Harden: true}},
		{"narrow-safe", chopper.Options{Narrow: chopper.NarrowSafe}},
	}
	rows := []int{512, 1024, 2048}
	archs := []isa.Arch{isa.Ambit, isa.ELP2IM, isa.SIMDRAM}
	shorter := 0
	// compare holds a chained program to its unchained twin.
	compare := func(name string, plain, chained *isa.Program) {
		if p, c := len(plain.Ops), len(chained.Ops); c > p {
			t.Errorf("%s: chained program %d micro-ops, unchained %d", name, c, p)
		} else if c < p {
			shorter++
		}
		if p, c := spills(plain), spills(chained); c > p {
			t.Errorf("%s: chained program spills %d times, unchained %d", name, c, p)
		}
	}
	// One scratch serves every codegen call, as a compile workspace's does.
	sc := new(codegen.Scratch)
	for _, w := range workloads.All() {
		if (testing.Short() || raceDetector) && w.Config != 64 {
			continue
		}
		// The graph does not depend on the target or the variant: the
		// baseline lowers the one the first compile parsed, at every row
		// count, instead of compiling the source again.
		var graph *dfg.Graph
		for _, arch := range archs {
			for _, v := range variants {
				opts := v.opts
				opts.Target = arch
				k, err := chopper.Compile(w.Src, opts)
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", w.Name, arch, v.name, err)
				}
				if graph == nil {
					graph = k.Graph
				}
				for _, r := range rows {
					name := fmt.Sprintf("%s/%v/%s/rows%d", w.Name, arch, v.name, r)
					gen := func(chain bool) *isa.Program {
						if chain && r == dram.DefaultGeometry().RowsPerSub && k.Degradation == nil {
							// What the compile emitted: the chained order at these rows.
							return k.Code.Prog
						}
						defer codegen.SetChain(chain)()
						res, err := codegen.Generate(k.Net, codegen.Options{
							Arch: arch, Variant: obs.Rename, DRows: r - dram.DefaultGeometry().ReservedRows, Scratch: sc,
						})
						if err != nil {
							t.Fatalf("%s chain=%v: %v", name, chain, err)
						}
						return res.Prog
					}
					compare(name, gen(false), gen(true))
				}
			}
			for _, r := range rows {
				name := fmt.Sprintf("%s/%v/baseline/rows%d", w.Name, arch, r)
				gen := func(chain bool) *isa.Program {
					defer codegen.SetChain(chain)()
					res, err := baseline.Generate(graph, baseline.Options{Arch: arch, DRows: r - dram.DefaultGeometry().ReservedRows})
					if err != nil {
						t.Fatalf("%s chain=%v: %v", name, chain, err)
					}
					return res.Prog
				}
				compare(name, gen(false), gen(true))
			}
		}
	}
	if shorter == 0 {
		t.Error("no program got shorter: the chained order is not reaching codegen")
	}
}

// TestMergeNeverLonger holds logic.Scratch.MergeDuals to its purpose on
// the compiler's own programs: at OptReuse and OptFull the program a
// compile emits is no longer, and spills no more, than the one the
// unmerged net yields. It covers every Table-II kernel on every target,
// plain, hardened and narrowed, on devices of 512, 1024 and 2048 rows per
// subarray; -short, and any -race build, keeps the 64-wide kernels.
//
// The unmerged net is rebuilt from the kernel's graph the way the compile
// builds it (bitslice, Legalize, DCE, TMR), and so is the merged one
// (MergeDuals in place of DCE). The kernel's net must be one of the two:
// the merged one, or the unmerged one where the merged program spilled
// and was not better. A kernel whose two nets are equal needs no programs
// compared.
func TestMergeNeverLonger(t *testing.T) {
	variants := []struct {
		name string
		opts chopper.Options
	}{
		{"plain", chopper.Options{}},
		{"harden", chopper.Options{Harden: true}},
		{"narrow-safe", chopper.Options{Narrow: chopper.NarrowSafe}},
	}
	rows := []int{512, 1024, 2048}
	archs := []isa.Arch{isa.Ambit, isa.ELP2IM, isa.SIMDRAM}
	levels := []chopper.OptLevel{chopper.OptReuse, chopper.OptFull}
	merged, shorter, kept := 0, 0, 0
	ls := new(logic.Scratch)
	sc := new(codegen.Scratch)
	for _, w := range workloads.All() {
		if (testing.Short() || raceDetector) && w.Config != 64 {
			continue
		}
		for _, arch := range archs {
			for _, lv := range levels {
				for _, v := range variants {
					cfg := fmt.Sprintf("%s/%v/%v/%s", w.Name, arch, lv, v.name)
					compile := func(r int) *chopper.Kernel {
						opts := v.opts
						opts.Target = arch
						opts.Geometry = dram.DefaultGeometry()
						opts.Geometry.RowsPerSub = r
						k, err := chopper.Compile(w.Src, opts.WithOpt(lv))
						if err != nil {
							t.Fatalf("%s/rows%d: %v", cfg, r, err)
						}
						if k.Degradation != nil {
							t.Fatalf("%s/rows%d: compile degraded: %+v", cfg, r, k.Degradation)
						}
						return k
					}
					k := compile(dram.DefaultGeometry().RowsPerSub)
					lower := k.Graph
					if k.Narrow != nil {
						var err error
						if lower, _, err = narrow.Run(k.Graph, narrow.Opts{}); err != nil {
							t.Fatalf("%s: narrow: %v", cfg, err)
						}
					}
					var nets [2]*logic.Net // unmerged, merged
					for i := range nets {
						n, err := bitslice.LowerOn(ls, lower, bitslice.Options{Fold: true})
						if err != nil {
							t.Fatalf("%s: %v", cfg, err)
						}
						l, err := ls.Legalize(n, arch, logic.BuilderOptions{Fold: true})
						if err != nil {
							t.Fatalf("%s: %v", cfg, err)
						}
						if i == 0 {
							nets[i] = ls.DCE(l)
						} else {
							nets[i], _ = ls.MergeDuals(l)
						}
						if v.opts.Harden {
							if nets[i], err = ls.TMR(nets[i], logic.NativeGates(arch)); err != nil {
								t.Fatalf("%s: %v", cfg, err)
							}
						}
					}
					same := func(a, b *logic.Net) bool {
						return slices.Equal(a.Gates, b.Gates) && slices.Equal(a.Outputs, b.Outputs)
					}
					if same(nets[0], nets[1]) {
						if !same(k.Net, nets[0]) {
							t.Fatalf("%s: the rebuilt net (%d gates) is not the kernel's (%d)", cfg, len(nets[0].Gates), len(k.Net.Gates))
						}
						continue
					}
					merged++
					for _, r := range rows {
						name := fmt.Sprintf("%s/rows%d", cfg, r)
						kr := k
						if r != dram.DefaultGeometry().RowsPerSub {
							kr = compile(r)
						}
						switch {
						case same(kr.Net, nets[1]):
							kept++
						case !same(kr.Net, nets[0]):
							t.Fatalf("%s: the kernel's net (%d gates) is neither rebuilt net (%d, %d)", name, len(kr.Net.Gates), len(nets[0].Gates), len(nets[1].Gates))
						}
						res, err := codegen.Generate(nets[0], codegen.Options{
							Arch: arch, Variant: lv, DRows: r - dram.DefaultGeometry().ReservedRows, Scratch: sc,
						})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						p, m := res.Prog, kr.Code.Prog
						if len(m.Ops) > len(p.Ops) {
							t.Errorf("%s: compiled program %d micro-ops, unmerged %d", name, len(m.Ops), len(p.Ops))
						} else if len(m.Ops) < len(p.Ops) {
							shorter++
						}
						if sm, sp := spills(m), spills(p); sm > sp {
							t.Errorf("%s: compiled program spills %d times, unmerged %d", name, sm, sp)
						}
					}
				}
			}
		}
	}
	if shorter == 0 {
		t.Error("no program got shorter: the merge is not reaching codegen")
	}
	t.Logf("%d merged nets; over their row counts, %d compiles kept the merged net and %d programs got shorter", merged, kept, shorter)
}
