package codegen_test

import (
	"fmt"
	"testing"

	chopper "chopper"
	"chopper/internal/baseline"
	"chopper/internal/codegen"
	"chopper/internal/dfg"
	"chopper/internal/dram"
	"chopper/internal/isa"
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
