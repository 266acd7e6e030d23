package codegen_test

import (
	"testing"

	chopper "chopper"
	"chopper/internal/codegen"
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

// TestChainNeverLonger holds obs.Scratch.Chain to its purpose on the
// compiler's own programs: at O3 the program codegen emits from the
// chained order is no longer, and spills no more, than the one the
// unchained order yields. It covers every Table-II kernel on every
// target, plain, hardened and narrowed, at 512, 1024 and 2048 rows per
// subarray, and the hands-tuned baseline, whose routines compile at O3
// too. -short keeps the 64-wide kernels.
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
	for _, w := range workloads.All() {
		if testing.Short() && w.Config != 64 {
			continue
		}
		for _, arch := range archs {
			for _, v := range variants {
				opts := v.opts
				opts.Target = arch
				k, err := chopper.Compile(w.Src, opts)
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", w.Name, arch, v.name, err)
				}
				for _, r := range rows {
					gen := func(chain bool) *codegen.Result {
						defer codegen.SetChain(chain)()
						res, err := codegen.Generate(k.Net, codegen.Options{
							Arch: arch, Variant: obs.Rename, DRows: r - dram.DefaultGeometry().ReservedRows,
						})
						if err != nil {
							t.Fatalf("%s/%v/%s/rows%d chain=%v: %v", w.Name, arch, v.name, r, chain, err)
						}
						return res
					}
					plain, chained := gen(false), gen(true)
					if p, c := len(plain.Prog.Ops), len(chained.Prog.Ops); c > p {
						t.Errorf("%s/%v/%s/rows%d: chained program %d micro-ops, unchained %d", w.Name, arch, v.name, r, c, p)
					} else if c < p {
						shorter++
					}
					if p, c := spills(plain.Prog), spills(chained.Prog); c > p {
						t.Errorf("%s/%v/%s/rows%d: chained program spills %d times, unchained %d", w.Name, arch, v.name, r, c, p)
					}
				}
			}
			for _, r := range rows {
				geom := dram.DefaultGeometry()
				geom.RowsPerSub = r
				compile := func(chain bool) *isa.Program {
					defer codegen.SetChain(chain)()
					k, err := chopper.CompileBaseline(w.Src, chopper.Options{Target: arch, Geometry: geom})
					if err != nil {
						t.Fatalf("%s/%v/baseline/rows%d chain=%v: %v", w.Name, arch, r, chain, err)
					}
					return k.Prog()
				}
				plain, chained := compile(false), compile(true)
				if p, c := len(plain.Ops), len(chained.Ops); c > p {
					t.Errorf("%s/%v/baseline/rows%d: chained program %d micro-ops, unchained %d", w.Name, arch, r, c, p)
				} else if c < p {
					shorter++
				}
				if p, c := spills(plain), spills(chained); c > p {
					t.Errorf("%s/%v/baseline/rows%d: chained program spills %d times, unchained %d", w.Name, arch, r, c, p)
				}
			}
		}
	}
	if shorter == 0 {
		t.Error("no program got shorter: the chained order is not reaching codegen")
	}
}
