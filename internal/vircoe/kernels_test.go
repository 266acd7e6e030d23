package vircoe_test

import (
	"fmt"
	"testing"

	"chopper"
	"chopper/internal/dram"
	"chopper/internal/isa"
	"chopper/internal/vircoe"
	"chopper/internal/workloads"
)

// On the programs EmitTo schedules in production, one Table-II kernel per
// domain at the placement counts of the tiled runner and the paper sweeps,
// EmitTo must issue the reference scan's stream in both modes.
func TestEmitMatchesReferenceOnTableIIKernels(t *testing.T) {
	for _, name := range []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"} {
		spec, ok := workloads.Get(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		k, err := chopper.Compile(spec.Src, chopper.Options{Target: chopper.Ambit})
		if err != nil {
			t.Fatal(err)
		}
		g := k.Opts.Geometry
		tm := dram.TimingFor(chopper.Ambit, g)
		for _, n := range []int{1, 4, 16, 32, 64} {
			ps, err := vircoe.Placements(g, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []vircoe.Mode{vircoe.BankAware, vircoe.SubarrayAware} {
				vircoe.MatchReference(t, fmt.Sprintf("%s x%d", name, n), k.Prog(), ps, mode, tm, -1)
			}
		}
	}
}

// BenchmarkEmitTo reports EmitTo's cost per command through a sink that
// only counts, so no timing engine hides it, on a compute-bound kernel
// (DenseNet-16, 8 transfers in 18771 ops) and a transfer-heavy one
// (DiffGen-64, 384 in 1408). Same-bank placements are where bank-aware
// emission differs from subarray-aware: 1 placement and 4 on 4 banks have
// none, 16 on 4 banks (tiled_16's one-channel shard) and 64 on 16 banks
// (Figure 12) have several per bank.
func BenchmarkEmitTo(b *testing.B) {
	fourBanks := dram.Geometry{Banks: 4, SubarraysPB: 8, RowsPerSub: 1024, RowBytes: 128, ReservedRows: 18, Channels: 1}
	shapes := []struct {
		name string
		g    dram.Geometry
		n    int
	}{
		{"1", fourBanks, 1},
		{"4on4banks", fourBanks, 4},
		{"16on4banks", fourBanks, 16},
		{"64on16banks", dram.DefaultGeometry(), 64},
	}
	for _, name := range []string{"DenseNet-16", "DiffGen-64"} {
		spec, _ := workloads.Get(name)
		k, err := chopper.Compile(spec.Src, chopper.Options{Target: chopper.Ambit})
		if err != nil {
			b.Fatal(err)
		}
		for _, sh := range shapes {
			ps, err := vircoe.Placements(sh.g, sh.n)
			if err != nil {
				b.Fatal(err)
			}
			tm := dram.TimingFor(chopper.Ambit, sh.g)
			for _, mode := range []vircoe.Mode{vircoe.BankAware, vircoe.SubarrayAware} {
				b.Run(name+"/"+sh.name+"/"+mode.String(), func(b *testing.B) {
					commands := 0
					count := func(int, int, *isa.Op) bool { commands++; return true }
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						vircoe.EmitTo(k.Prog(), ps, mode, tm, count)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(commands), "ns/command")
				})
			}
		}
	}
}
