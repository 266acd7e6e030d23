package bench

import (
	"fmt"

	"chopper/internal/dfg"
	"chopper/internal/dram"
	"chopper/internal/hostmodel"
	"chopper/internal/isa"
	"chopper/internal/obs"
	"chopper/internal/ssd"
	"chopper/internal/vircoe"
	"chopper/internal/workloads"
)

// Selection narrows an experiment to a subset of workloads (nil = all 16).
type Selection []workloads.Spec

// AllWorkloads selects the full Table II set.
func AllWorkloads() Selection { return workloads.All() }

// QuickWorkloads selects one small configuration per domain, for smoke
// runs and Go benchmarks.
func QuickWorkloads() Selection {
	var out Selection
	for _, d := range workloads.Domains {
		out = append(out, workloads.Build(d, workloads.Configs[d][0]))
	}
	return out
}

// Fig9 reproduces Figure 9: speedup over the Skylake CPU of the TITAN V
// GPU and of the three PUD architectures under the hands-tuned methodology
// and under CHOPPER.
func (h *Harness) Fig9(sel Selection) (*Table, error) {
	cfg := DefaultConfig()
	t := &Table{
		Title: "Figure 9: speedup over Intel Skylake multi-core CPU",
		Unit:  "speedup (x)",
		Series: []string{"TITAN V",
			"Ambit-hand", "Ambit-CHOPPER",
			"ELP2IM-hand", "ELP2IM-CHOPPER",
			"SIMDRAM-hand", "SIMDRAM-CHOPPER"},
	}
	for _, spec := range sel {
		cpu := CPUTimeNs(spec)
		t.Rows = append(t.Rows, Row{spec.Name, "TITAN V", cpu / GPUTimeNs(spec)})
		for _, arch := range isa.AllArchs {
			hand, err := h.PUDTimeNs(spec, arch, HandsTuned, obs.Full, cfg)
			if err != nil {
				return nil, err
			}
			chop, err := h.PUDTimeNs(spec, arch, Chopper, obs.Full, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows,
				Row{spec.Name, arch.String() + "-hand", cpu / hand},
				Row{spec.Name, arch.String() + "-CHOPPER", cpu / chop})
		}
	}
	return t, nil
}

// Fig9Speedups summarizes CHOPPER-over-hands-tuned speedups per
// architecture, split into the fit and spill regimes (the paper's headline
// numbers: 1.20/1.29/1.26x fit, 12.61/9.05/9.81x spill).
func (h *Harness) Fig9Speedups(sel Selection) (*Table, error) {
	cfg := DefaultConfig()
	t := &Table{
		Title:  "Figure 9 summary: CHOPPER speedup over hands-tuned codes",
		Unit:   "speedup (x)",
		Series: []string{"Ambit", "ELP2IM", "SIMDRAM"},
	}
	for _, spec := range sel {
		for _, arch := range isa.AllArchs {
			hand, err := h.PUDTimeNs(spec, arch, HandsTuned, obs.Full, cfg)
			if err != nil {
				return nil, err
			}
			chop, err := h.PUDTimeNs(spec, arch, Chopper, obs.Full, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, Row{spec.Name, arch.String(), hand / chop})
		}
	}
	return t, nil
}

// SpillsInBaseline reports whether the hands-tuned compilation of spec
// spills (the regime split used when summarizing Figure 9).
func (h *Harness) SpillsInBaseline(spec workloads.Spec, arch isa.Arch) (bool, error) {
	k, err := h.kernel(spec, arch, HandsTuned, obs.Full, dram.DefaultGeometry())
	if err != nil {
		return false, err
	}
	return k.Baseline.Stats.SpilledValues > 0, nil
}

// Table3 reproduces Table III: lines of code of the hands-tuned
// methodology (single subarray / all subarrays) versus CHOPPER, one
// representative configuration (the second) per domain.
func (h *Harness) Table3() (*Table, error) {
	geom := dram.DefaultGeometry()
	t := &Table{
		Title:  "Table III: lines of code",
		Unit:   "LoC",
		Series: []string{"hand-single", "hand-all", "CHOPPER"},
	}
	for _, d := range workloads.Domains {
		spec := workloads.Build(d, workloads.Configs[d][1])
		// The hands-tuned kernel Figure 9 measures supplies the graph.
		k, err := h.kernel(spec, isa.Ambit, HandsTuned, obs.Full, geom)
		if err != nil {
			return nil, err
		}
		g := k.Graph
		// Hands-tuned single-subarray code: one line per multi-bit macro
		// (bbop call), plus allocation/free per named value and
		// transposition/write per input — the boilerplate the SIMDRAM
		// interface requires (Figure 3A). Note the counting is honest
		// rather than calibrated: our dataflow language packs several
		// operations per source line, so the reduction factors exceed
		// the paper's 3.2-5.1x (see EXPERIMENTS.md).
		ops, values, inputs := 0, 0, len(g.Inputs)
		for i := range g.Values {
			k := g.Values[i].Kind
			if !isLeafKind(k) {
				ops++
				values++
			} else if k == dfg.OpConst {
				values++
			}
		}
		single := ops + 2*values + 2*inputs
		all := single * geom.Banks * geom.SubarraysPB
		t.Rows = append(t.Rows,
			Row{spec.Name, "hand-single", float64(single)},
			Row{spec.Name, "hand-all", float64(all)},
			Row{spec.Name, "CHOPPER", float64(workloads.LoC(spec.Src))})
	}
	return t, nil
}

// Fig10 reproduces Figure 10 / Table IV: the OBS breakdown on Ambit —
// speedup over the CPU of the bitslice / schedule / reuse / rename
// variants (plus the GPU reference).
func (h *Harness) Fig10(sel Selection) (*Table, error) {
	cfg := DefaultConfig()
	t := &Table{
		Title:  "Figure 10: CHOPPER breakdown on Ambit, speedup over CPU",
		Unit:   "speedup (x)",
		Series: []string{"TITAN V", "bitslice", "schedule", "reuse", "rename"},
	}
	for _, spec := range sel {
		cpu := CPUTimeNs(spec)
		t.Rows = append(t.Rows, Row{spec.Name, "TITAN V", cpu / GPUTimeNs(spec)})
		for _, v := range obs.AllVariants {
			ns, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, v, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, Row{spec.Name, v.String(), cpu / ns})
		}
	}
	return t, nil
}

// Fig11 reproduces Figure 11: sensitivity to the subarray size (512 /
// 1024 / 2048 rows, fixed total capacity) for hands-tuned and CHOPPER on
// Ambit, as speedup over the CPU.
func (h *Harness) Fig11(sel Selection) (*Table, error) {
	t := &Table{
		Title: "Figure 11: subarray-size sensitivity (Ambit), speedup over CPU",
		Unit:  "speedup (x)",
		Series: []string{
			"hand-512", "CHOPPER-512",
			"hand-1024", "CHOPPER-1024",
			"hand-2048", "CHOPPER-2048"},
	}
	for _, rows := range []int{512, 1024, 2048} {
		cfg := DefaultConfig()
		cfg.Geom = cfg.Geom.WithRowsPerSub(rows)
		for _, spec := range sel {
			cpu := CPUTimeNs(spec)
			hand, err := h.PUDTimeNs(spec, isa.Ambit, HandsTuned, obs.Full, cfg)
			if err != nil {
				return nil, err
			}
			chop, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, obs.Full, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows,
				Row{spec.Name, fmt.Sprintf("hand-%d", rows), cpu / hand},
				Row{spec.Name, fmt.Sprintf("CHOPPER-%d", rows), cpu / chop})
		}
	}
	return t, nil
}

// Fig12 reproduces Figure 12: bank-aware versus subarray-aware VIRCOE,
// with and without SALP, for the CHOPPER-bitslice and CHOPPER-rename
// variants on Ambit (exactly the comparison the paper describes), as
// speedup over the CPU. All runs oversubscribe each bank with four tiles
// so that same-bank scheduling matters.
func (h *Harness) Fig12(sel Selection) (*Table, error) {
	t := &Table{
		Title: "Figure 12: VIRCOE awareness x SALP (Ambit), speedup over CPU",
		Unit:  "speedup (x)",
	}
	for _, v := range []obs.Variant{obs.Bitslice, obs.Rename} {
		for _, salp := range []bool{false, true} {
			for _, mode := range []vircoe.Mode{vircoe.BankAware, vircoe.SubarrayAware} {
				cfg := DefaultConfig()
				cfg.SALP = salp
				cfg.Mode = mode
				cfg.Placements = cfg.Geom.Banks * 4
				name := v.String() + "/bank"
				if mode == vircoe.SubarrayAware {
					name = v.String() + "/sub"
				}
				if salp {
					name += "/SALP"
				} else {
					name += "/noSALP"
				}
				t.Series = append(t.Series, name)
				for _, spec := range sel {
					cpu := CPUTimeNs(spec)
					ns, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, v, cfg)
					if err != nil {
						return nil, err
					}
					t.Rows = append(t.Rows, Row{spec.Name, name, cpu / ns})
				}
			}
		}
	}
	return t, nil
}

// Table1 renders the evaluated system configurations.
func Table1() string {
	g := dram.DefaultGeometry()
	cpu := CPUDescription()
	gpu := GPUDescription()
	s := ssd.DefaultConfig()
	return fmt.Sprintf(`Table I: evaluated system configurations
  CPU:  %s
  GPU:  %s
  PUD:  DDR4-2400, 1 channel, 1 rank, %d banks, %d subarrays/bank,
        %d rows/subarray (%d data rows), %d B rows (%d SIMD lanes)
  SSD:  %d GB, %d channel(s), %d chip(s)/channel, %d die(s)/chip,
        tR %.0f us, tPROG %.0f us
`, cpu, gpu,
		g.Banks, g.SubarraysPB, g.RowsPerSub, g.DRows(), g.RowBytes, g.Bitlines(),
		s.CapacityBytes>>30, s.Channels, s.ChipsPerCh, s.DiesPerChip,
		s.ReadLatencyNs/1000, s.ProgramLatencyNs/1000)
}

// CPUDescription and GPUDescription summarize the host models.
func CPUDescription() string {
	m := hostmodel.Skylake()
	return fmt.Sprintf("%s, %.1f GB/s memory, %.0f Gop/s", m.Name, m.MemBWGBs, m.GopsPerSec)
}

// GPUDescription summarizes the GPU model.
func GPUDescription() string {
	m := hostmodel.TitanV()
	return fmt.Sprintf("%s, %.1f GB/s memory, %.0f Gop/s", m.Name, m.MemBWGBs, m.GopsPerSec)
}

// Table2 renders the workload configurations.
func Table2() string {
	var sb []byte
	sb = append(sb, "Table II: workload configurations\n"...)
	for _, s := range workloads.All() {
		sb = append(sb, fmt.Sprintf("  %-14s %s\n", s.Name, s.Desc)...)
	}
	return string(sb)
}

func isLeafKind(k dfg.OpKind) bool {
	return k == dfg.OpInput || k == dfg.OpConst
}
