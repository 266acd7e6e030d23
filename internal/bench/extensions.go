package bench

import (
	"fmt"

	"chopper/internal/dram"
	"chopper/internal/isa"
	"chopper/internal/obs"
	"chopper/internal/ssd"
	"chopper/internal/vircoe"
	"chopper/internal/workloads"
)

// The experiments in this file go beyond the paper's evaluation section —
// ablations the DESIGN.md calls out: the emission-strategy study behind
// Figure 5, and a DRAM energy comparison (the ELP2IM line of work is
// motivated by energy, which the paper leaves implicit).

// EmissionStudy compares the three code-emission strategies over the same
// compiled kernel: naive serial broadcast (Figure 5A), the lockstep
// bank-parallel broadcast of the bbop interface, and VIRCOE (Figure 5B).
// Values are the makespan of one wave, normalized to VIRCOE = 1.
func (h *Harness) EmissionStudy(sel Selection) (*Table, error) {
	cfg := DefaultConfig()
	t := &Table{
		Title:  "Emission study (Ambit, bitslice-variant code): wave makespan relative to VIRCOE",
		Unit:   "slowdown vs VIRCOE (x)",
		Series: []string{"serial", "lockstep", "VIRCOE"},
	}
	for _, spec := range sel {
		// The bitslice variant still host-writes constant rows, so the
		// stream carries real transfers for the strategies to overlap
		// (fully optimized code in the fit regime has almost none, and
		// all bank-parallel strategies coincide on pure computation).
		k, err := h.kernel(spec, isa.Ambit, Chopper, obs.Bitslice, cfg.Geom)
		if err != nil {
			return nil, err
		}
		var ns [3]float64 // one wave per strategy: serial, lockstep, VIRCOE
		for i, emit := range []feed{vircoe.SerialTo, vircoe.LockstepTo, cfg.emitter(isa.Ambit)} {
			if ns[i], err = waveNs(k, cfg, cfg.placements(), ssd.DefaultConfig(), emit); err != nil {
				return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
			}
		}
		t.Rows = append(t.Rows,
			Row{spec.Name, "serial", ns[0] / ns[2]},
			Row{spec.Name, "lockstep", ns[1] / ns[2]},
			Row{spec.Name, "VIRCOE", 1.0})
	}
	return t, nil
}

// EnergyStudy compares DRAM energy per processed element: hands-tuned
// versus CHOPPER on each PUD architecture. Spill traffic's channel I/O is
// included; SSD-internal energy is not.
func (h *Harness) EnergyStudy(sel Selection) (*Table, error) {
	cfg := DefaultConfig()
	t := &Table{
		Title: "Energy study: DRAM energy per element",
		Unit:  "pJ/element",
		Series: []string{
			"Ambit-hand", "Ambit-CHOPPER",
			"ELP2IM-hand", "ELP2IM-CHOPPER",
			"SIMDRAM-hand", "SIMDRAM-CHOPPER"},
	}
	for _, spec := range sel {
		for _, arch := range isa.AllArchs {
			for _, comp := range []Compiler{HandsTuned, Chopper} {
				pj, err := h.PUDEnergyPJ(spec, arch, comp, obs.Full, cfg)
				if err != nil {
					return nil, err
				}
				label := arch.String() + "-hand"
				if comp == Chopper {
					label = arch.String() + "-CHOPPER"
				}
				t.Rows = append(t.Rows, Row{spec.Name, label, pj})
			}
		}
	}
	return t, nil
}

// SSDStudy sweeps the spill device's speed and reports the hands-tuned
// and CHOPPER times on the largest (spill-regime) configuration of each
// domain, normalized to the CHOPPER time on the default (Table I) drive.
// It answers "how much of the spill-regime gap is the storage device":
// hands-tuned improves with faster storage but stays behind, because
// CHOPPER's bit-granularity footprints avoid the device altogether.
func (h *Harness) SSDStudy() (*Table, error) {
	cfg := DefaultConfig()
	t := &Table{
		Title: "SSD sensitivity: spill-regime time vs storage speed (Ambit)",
		Unit:  "slowdown vs CHOPPER on the default drive (x)",
		Series: []string{
			"hand/SATA", "hand/NVMe", "hand/XL-Flash",
			"CHOPPER/SATA"},
	}
	drives := []struct {
		name           string
		readNs, progNs float64
	}{
		{"SATA", 50_000, 600_000},   // the Table I drive
		{"NVMe", 20_000, 100_000},   // mainstream TLC NVMe
		{"XL-Flash", 4_000, 30_000}, // low-latency storage class
	}
	for _, domain := range workloads.Domains {
		spec := workloads.Build(domain, workloads.Configs[domain][3])
		base, err := h.PUDTimeNs(spec, isa.Ambit, Chopper, obs.Full, cfg)
		if err != nil {
			return nil, err
		}
		for _, d := range drives {
			drive := ssd.DefaultConfig()
			drive.ReadLatencyNs, drive.ProgramLatencyNs = d.readNs, d.progNs
			hand, err := h.pudTimeNs(spec, isa.Ambit, HandsTuned, obs.Full, cfg, drive)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, Row{spec.Name, "hand/" + d.name, hand / base})
		}
		t.Rows = append(t.Rows, Row{spec.Name, "CHOPPER/SATA", 1.0})
	}
	return t, nil
}

// PUDEnergyPJ measures the full-problem DRAM energy per element.
func (h *Harness) PUDEnergyPJ(spec workloads.Spec, arch isa.Arch, comp Compiler, v obs.Variant, cfg Config) (float64, error) {
	k, err := h.kernel(spec, arch, comp, v, cfg.Geom)
	if err != nil {
		return 0, err
	}
	prog := residentProgram(k)
	timing := dram.TimingFor(arch, cfg.Geom)
	var perTile float64
	for i := range prog.Ops {
		perTile += timing.OpEnergyPJ(&prog.Ops[i])
	}
	lanesPerTile := float64(cfg.Geom.Bitlines())
	return perTile / lanesPerTile, nil
}
