package bench

import (
	"testing"

	"chopper/internal/isa"
	"chopper/internal/workloads"
)

func recoveryCell(t *testing.T, points []RecoveryPoint, model, policy string) RecoveryPoint {
	t.Helper()
	for _, p := range points {
		if p.Model == model && p.Policy == policy {
			return p
		}
	}
	t.Fatalf("missing sweep cell %s/%s", model, policy)
	return RecoveryPoint{}
}

// TestFaultCampaignSmoke is the CI fault campaign: two fault models
// (transient TRA flips, retention decay) crossed with three policies
// (unprotected, parity recovery, vote recovery) on a small kernel, run
// under -race in CI. It validates the campaign machinery — detectors
// fire, corrections happen, overheads are sane — not the coverage
// numbers; TestRecoveryCoverageAcceptance holds those.
func TestFaultCampaignSmoke(t *testing.T) {
	// Seed and trial count are chosen so every detector engages on this
	// deterministic campaign; the run stays cheap enough for -race CI.
	tbl, points, err := RecoveryCoverageSweepCtx(nil, sweepSrc, isa.Ambit, 12, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	models := RecoveryFaultModels(1)
	if want := len(models) * len(RecoveryPolicies); len(tbl.Rows) != want || len(points) != want {
		t.Fatalf("sweep shape: %d rows / %d points, want %d", len(tbl.Rows), len(points), want)
	}
	for _, model := range []string{"tra", "decay"} {
		plain := recoveryCell(t, points, model, "plain")
		if plain.UopOverhead != 1 || plain.Detections != 0 {
			t.Errorf("%s/plain should be the unprotected reference, got %+v", model, plain)
		}
		for _, policy := range []string{"parity", "vote"} {
			p := recoveryCell(t, points, model, policy)
			if p.UopOverhead < 1 {
				t.Errorf("%s/%s overhead %.2f < 1 (recovery cannot be free)", model, policy, p.UopOverhead)
			}
			if p.SDCRate > plain.SDCRate {
				t.Errorf("%s/%s made reliability worse: %.2f vs plain %.2f", model, policy, p.SDCRate, plain.SDCRate)
			}
		}
		// The matched detector must actually engage on this campaign.
		det := "vote"
		if model == "decay" {
			det = "parity"
		}
		if p := recoveryCell(t, points, model, det); p.Detections == 0 {
			t.Errorf("%s/%s campaign fired no detections; fault calibration is off", model, det)
		}
	}
	if tmr := recoveryCell(t, points, "tra", "tmr"); tmr.UopOverhead < 2 {
		t.Errorf("TMR overhead %.2f implausibly low", tmr.UopOverhead)
	}
}

// TestRecoveryCoverageAcceptance holds the tentpole acceptance bar on the
// paper workloads: under each seeded transient fault model, epoch
// recovery (best detector) corrects at least 90% of the runs that fail
// unprotected, at less than 2x the micro-op overhead of whole-kernel TMR.
func TestRecoveryCoverageAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload fault campaign; skipped with -short")
	}
	const trials = 20
	for _, name := range []string{"DenseNet-16", "WTC-64", "SW-64", "DiffGen-64"} {
		spec, ok := workloads.Get(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		_, points, err := RecoveryCoverageSweepCtx(nil, spec.Src, isa.Ambit, trials, 23, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, model := range []string{"tra", "copy", "decay"} {
			plain := recoveryCell(t, points, model, "plain")
			tmr := recoveryCell(t, points, model, "tmr")
			best := recoveryCell(t, points, model, "vote")
			if par := recoveryCell(t, points, model, "parity"); par.SDCRate < best.SDCRate ||
				(par.SDCRate == best.SDCRate && par.UopOverhead < best.UopOverhead) {
				best = par
			}
			failing := plain.SDCRate * trials
			if failing < 3 {
				// The model barely bites this workload (faults land in
				// masked logic); a correction ratio over so few failing
				// runs is noise, and weakening the fault model to force
				// failures would test the calibration, not the recovery.
				continue
			}
			if best.SDCRate > 0.1*plain.SDCRate {
				t.Errorf("%s/%s: recovery (%s) leaves SDC %.3f vs plain %.3f — corrects < 90%% of failing runs",
					name, model, best.Policy, best.SDCRate, plain.SDCRate)
			}
			if best.UopOverhead >= 2*tmr.UopOverhead {
				t.Errorf("%s/%s: recovery (%s) overhead %.2fx >= 2x TMR's %.2fx",
					name, model, best.Policy, best.UopOverhead, tmr.UopOverhead)
			}
		}
	}
}
