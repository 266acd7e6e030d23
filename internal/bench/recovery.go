package bench

import (
	"context"
	"fmt"

	"chopper"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// RecoveryPolicies lists the hardening policies the coverage sweep
// compares, in report order: no protection, whole-kernel TMR, and the two
// epoch-recovery detectors.
var RecoveryPolicies = []string{"plain", "tmr", "parity", "vote"}

// RecoveryPoint is one (fault model, policy) cell of a recovery coverage
// sweep.
type RecoveryPoint struct {
	// Model names the fault model ("tra", "copy", "decay").
	Model string
	// Policy names the hardening policy ("plain", "tmr", "parity", "vote").
	Policy string
	// SDCRate is the fraction of runs with silent data corruption.
	SDCRate float64
	// Detections/Corrected/Uncorrected total the recovery layer's epoch
	// outcomes across all runs (zero for plain and tmr).
	Detections  int
	Corrected   int
	Uncorrected int
	// UopOverhead is the micro-op cost of the policy relative to the
	// unprotected kernel: static program growth for TMR, measured
	// replay + detector work (averaged over runs) for epoch recovery.
	UopOverhead float64
	// TimeOverhead is the fault-free makespan of this policy's kernel
	// relative to the unprotected one (DRAM timing model).
	TimeOverhead float64
}

// RecoveryCoverageSweepCtx measures the coverage-versus-overhead trade-off of
// the self-healing execution layer on one kernel source: the kernel is
// compiled unprotected, TMR-hardened, and recovery-enabled with each
// detector, then every variant runs `trials` random-input runs under each
// of three seeded fault models (TRA charge-sharing flips, AAP copy
// corruption, retention decay), calibrated to a few expected fault events
// per unprotected run. It returns a table (series = policy, one row per
// fault model, values = SDC rate) plus the per-cell detail points.
//
// This is the experiment behind the recovery section of
// docs/RELIABILITY.md: whole-kernel TMR masks transient faults at ~3x
// static cost on every run; epoch recovery buys comparable coverage for
// transient faults at ~1x (parity, storage faults only) to ~2x (vote) by
// paying for redundancy only where the detector demands it.
//
// The grids run on `workers` workers (<= 0 means GOMAXPROCS); a canceled
// or deadline-expired ctx (nil disables the checks) stops the sweep with
// the guard sentinel and no partial table.
func RecoveryCoverageSweepCtx(ctx context.Context, src string, arch isa.Arch, trials int, seed int64, workers int) (*Table, []RecoveryPoint, error) {
	wrap := func(what string, err error) error {
		if guard.IsGuard(err) {
			return err
		}
		return fmt.Errorf("bench: recovery sweep: %s: %w", what, err)
	}
	kernels := make(map[string]*chopper.Kernel, len(RecoveryPolicies))
	for _, pol := range RecoveryPolicies {
		opts := chopper.Options{Target: arch}
		switch pol {
		case "tmr":
			opts.Harden = true
		case "parity":
			opts.Recovery = chopper.Recovery{Detector: chopper.DetectorParity}
		case "vote":
			opts.Recovery = chopper.Recovery{Detector: chopper.DetectorVote}
		}
		k, err := chopper.CompileCtx(ctx, src, opts)
		if err != nil {
			return nil, nil, wrap("compile "+pol, err)
		}
		kernels[pol] = k
	}
	plainOps := len(kernels["plain"].Prog().Ops)
	models := RecoveryFaultModels(plainOps)

	cfgs := make([]chopper.FaultConfig, len(models))
	for i, m := range models {
		cfgs[i] = m.Cfg
	}
	reports := make(map[string]*chopper.ReliabilityReport, len(RecoveryPolicies))
	for _, pol := range RecoveryPolicies {
		rep, err := kernels[pol].ReliabilityCtx(ctx, trials, seed, cfgs, workers)
		if err != nil {
			return nil, nil, wrap(pol, err)
		}
		reports[pol] = rep
	}

	t := &Table{
		Title:  fmt.Sprintf("SDC rate vs fault model and policy (%v, %d trials)", arch, trials),
		Unit:   "fraction of runs corrupted",
		Series: RecoveryPolicies,
	}
	var points []RecoveryPoint
	plainTime := reports["plain"].TimeNs
	for i, m := range models {
		for _, pol := range RecoveryPolicies {
			pt := reports[pol].Points[i]
			p := RecoveryPoint{
				Model:       m.Name,
				Policy:      pol,
				SDCRate:     pt.SDCRate(),
				Detections:  pt.Recovery.Detections,
				Corrected:   pt.Recovery.Corrected,
				Uncorrected: pt.Recovery.Uncorrected,
			}
			switch pol {
			case "plain":
				p.UopOverhead = 1
			case "tmr":
				// TMR's cost is static program growth: every run pays it.
				p.UopOverhead = float64(len(kernels["tmr"].Prog().Ops)) / float64(plainOps)
			default:
				// Recovery's cost is measured: replayed spans plus detector
				// commands, averaged over the runs that were actually taken.
				extra := float64(pt.Recovery.WastedUops+pt.Recovery.DetectorCommands) / float64(pt.Runs)
				p.UopOverhead = (float64(plainOps) + extra) / float64(plainOps)
			}
			if plainTime > 0 {
				p.TimeOverhead = reports[pol].TimeNs / plainTime
			}
			points = append(points, p)
			t.Rows = append(t.Rows, Row{Workload: m.Name, Series: pol, Value: p.SDCRate})
		}
	}
	return t, points, nil
}

// RecoveryFaultModel is one seeded fault model of the coverage sweep.
type RecoveryFaultModel struct {
	Name string
	Cfg  chopper.FaultConfig
}

// RecoveryFaultModels builds the sweep's three fault models, calibrated to
// a program of `ops` micro-ops: transient rates target a few expected
// events per unprotected run (enough that most unprotected runs corrupt,
// while a replayed epoch under an independent draw is very likely clean),
// and the retention model refreshes every ops/8 operations so long-lived
// rows actually decay.
func RecoveryFaultModels(ops int) []RecoveryFaultModel {
	if ops < 1 {
		ops = 1
	}
	rate := 3.0 / float64(ops)
	refresh := ops / 8
	if refresh < 1 {
		refresh = 1
	}
	return []RecoveryFaultModel{
		{Name: "tra", Cfg: chopper.FaultConfig{TRAFlipRate: rate}},
		{Name: "copy", Cfg: chopper.FaultConfig{CopyFlipRate: rate}},
		{Name: "decay", Cfg: chopper.FaultConfig{RetentionRate: 4 * rate, RefreshOps: refresh}},
	}
}
