package chopper

import (
	"context"

	"chopper/internal/fault"
	"chopper/internal/pool"
)

// FaultConfig parameterizes the deterministic DRAM fault models (TRA
// charge-sharing flips, AAP copy corruption, stuck-at bitline columns and
// retention decay). See the fault package documentation for the model and
// seed semantics; the zero value injects nothing.
type FaultConfig = fault.Config

// FaultCounts tallies injected fault events by model.
type FaultCounts = fault.Counts

// StuckColumn describes a permanently defective bitline for
// FaultConfig.StuckColumns.
type StuckColumn = fault.StuckColumn

// ReliabilityPoint is the measured behavior of a kernel under one fault
// configuration.
type ReliabilityPoint struct {
	// Config is the fault configuration this point was measured at.
	Config FaultConfig
	// Runs is the number of random-input runs executed.
	Runs int
	// SDCRuns counts runs with silent data corruption: at least one
	// output lane differed from the reference dataflow semantics.
	SDCRuns int
	// LaneErrors counts corrupted lanes per output, summed over runs.
	LaneErrors map[string]int
	// LaneErrorRate is LaneErrors normalized by Runs*lanes: the
	// probability that a given lane of that output is wrong.
	LaneErrorRate map[string]float64
	// Injected totals the fault events injected across all runs.
	Injected FaultCounts
	// Recovery aggregates the self-healing layer's activity across all
	// runs (all-zero when Options.Recovery is disabled).
	Recovery RecoveryStats
}

// SDCRate is the fraction of runs that silently corrupted data.
func (p ReliabilityPoint) SDCRate() float64 {
	if p.Runs == 0 {
		return 0
	}
	return float64(p.SDCRuns) / float64(p.Runs)
}

// ReliabilityReport is the output of the reliability harness: the kernel's
// blast radius under a grid of fault configurations, plus its fault-free
// makespan from the DRAM timing model (compare a hardened and an
// unhardened kernel's TimeNs to quantify the TMR latency overhead).
type ReliabilityReport struct {
	// Lanes is the SIMD width each run used.
	Lanes int
	// TimeNs is the fault-free single-subarray makespan of the kernel.
	TimeNs float64
	// Points holds one measurement per requested fault configuration.
	Points []ReliabilityPoint
}

// relCell is the outcome of one (fault config, trial) grid cell.
type relCell struct {
	laneErrors map[string]int
	corrupted  bool
	injected   FaultCounts
	recovery   RecoveryStats
}

// ReliabilityCtx measures the kernel under every fault configuration in
// cfgs: for each, `trials` runs over random inputs (64 lanes each,
// reproducible from seed) execute on the faulty functional simulator and
// every output lane is compared bit-exactly against the reference dataflow
// semantics. Unlike VerifyCtx, which stops at the first discrepancy, this
// counts all of them — it is the measurement harness behind the reliability
// sweeps in internal/bench.
//
// The cfgs x trials grid fans out across `workers` goroutines (<= 0 means
// GOMAXPROCS); every cell derives its inputs and fault pattern from (seed,
// cfg index, trial) alone, so the report is byte-identical at any worker
// count. Under the guard layer, workers observe a non-nil ctx between grid
// cells, so a canceled or deadline-expired context stops the sweep promptly
// with ErrCanceled/ErrDeadline and a nil report — a partially measured grid
// is never returned as a complete one.
func (k *Kernel) ReliabilityCtx(ctx context.Context, trials int, seed int64, cfgs []FaultConfig, workers int) (rep *ReliabilityReport, err error) {
	defer recoverToError(&err)
	if trials <= 0 {
		return nil, optionsErrf("trials must be positive, have %d", trials)
	}
	const lanes = 64
	rep = &ReliabilityReport{Lanes: lanes}

	// Fault-free timing reference.
	res, err := k.trialPass(ctx, []trial{{lanes: lanes, seed: seed}}, FaultConfig{}, 0, func(int, trial, *simWorker, [][]uint64, laneSpan) {})
	if err != nil {
		return nil, err
	}
	rep.TimeNs = res.TimeNs

	// One pool job per (cfg, trial) cell; cell j writes only cells[j], so
	// the merge below sees the same data regardless of scheduling. Cells
	// execute on pooled simulation workers (simWorker), each resetting its
	// own fault injector per cell, so a sweep's steady-state cost is the
	// functional replay itself, not per-trial allocation.
	cells := make([]relCell, len(cfgs)*trials)
	err = pool.RunCtx(ctx, workers, len(cells), func(j int) error {
		ci, n := j/trials, j%trials
		cell := relCell{laneErrors: make(map[string]int, len(k.Outputs))}
		var diffErr error
		res, err := k.trialPass(ctx, []trial{{n: n, lanes: lanes, seed: trialSeed(seed, j)}}, cfgs[ci], seed+int64(ci)<<16+int64(n), func(_ int, t trial, w *simWorker, out [][]uint64, sp laneSpan) {
			diffErr = k.diffTrial(w, t, out, sp, func(_ int, out string, _, _ []uint64) bool {
				cell.laneErrors[out]++
				cell.corrupted = true
				return true
			})
		})
		if err != nil {
			return err
		}
		if diffErr != nil {
			return diffErr
		}
		cell.injected, cell.recovery = res.Faults, res.RecoveryStats
		cells[j] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}

	for ci, cfg := range cfgs {
		pt := ReliabilityPoint{
			Config:        cfg,
			LaneErrors:    make(map[string]int, len(k.Outputs)),
			LaneErrorRate: make(map[string]float64, len(k.Outputs)),
		}
		for trial := 0; trial < trials; trial++ {
			cell := cells[ci*trials+trial]
			pt.Injected.Add(cell.injected)
			pt.Recovery.Add(cell.recovery)
			for name, n := range cell.laneErrors {
				pt.LaneErrors[name] += n
			}
			if cell.corrupted {
				pt.SDCRuns++
			}
			pt.Runs++
		}
		for name, n := range pt.LaneErrors {
			pt.LaneErrorRate[name] = float64(n) / float64(pt.Runs*lanes)
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}
