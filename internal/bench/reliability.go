package bench

import (
	"context"
	"fmt"

	"chopper"
	"chopper/internal/guard"
	"chopper/internal/isa"
)

// ReliabilitySweepCtx measures silent-data-corruption rates for one kernel
// source across a grid of TRA fault rates, compiled both plain and with TMR
// hardening. It returns a table (series "plain" and "tmr", one row per
// rate, values = SDC rate over `trials` runs) and the TMR latency overhead
// ratio from the DRAM timing model (hardened makespan / plain makespan).
//
// The sweep runs in the single-event-upset regime: each run injects at most
// one fault (MaxFaults=1), with the rate setting how early in the program
// it strikes. This is the regime TMR is designed for — any single replica
// fault is outvoted — so the table shows what hardening buys. Note that at
// a fixed per-op fault rate with unbounded faults, TMR can come out WORSE:
// the hardened program executes ~3x the ops, so it absorbs ~3x the faults,
// and its majority voters are themselves unprotected single points of
// failure. Use Kernel.ReliabilityCtx directly with uncapped FaultConfigs to
// measure that regime.
//
// This is the experiment behind docs/RELIABILITY.md's trade-off numbers:
// how many nines a single fault costs an unhardened kernel, and what the
// voted version buys back for its ~3x op count.
//
// The rates x trials grid is embarrassingly parallel and fans out across
// `workers` workers (<= 0 means GOMAXPROCS); results are byte-identical at
// any worker count. Both compiles and both reliability grids observe a
// non-nil ctx, so a canceled or deadline-expired context stops the sweep
// promptly with the chopper.ErrCanceled/ErrDeadline sentinel (unwrapped,
// so errors.Is works on the return) and a nil table — a half-measured
// sweep is never reported as a result.
func ReliabilitySweepCtx(ctx context.Context, src string, arch isa.Arch, rates []float64, trials int, seed int64, workers int) (*Table, float64, error) {
	wrap := func(what string, err error) error {
		if guard.IsGuard(err) {
			return err
		}
		return fmt.Errorf("bench: reliability: %s: %w", what, err)
	}
	plain, _, err := chopper.CompileCtxCached(ctx, src, chopper.Options{Target: arch})
	if err != nil {
		return nil, 0, wrap("compile", err)
	}
	hard, _, err := chopper.CompileCtxCached(ctx, src, chopper.Options{Target: arch, Harden: true})
	if err != nil {
		return nil, 0, wrap("harden", err)
	}

	cfgs := make([]chopper.FaultConfig, len(rates))
	for i, r := range rates {
		cfgs[i] = chopper.FaultConfig{TRAFlipRate: r, MaxFaults: 1}
	}
	pr, err := plain.ReliabilityCtx(ctx, trials, seed, cfgs, workers)
	if err != nil {
		return nil, 0, wrap("plain", err)
	}
	hr, err := hard.ReliabilityCtx(ctx, trials, seed, cfgs, workers)
	if err != nil {
		return nil, 0, wrap("tmr", err)
	}

	t := &Table{
		Title:  fmt.Sprintf("SDC rate vs TRA fault rate (%v, %d trials)", arch, trials),
		Unit:   "fraction of runs corrupted",
		Series: []string{"plain", "tmr"},
	}
	for i, r := range rates {
		wl := fmt.Sprintf("rate=%g", r)
		t.Rows = append(t.Rows,
			Row{Workload: wl, Series: "plain", Value: pr.Points[i].SDCRate()},
			Row{Workload: wl, Series: "tmr", Value: hr.Points[i].SDCRate()},
		)
	}
	overhead := 0.0
	if pr.TimeNs > 0 {
		overhead = hr.TimeNs / pr.TimeNs
	}
	return t, overhead, nil
}
