// Package guard is the cancellation and resource-budget layer of the
// compiler: a tiny dependency-free vocabulary (sentinel errors, a Budget
// of per-dimension limits, and checkpoint helpers) that the compile,
// verify, simulate and timing loops consult at deterministic points.
//
// Two failure families are distinguished:
//
//   - cancellation: a context.Context expired or was canceled. Workers
//     observe it *between* units of work (cooperative cancellation), so a
//     canceled operation stops promptly but never mid-mutation. Surfaces
//     as ErrCanceled or ErrDeadline.
//   - budget exhaustion: a counted resource (emitted micro-ops, logic
//     gates, simulated steps, issued DRAM commands) crossed its limit.
//     Surfaces as a *BudgetError carrying the exhausted dimension and the
//     count, so a service can log exactly which ceiling a runaway program
//     hit. Budget checks depend only on the counted work, never on wall
//     clock or scheduling, so the same program exhausts the same
//     dimension at the same count at any worker count.
//
// See docs/GUARDS.md for how the checkpoints thread through the stack.
package guard

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors for guard-layer terminations. The chopper package
// re-exports these, so callers can errors.Is against either package.
var (
	// ErrCanceled marks a cooperative stop because the context was
	// canceled before the work completed.
	ErrCanceled = errors.New("guard: canceled")
	// ErrDeadline marks a cooperative stop because the context's deadline
	// expired before the work completed.
	ErrDeadline = errors.New("guard: deadline exceeded")
	// ErrBudget marks a deterministic stop because a resource budget
	// dimension was exhausted; the concrete error is a *BudgetError.
	ErrBudget = errors.New("guard: budget exceeded")
)

// Budget dimension names, used in BudgetError.Dimension and diagnostics.
const (
	DimMicroOps     = "micro-ops"     // micro-ops emitted by code generation
	DimDRAMCommands = "dram-commands" // commands issued to the DRAM timing engine
	DimNetGates     = "net-gates"     // gates in the bit-sliced logic net
	DimSimSteps     = "sim-steps"     // micro-ops executed by the functional simulator
)

// Budget caps resource dimensions across the compile/verify/simulate
// pipeline. A zero field means unlimited; negative fields are invalid
// (Validate rejects them, and entry points surface that as an options
// error). Budgets are enforced at checkpoints — codegen emission, logic
// net construction, functional simulation, DRAM command issue — not by
// wall clock, so exceeding one is deterministic and reproducible.
type Budget struct {
	// MaxMicroOps bounds the micro-op program a single compilation may
	// emit (checked after every gate during codegen emission).
	MaxMicroOps int
	// MaxDRAMCommands bounds the commands one run may issue to the DRAM
	// timing engine.
	MaxDRAMCommands int
	// MaxNetGates bounds the bit-sliced logic net (checked after
	// bit-slicing, legalization and hardening).
	MaxNetGates int
	// MaxSimSteps bounds the micro-ops one run may execute on the
	// functional simulator.
	MaxSimSteps int
}

// Validate rejects negative limits, naming the offending dimension.
func (b Budget) Validate() error {
	for _, d := range []struct {
		dim string
		v   int
	}{
		{DimMicroOps, b.MaxMicroOps},
		{DimDRAMCommands, b.MaxDRAMCommands},
		{DimNetGates, b.MaxNetGates},
		{DimSimSteps, b.MaxSimSteps},
	} {
		if d.v < 0 {
			return fmt.Errorf("guard: negative %s limit %d", d.dim, d.v)
		}
	}
	return nil
}

// BudgetError reports an exhausted budget dimension. It matches ErrBudget
// under errors.Is and carries the dimension, limit and observed count for
// diagnostics ("which ceiling did this program hit, and by how much").
type BudgetError struct {
	Dimension string // one of the Dim* constants
	Limit     int    // the configured ceiling
	Count     int    // the count that crossed it
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("guard: budget exceeded: %s %d > limit %d", e.Dimension, e.Count, e.Limit)
}

// Is makes errors.Is(err, ErrBudget) true for every BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudget }

// Check is the budget checkpoint: it returns a *BudgetError when count
// exceeds a positive limit, nil otherwise (including limit <= 0, which
// means unlimited).
func Check(dim string, limit, count int) error {
	if limit > 0 && count > limit {
		return &BudgetError{Dimension: dim, Limit: limit, Count: count}
	}
	return nil
}

// Ctx is the cancellation checkpoint: it maps a context's termination to
// the guard sentinels — ErrDeadline for an expired deadline, ErrCanceled
// for everything else — and returns nil while the context is live. A nil
// context is always live, so un-guarded call paths cost one comparison.
func Ctx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	default:
		return ErrCanceled
	}
}

// IsGuard reports whether err is a guard-layer termination (budget
// exhaustion, cancellation or deadline) as opposed to an ordinary
// failure. Wrapping layers use it to pass guard errors through with their
// sentinel identity intact instead of re-classing them.
func IsGuard(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline)
}
