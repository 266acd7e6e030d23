package chopper

import (
	"context"
	"math/big"
	"math/rand"

	"chopper/internal/dfg"
	"chopper/internal/guard"
	"chopper/internal/pool"
	"chopper/internal/transpose"
)

// verifyLaneSchedule is the SIMD width each verification trial runs at.
// Trial t uses entry t mod len: trial 0 keeps the historical 64-lane
// shape, and the rest deliberately straddle the 64-bit word boundary
// (1, 63, 65) and cross it (128) so partial-word masking bugs in the
// transposition and simulator paths cannot hide behind whole-word lane
// counts.
var verifyLaneSchedule = []int{64, 1, 63, 65, 128}

// trialSeed derives an independent RNG seed for one trial from the
// user-supplied seed. Each trial must be self-contained — no RNG state
// flowing from trial t into trial t+1 — so trials can run on any worker
// of the pool and still produce byte-identical results at any worker
// count. The splitmix64 finalizer decorrelates consecutive (seed, trial)
// pairs.
func trialSeed(seed int64, trial int) int64 {
	z := uint64(seed) + (uint64(trial)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Verify checks a compiled kernel against the reference dataflow semantics
// on `trials` batches of random inputs: the compiled micro-ops run on the
// functional DRAM simulator and every output lane is compared bit-exactly
// with dfg evaluation. Lane counts vary per trial (1, 63, 64, 65, 128) to
// exercise partial-word masking. It returns the first discrepancy — the
// one from the lowest failing trial, regardless of parallelism — as an
// ErrVerify-classed error, or nil.
//
// Trials fan out across GOMAXPROCS workers; results are byte-identical at
// any worker count because each trial derives its inputs from (seed,
// trial) alone. Use VerifyCtx to pin the worker count.
//
// This is the library-level version of the test suite's central invariant,
// exposed so downstream users can validate kernels they generate (for
// example after extending the synthesis library).
func (k *Kernel) Verify(trials int, seed int64) error {
	return k.VerifyCtx(nil, trials, seed, 0, FaultConfig{})
}

// VerifyCtx is Verify with everything said: an explicit worker count (<= 0
// means GOMAXPROCS; any count returns the same result) under the guard
// layer, on a substrate with the fault models of fault injected. Workers
// observe a non-nil ctx between trials (and the simulator observes it
// between micro-ops), so a canceled or deadline-expired context stops the
// sweep promptly with ErrCanceled/ErrDeadline — never reporting the partial
// sweep as a pass. The kernel's Options.Budget is enforced inside every
// trial.
//
// The zero FaultConfig is Verify's fault-free substrate. Otherwise trial t
// injects with seed+t, so each trial draws an independent but reproducible
// fault pattern; an ErrVerify-classed error then means the faults caused
// silent data corruption the kernel could not mask, and nil means every
// trial survived bit-exact. Compile with Options.Harden to make kernels that
// survive single intermediate-row faults which break their unhardened
// counterparts.
//
// Trials are independent units of work: inputs come from trialSeed(seed,
// trial), the lane count from verifyLaneSchedule, so the pool can place them
// on any worker without changing the outcome. Each trial runs on a pooled
// simulation worker (see simWorker), which reuses subarray arenas, spill
// buffers and engine tables across trials, with Reconfigure resetting all
// trial state.
func (k *Kernel) VerifyCtx(ctx context.Context, trials int, seed int64, workers int, fault FaultConfig) (err error) {
	defer recoverToError(&err)
	if trials <= 0 {
		return optionsErrf("trials must be positive, have %d", trials)
	}
	return pool.RunCtx(ctx, workers, trials, func(n int) error {
		t := k.newVerifyTrial(seed, n)
		res, err := k.runRows(ctx, t.rows(k), t.lanes, fault, seed+int64(n))
		if err != nil {
			if guard.IsGuard(err) {
				// Budget/cancellation stops keep their sentinel identity
				// instead of being re-classed as verification failures.
				return err
			}
			return stagef(ErrVerify, "chopper: verify", "trial %d: %v", n, err)
		}
		return k.compareTrial(t, res.Rows)
	})
}

// trial is one random-input run of a verification or reliability sweep: its
// number (for messages), its SIMD width, and the operands drawn for it in
// wide (limbs-per-lane) layout.
type trial struct {
	n      int
	lanes  int
	inWide map[string][][]uint64
}

// newTrial draws trial n's operands from seed alone: random values at the
// operands' widths, folded into the ranges the kernel was compiled under.
// Every sweep builds its trials here, so none of them can draw differently.
func (k *Kernel) newTrial(n int, seed int64, lanes int) trial {
	inWide := randWideInputs(rand.New(rand.NewSource(seed)), k.Inputs, lanes)
	k.clampAnnotated(inWide)
	return trial{n: n, lanes: lanes, inWide: inWide}
}

// newVerifyTrial is trial n of a Verify sweep: the width comes from
// verifyLaneSchedule, the operands from (seed, n).
func (k *Kernel) newVerifyTrial(seed int64, n int) trial {
	return k.newTrial(n, trialSeed(seed, n), verifyLaneSchedule[n%len(verifyLaneSchedule)])
}

// rows transposes the trial's operands into vertical layout for a pass of
// its own.
func (t trial) rows(k *Kernel) map[string][][]uint64 {
	rows := make(map[string][][]uint64, len(t.inWide))
	for _, in := range k.Inputs {
		rows[in.Name] = transpose.ToVerticalWide(t.inWide[in.Name], in.Width, t.lanes)
	}
	return rows
}

// compareTrial checks one trial's output rows against the reference
// dataflow evaluation and returns the first discrepancy — lowest lane, then
// k.Outputs order. It is shared between the solo sweep (VerifyCtx) and
// the batched sweep (VerifyBatchCtx) so the two paths report byte-identical
// discrepancies.
func (k *Kernel) compareTrial(t trial, rows map[string][][]uint64) error {
	var mismatch error
	err := k.diffTrial(t, rows, func(lane int, out string, got, want []uint64) bool {
		mismatch = stagef(ErrVerify, "chopper: verify", "trial %d lane %d: output %q = %v, reference says %v",
			t.n, lane, out, dfg.LimbsBig(got), dfg.LimbsBig(want))
		return false
	})
	if err != nil {
		return err
	}
	return mismatch
}

// diffTrial is the one checker of a trial: it gathers the run's vertical
// output rows, evaluates the reference dataflow semantics on the trial's
// operands — every lane at once, on the lane-batched evaluator, in the
// worker's retained arena — and calls report for each (lane, output) whose
// simulated value differs from it: lanes ascending, k.Outputs order within
// a lane, until report returns false. got and want are little-endian limbs
// (want may carry more limbs than the output's width needs; the values are
// compared, not the slices) and are only valid during the call. VerifyCtx and
// ReliabilityCtx both compare through here, so a reference-evaluation failure
// is the same ErrVerify-classed error from either.
func (k *Kernel) diffTrial(t trial, rows map[string][][]uint64, report func(lane int, out string, got, want []uint64) bool) error {
	got := k.gatherWide(rows, t.lanes)
	plan := k.refPlan()
	w := getWorker()
	defer putWorker(w)
	if err := plan.EvalLanes(&w.ref, t.inWide, t.lanes); err != nil {
		return stagef(ErrVerify, "chopper: verify", "trial %d: reference eval: %v", t.n, err)
	}
	type column struct {
		name string
		got  [][]uint64
		want dfg.LaneVals
	}
	cols := make([]column, len(k.Outputs))
	for i, o := range k.Outputs {
		want, ok := plan.Output(&w.ref, o.Name)
		if !ok {
			return stagef(ErrVerify, "chopper: verify", "trial %d: reference eval: graph has no output %q", t.n, o.Name)
		}
		cols[i] = column{name: o.Name, got: got[o.Name], want: want}
	}
	for l := 0; l < t.lanes; l++ {
		for i := range cols {
			c := &cols[i]
			if g, want := c.got[l], c.want.Lane(l); !sameValue(g, want) && !report(l, c.name, g, want) {
				return nil
			}
		}
	}
	return nil
}

// sameValue compares two little-endian limb slices as numbers: limbs one
// side lacks read as zero.
func sameValue(a, b []uint64) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for i, w := range a {
		if b[i] != w {
			return false
		}
	}
	for _, w := range b[len(a):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// randWideInputs draws one batch of random operand values in wide
// (limbs-per-lane) layout. An input's lanes are carved out of one backing
// array, each clipped to its own limbs.
func randWideInputs(rng *rand.Rand, inputs []IOSpec, lanes int) map[string][][]uint64 {
	inWide := make(map[string][][]uint64, len(inputs))
	for _, in := range inputs {
		limbs := (in.Width + 63) / 64
		vals := make([][]uint64, lanes)
		backing := make([]uint64, lanes*limbs)
		for l := range vals {
			v := backing[l*limbs : (l+1)*limbs : (l+1)*limbs]
			for i := range v {
				v[i] = rng.Uint64()
			}
			if r := in.Width % 64; r != 0 {
				v[limbs-1] &= (uint64(1) << uint(r)) - 1
			}
			vals[l] = v
		}
		inWide[in.Name] = vals
	}
	return inWide
}

// clampAnnotated folds randomly drawn inputs into their @range bounds. A
// kernel compiled with annotated narrowing is only contractually correct
// for inputs the annotations admit, so its verification sweeps must draw
// from that set: each raw draw x becomes lo + (x mod (hi-lo+1)), keeping
// trials deterministic in the seed. Kernels without annotations (and every
// safe-mode kernel) pass through untouched.
func (k *Kernel) clampAnnotated(inWide map[string][][]uint64) {
	if len(k.inputRanges) == 0 {
		return
	}
	for _, in := range k.Inputs {
		r, ok := k.inputRanges[in.Name]
		if !ok || r.Lo == nil || r.Hi == nil || r.Lo.Sign() < 0 ||
			r.Lo.Cmp(r.Hi) > 0 || r.Hi.BitLen() > in.Width {
			continue
		}
		if in.Width <= 64 {
			// hi fits the width, so the bounds fit a word. A span of 2^64
			// wraps to zero: the full range, nothing to fold.
			lo := r.Lo.Uint64()
			if span := r.Hi.Uint64() - lo + 1; span != 0 {
				for _, limbs := range inWide[in.Name] {
					limbs[0] = lo + limbs[0]%span
				}
			}
			continue
		}
		span := new(big.Int).Sub(r.Hi, r.Lo)
		span.Add(span, big.NewInt(1))
		for _, limbs := range inWide[in.Name] {
			v := dfg.LimbsBig(limbs)
			v.Mod(v, span).Add(v, r.Lo)
			copy(limbs, dfg.BigLimbs(v, len(limbs)))
		}
	}
}
