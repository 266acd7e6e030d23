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
// on any worker without changing the outcome. Without fault injection and
// recovery, trials share device passes (verifyPasses); otherwise each trial
// is a pass of its own. Each pass runs on a pooled simulation worker (see
// simWorker), which reuses subarray arenas, spill buffers and engine tables
// across passes, with Reconfigure resetting all run state.
func (k *Kernel) VerifyCtx(ctx context.Context, trials int, seed int64, workers int, fault FaultConfig) (err error) {
	defer recoverToError(&err)
	if trials <= 0 {
		return optionsErrf("trials must be positive, have %d", trials)
	}
	ts := make([]trial, trials)
	for n := range ts {
		ts[n] = newVerifyTrial(seed, n)
	}
	return k.verifyPasses(ctx, workers, ts, fault, seed, func(_ int, t trial, w *simWorker, out [][]uint64, sp laneSpan) error {
		return k.compareTrial(w, t, out, sp)
	})
}

// verifyPasses runs trials — in ascending order within each sweep they
// belong to — in device passes fanned out over workers, and calls check
// with each trial's index in trials, the trial, and its span of its pass's
// output rows. Without fault injection and recovery, trials share passes:
// consecutive trials fill a pass while the words their lanes occupy fit
// one row (the VerifySpanWords count), whatever the worker count, since
// bit-serial execution is exact per lane. With either, every trial is a
// pass of its own, and trial n's faults are seeded with seed+n.
//
// A pass stops checking its trials at the first error check returns, and
// that error is the pass's. It returns the error of the lowest failing
// pass: a guard stop as it is, any other failure of a pass classed
// ErrVerify and naming its first trial.
func (k *Kernel) verifyPasses(ctx context.Context, workers int, trials []trial, fc FaultConfig, seed int64, check func(i int, t trial, w *simWorker, out [][]uint64, sp laneSpan) error) error {
	starts := []int{0} // pass p runs trials[starts[p]:starts[p+1]]
	shared := !fc.Enabled() && !k.Opts.Recovery.Enabled()
	rowWords, words := k.Opts.Geometry.Bitlines()/64, 0
	for i, t := range trials {
		w := transpose.Words(t.lanes)
		if i > 0 && (!shared || words+w > rowWords) {
			starts, words = append(starts, i), 0
		}
		words += w
	}
	starts = append(starts, len(trials))
	return pool.RunCtx(ctx, workers, len(starts)-1, func(p int) error {
		lo, first := starts[p], error(nil)
		if _, err := k.trialPass(ctx, trials[lo:starts[p+1]], fc, seed+int64(trials[lo].n), func(i int, t trial, w *simWorker, out [][]uint64, sp laneSpan) {
			if first == nil {
				first = check(lo+i, t, w, out, sp)
			}
		}); err != nil {
			if guard.IsGuard(err) {
				// Budget/cancellation stops keep their sentinel identity
				// instead of being re-classed as verification failures.
				return err
			}
			return stagef(ErrVerify, "chopper: verify", "trial %d: %v", trials[lo].n, err)
		}
		return first
	})
}

// trial is one random-input run of a verification or reliability sweep:
// its number (for messages), its SIMD width, the seed its operands are
// drawn from, and — while the pass that runs it holds its worker — the
// operands themselves in wide (limbs-per-lane) layout, on that worker.
type trial struct {
	n      int
	lanes  int
	seed   int64
	inWide map[string][][]uint64
}

// newVerifyTrial is trial n of a Verify sweep: the width comes from
// verifyLaneSchedule, the operands from (seed, n).
func newVerifyTrial(seed int64, n int) trial {
	return trial{n: n, lanes: verifyLaneSchedule[n%len(verifyLaneSchedule)], seed: trialSeed(seed, n)}
}

// compareTrial checks one trial's span of a pass's output rows against the
// reference dataflow evaluation and returns the first discrepancy — lowest
// lane, then k.Outputs order. It is shared between the solo sweep
// (VerifyCtx) and the batched sweep (VerifyBatchCtx) so the two paths
// report byte-identical discrepancies.
func (k *Kernel) compareTrial(w *simWorker, t trial, out [][]uint64, sp laneSpan) error {
	var mismatch error
	err := k.diffTrial(w, t, out, sp, func(lane int, out string, got, want []uint64) bool {
		mismatch = stagef(ErrVerify, "chopper: verify", "trial %d lane %d: output %q = %v, reference says %v",
			t.n, lane, out, dfg.LimbsBig(got), dfg.LimbsBig(want))
		return false
	})
	if err != nil {
		return err
	}
	return mismatch
}

// diffTrial is the one checker of a trial, run on the worker of the pass
// that executed it: it evaluates the reference dataflow semantics on the
// trial's operands — every lane at once, on the lane-batched evaluator, in
// the worker's reference arena — gathers the trial's span sp of the output
// rows into the worker's scratch, and calls report for each (lane, output)
// whose simulated value differs from the reference: lanes ascending,
// k.Outputs order within a lane, until report returns false. got and want
// are little-endian limbs (want may carry more limbs than the output's
// width needs; the values are compared, not the slices) and are only valid
// during the call. VerifyCtx and ReliabilityCtx both compare through here,
// so a reference-evaluation failure is the same ErrVerify-classed error
// from either.
func (k *Kernel) diffTrial(w *simWorker, t trial, out [][]uint64, sp laneSpan, report func(lane int, out string, got, want []uint64) bool) error {
	plan := k.refPlan()
	if err := plan.EvalLanes(&w.ref, t.inWide, t.lanes); err != nil {
		return stagef(ErrVerify, "chopper: verify", "trial %d: reference eval: %v", t.n, err)
	}
	s := &w.trial
	s.wants = s.wants[:0]
	for _, o := range k.Outputs {
		want, ok := plan.Output(&w.ref, o.Name)
		if !ok {
			return stagef(ErrVerify, "chopper: verify", "trial %d: reference eval: graph has no output %q", t.n, o.Name)
		}
		s.wants = append(s.wants, want)
	}
	got := s.gather(k.Outputs, out, sp)
	for l := 0; l < t.lanes; l++ {
		for i, o := range k.Outputs {
			if g, want := got[i*t.lanes+l], s.wants[i].Lane(l); !sameValue(g, want) && !report(l, o.Name, g, want) {
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

// trialScratch is a worker's storage for the trials of one pass, in wide
// (limbs-per-lane) layout: every trial's operands, each trial's block of
// lanes at its base lane (trialPass lays the trials out in a row), and one
// trial's simulated outputs with their reference values for the comparison.
// It grows to the largest pass it has served, and a pass overwrites what it
// uses.
type trialScratch struct {
	rng   *rand.Rand
	in    map[string][][]uint64 // one trial's operands: views of lanes
	lanes [][]uint64            // operand lanes, views of limbs
	limbs []uint64

	rows     [][]uint64 // one output's bit-rows, cut to a trial's span
	got      [][]uint64 // output i's lane l is got[i*lanes+l], a view of gotLimbs
	gotLimbs []uint64
	wants    []dfg.LaneVals
}

// draw fills in trial t's operands, whose lanes start at lane base of a
// pass of total trial lanes, and returns them (see operands): random values
// at the operands' widths drawn from t.seed alone — input by input, lane by
// lane, limb by limb — and folded into the ranges the kernel was compiled
// under. Every sweep draws its trials here, so none of them can draw
// differently.
func (s *trialScratch) draw(k *Kernel, t trial, base, total int) map[string][][]uint64 {
	limbs := 0
	for _, in := range k.Inputs {
		limbs += (in.Width + 63) / 64
	}
	// Sized for the whole pass, so no later trial of it moves an earlier one.
	s.lanes, s.limbs = sized(s.lanes, len(k.Inputs)*total), sized(s.limbs, limbs*total)
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(0))
	}
	s.rng.Seed(t.seed)
	lanes, backing := s.lanes[base*len(k.Inputs):], s.limbs[base*limbs:]
	for _, in := range k.Inputs {
		n := (in.Width + 63) / 64
		vals := lanes[:t.lanes]
		for l := range vals {
			v := backing[l*n : (l+1)*n : (l+1)*n]
			for i := range v {
				v[i] = s.rng.Uint64()
			}
			if r := in.Width % 64; r != 0 {
				v[n-1] &= (uint64(1) << uint(r)) - 1
			}
			vals[l] = v
		}
		k.clampAnnotated(in, vals)
		lanes, backing = lanes[t.lanes:], backing[t.lanes*n:]
	}
	return s.operands(k.Inputs, base, t.lanes)
}

// operands returns the operands of the trial of `lanes` lanes drawn at lane
// base, keyed by input name; the map is the scratch's, valid until the next
// call.
func (s *trialScratch) operands(inputs []IOSpec, base, lanes int) map[string][][]uint64 {
	if s.in == nil {
		s.in = make(map[string][][]uint64, len(inputs))
	}
	vals := s.lanes[base*len(inputs):]
	for _, in := range inputs {
		s.in[in.Name], vals = vals[:lanes:lanes], vals[lanes:]
	}
	return s.in
}

// gather transposes every output's bit-rows, cut to span sp, back into wide
// values: output i's lane l is the returned slice's entry i*sp.lanes+l,
// valid until the next gather.
func (s *trialScratch) gather(outputs []IOSpec, out [][]uint64, sp laneSpan) [][]uint64 {
	limbs := 0
	for _, o := range outputs {
		limbs += (o.Width + 63) / 64
	}
	s.got, s.gotLimbs = sized(s.got, len(outputs)*sp.lanes), sized(s.gotLimbs, limbs*sp.lanes)
	got, backing := s.got, s.gotLimbs
	for i, o := range outputs {
		s.rows = s.rows[:0]
		for _, row := range out[:o.Width] {
			s.rows = append(s.rows, row[sp.off:sp.off+sp.words])
		}
		out = out[o.Width:]
		n := sp.lanes * ((o.Width + 63) / 64)
		transpose.FromVerticalWideInto(got[i*sp.lanes:(i+1)*sp.lanes], backing[:n], s.rows, o.Width, sp.lanes)
		backing = backing[n:]
	}
	return got
}

// clampAnnotated folds randomly drawn lanes of input `in` into its @range
// bounds. A kernel compiled with annotated narrowing is only contractually
// correct for inputs the annotations admit, so its verification sweeps must
// draw from that set: each raw draw x becomes lo + (x mod (hi-lo+1)),
// keeping trials deterministic in the seed. Inputs without annotations (and
// every safe-mode kernel's) pass through untouched.
func (k *Kernel) clampAnnotated(in IOSpec, vals [][]uint64) {
	r, ok := k.inputRanges[in.Name]
	if !ok || r.Lo == nil || r.Hi == nil || r.Lo.Sign() < 0 ||
		r.Lo.Cmp(r.Hi) > 0 || r.Hi.BitLen() > in.Width {
		return
	}
	if in.Width <= 64 {
		// hi fits the width, so the bounds fit a word. A span of 2^64
		// wraps to zero: the full range, nothing to fold.
		lo := r.Lo.Uint64()
		if span := r.Hi.Uint64() - lo + 1; span != 0 {
			for _, limbs := range vals {
				limbs[0] = lo + limbs[0]%span
			}
		}
		return
	}
	span := new(big.Int).Sub(r.Hi, r.Lo)
	span.Add(span, big.NewInt(1))
	for _, limbs := range vals {
		v := dfg.LimbsBig(limbs)
		v.Mod(v, span).Add(v, r.Lo)
		copy(limbs, dfg.BigLimbs(v, len(limbs)))
	}
}
