package chopper

// Batched execution: several independent requests against the same kernel
// ride ONE simulated device pass. Bit-serial PUD execution makes this
// exact, not approximate — every micro-op acts bitwise per lane, so
// packing request operands into disjoint, word-aligned lane spans of a
// shared arena and running the program once produces, per request, the
// same output bits, the same simulated time and the same engine counters
// as running each request alone (the op stream, and therefore the timing
// replay and every budget checkpoint, does not depend on the lane count).
// This is the amortization SIMDRAM identifies for bit-serial PUD: the
// fixed per-pass work — transposition and timing replay — is paid once
// for N requests. chopperd's internal/serve batcher is the main client.
//
// One skeleton, Kernel.pass, carries every host-layout verb: Run and
// RunWide are passes of one member, RunBatch and RunRowsBatchCtx of N, a
// coalesced VerifyBatchCtx of one member per trial. The verbs differ only in
// the scatter function they hand it (one value per lane, wide limbs, or
// rows already vertical) and in how they gather their span of the result.

import (
	"context"
	"fmt"

	"chopper/internal/transpose"
)

// BatchRun is one member of a coalesced run: operands one value per lane
// (widths up to 64 bits), exactly like Kernel.Run.
type BatchRun struct {
	Inputs map[string][]uint64
	Lanes  int
}

// LaneBatch is one member of a coalesced run over operands already in
// vertical (bit-row) layout, exactly like Kernel.RunRows.
type LaneBatch struct {
	Rows  map[string][][]uint64
	Lanes int
}

// VerifySpec is one member of a coalesced verification sweep: the
// (trials, seed) pair Kernel.Verify takes. Trial inputs and lane counts
// derive from the pair alone, so a batched sweep is reproducible.
type VerifySpec struct {
	Trials int
	Seed   int64
}

// VerifySpanWords reports how many 64-bit arena words a coalesced
// verification sweep of `trials` trials occupies — the sum over trials
// of the words their scheduled lane counts need. Admission-side batchers
// use it to keep a batch's combined lanes within one row's bitlines
// without knowing the trial schedule.
func VerifySpanWords(trials int) int {
	w := 0
	for t := 0; t < trials; t++ {
		w += transpose.Words(verifyLaneSchedule[t%len(verifyLaneSchedule)])
	}
	return w
}

// laneSpan is one member's word-aligned slice of the shared arena.
type laneSpan struct {
	off   int    // word offset into every combined row
	words int    // transpose.Words(lanes)
	lanes int    // the member's SIMD width
	mask  uint64 // last-word mask for the member's lane count
}

func laneMaskFor(lanes int) uint64 {
	if r := lanes % 64; r != 0 {
		return (uint64(1) << uint(r)) - 1
	}
	return ^uint64(0)
}

// laneSpans lays members out word-aligned and returns the combined lane
// count: the last member's lanes end the arena, so the simulator's
// global tail mask coincides with the last member's mask.
func laneSpans(counts []int) ([]laneSpan, int) {
	spans := make([]laneSpan, len(counts))
	off := 0
	for i, lanes := range counts {
		spans[i] = laneSpan{off: off, words: transpose.Words(lanes), lanes: lanes, mask: laneMaskFor(lanes)}
		off += spans[i].words
	}
	last := spans[len(spans)-1]
	return spans, (last.off+last.words-1)*64 + (last.lanes-1)%64 + 1
}

// checkBatchable rejects kernel configurations a coalesced pass cannot
// honor: epoch recovery checkpoints one request's subarray state and has
// no per-member rollback story, and the combined lanes must fit one
// physical row — a coalesced pass is one device pass, not a tiling.
func (k *Kernel) checkBatchable(totalLanes int) error {
	if k.Opts.Recovery.Enabled() {
		return optionsErrf("recovery (detector %s) is single-subarray only; batched execution does not support it", k.Opts.Recovery.Detector)
	}
	if bl := k.Opts.Geometry.Bitlines(); totalLanes > bl {
		return optionsErrf("batch needs %d lanes, exceeding the %d bitlines of one row; split the batch", totalLanes, bl)
	}
	return nil
}

// combinedRows allocates the shared operand arena: for every input, Width
// bit-rows of `words` words each, cut from one backing array per input.
func combinedRows(inputs []IOSpec, words int) map[string][][]uint64 {
	combined := make(map[string][][]uint64, len(inputs))
	for _, in := range inputs {
		rows := make([][]uint64, in.Width)
		carve(rows, make([]uint64, in.Width*words), words)
		combined[in.Name] = rows
	}
	return combined
}

// spanRows slices one member's lane span out of combined rows. The span's
// tail word is masked to the member's lane count — the solo path's global
// tail mask, applied at the member's own boundary — so padding lanes from
// neighbors (constant-pattern bits land there) never leak into a member's
// rows. Spans are disjoint, so masking in place on the shared backing is
// safe.
func spanRows(rows [][]uint64, sp laneSpan) [][]uint64 {
	sub := make([][]uint64, len(rows))
	for b := range rows {
		w := rows[b][sp.off : sp.off+sp.words]
		w[sp.words-1] &= sp.mask
		sub[b] = w
	}
	return sub
}

// pass is the one skeleton under every host-layout verb — Run, RunWide,
// RunBatch, RunRowsBatchCtx and the coalesced VerifyBatchCtx: members of counts[i]
// lanes each are laid out as word-aligned spans of one arena, scatter puts
// member i's operands into its span, the kernel runs ONCE over the combined
// lanes, and each member gets its span of the output rows beside the pass's
// shared time and counters. Everything that can be wrong with a member is
// found before anything executes: scatter validates before it writes, and
// its error is the caller's mistake — classed ErrOptions here, naming the
// member unless it is the only one.
func (k *Kernel) pass(ctx context.Context, counts []int, scatter func(i int, arena map[string][][]uint64, sp laneSpan) error) ([]*RunResult, error) {
	if len(counts) == 0 {
		return nil, optionsErrf("empty batch")
	}
	memberErr := func(i int, err error) error {
		if len(counts) == 1 {
			return optionsErrf("%v", err)
		}
		return optionsErrf("batch member %d: %v", i, err)
	}
	for i, lanes := range counts {
		if lanes <= 0 {
			return nil, memberErr(i, fmt.Errorf("lanes must be positive, have %d", lanes))
		}
	}
	spans, total := laneSpans(counts)
	if len(counts) > 1 {
		if err := k.checkBatchable(total); err != nil {
			return nil, err
		}
	}
	arena := combinedRows(k.Inputs, transpose.Words(total))
	for i, sp := range spans {
		if err := scatter(i, arena, sp); err != nil {
			return nil, memberErr(i, err)
		}
	}
	res, err := k.runRows(ctx, arena, total, FaultConfig{}, 0)
	if err != nil {
		return nil, err
	}
	if len(spans) == 1 {
		// The lone member's span is the arena: the result is already its own
		// (and, a batch of one may run a recovery-enabled kernel, carries the
		// recovery layer's statistics).
		return []*RunResult{res}, nil
	}
	out := make([]*RunResult, len(spans))
	for i, sp := range spans {
		member := *res
		member.Rows = make(map[string][][]uint64, len(res.Rows))
		for name, rs := range res.Rows {
			member.Rows[name] = spanRows(rs, sp)
		}
		out[i] = &member
	}
	return out, nil
}

// RunRowsBatchCtx packs the members' vertical operand rows into disjoint
// word-aligned lane spans of one arena, runs the kernel ONCE over the
// combined lanes, and demultiplexes each member's output rows and stats.
// Per member the outputs, simulated time and engine counters are byte-
// identical to a solo RunRowsCtx call (ScratchBytes reflects the shared
// arena and is the one field that grows with the batch). A single-member
// batch delegates to the solo path outright: its rows run where they are.
func (k *Kernel) RunRowsBatchCtx(ctx context.Context, batches []LaneBatch) (res []*RunResult, err error) {
	defer recoverToError(&err)
	if len(batches) == 1 {
		r, err := k.runRows(ctx, batches[0].Rows, batches[0].Lanes, FaultConfig{}, 0)
		if err != nil {
			return nil, err
		}
		return []*RunResult{r}, nil
	}
	counts := make([]int, len(batches))
	for i, b := range batches {
		counts[i] = b.Lanes
	}
	return k.pass(ctx, counts, func(i int, arena map[string][][]uint64, sp laneSpan) error {
		for _, in := range k.Inputs {
			src, ok := batches[i].Rows[in.Name]
			if !ok {
				return fmt.Errorf("missing input operand %q", in.Name)
			}
			if len(src) < in.Width {
				return fmt.Errorf("input %q has %d bit-rows, kernel needs %d", in.Name, len(src), in.Width)
			}
			transpose.PasteRows(arena[in.Name], sp.off, src[:in.Width], sp.lanes)
		}
		return nil
	})
}

// RunBatch is RunBatchCtx without a context.
func (k *Kernel) RunBatch(reqs []BatchRun) (outs []map[string][]uint64, res []*RunResult, err error) {
	return k.RunBatchCtx(nil, reqs)
}

// RunBatchCtx executes N independent Run-shaped requests in one
// simulated device pass: one transpose into a shared arena (each
// member's operands land directly in its lane span), one program
// execution, one timing replay. Outputs and per-member results are
// byte-identical to solo Kernel.Run calls — Run is this with one member;
// see RunRowsBatchCtx for the guarantee. Operand widths are limited to 64
// bits, like Kernel.Run.
func (k *Kernel) RunBatchCtx(ctx context.Context, reqs []BatchRun) (outs []map[string][]uint64, res []*RunResult, err error) {
	defer recoverToError(&err)
	for _, io := range [][]IOSpec{k.Inputs, k.Outputs} {
		for _, op := range io {
			if op.Width > 64 {
				return nil, nil, optionsErrf("operand %q is %d bits wide; Run and RunBatch handle up to 64 (use RunWide or RunRowsBatchCtx)", op.Name, op.Width)
			}
		}
	}
	counts := make([]int, len(reqs))
	for i, r := range reqs {
		counts[i] = r.Lanes
	}
	res, err = k.pass(ctx, counts, func(i int, arena map[string][][]uint64, sp laneSpan) error {
		for _, in := range k.Inputs {
			vals, err := laneValues(reqs[i].Inputs, in.Name, sp.lanes)
			if err != nil {
				return err
			}
			transpose.ToVerticalInto(arena[in.Name], sp.off, vals, in.Width, sp.lanes)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	outs = make([]map[string][]uint64, len(reqs))
	for i := range reqs {
		out := make(map[string][]uint64, len(k.Outputs))
		for _, o := range k.Outputs {
			out[o.Name] = transpose.FromVertical(res[i].Rows[o.Name], o.Width, reqs[i].Lanes)
		}
		outs[i] = out
	}
	return outs, res, nil
}

// laneValues looks a member's operand up and requires one value per lane.
func laneValues[V any](inputs map[string][]V, name string, lanes int) ([]V, error) {
	vals, ok := inputs[name]
	if !ok {
		return nil, fmt.Errorf("missing input %q", name)
	}
	if len(vals) != lanes {
		return nil, fmt.Errorf("input %q has %d values, want one per lane (%d)", name, len(vals), lanes)
	}
	return vals, nil
}

// scatterWide transposes one member's wide (limbs-per-lane) operands into
// its span of the arena.
func (k *Kernel) scatterWide(arena map[string][][]uint64, sp laneSpan, inputs map[string][][]uint64) error {
	for _, in := range k.Inputs {
		vals, err := laneValues(inputs, in.Name, sp.lanes)
		if err != nil {
			return err
		}
		transpose.ToVerticalWideInto(arena[in.Name], sp.off, vals, in.Width, sp.lanes)
	}
	return nil
}

// gatherWide transposes one member's output rows back into wide values.
func (k *Kernel) gatherWide(rows map[string][][]uint64, lanes int) map[string][][]uint64 {
	out := make(map[string][][]uint64, len(k.Outputs))
	for _, o := range k.Outputs {
		out[o.Name] = transpose.FromVerticalWide(rows[o.Name], o.Width, lanes)
	}
	return out
}

// VerifyBatchCtx coalesces N independent verification sweeps into ONE
// simulated device pass. Every (spec, trial) pair expands into a lane
// span — the trial's inputs and lane count derive from (seed, trial)
// exactly as in VerifyCtx — the program runs once over the combined
// lanes, and each trial's outputs are compared against the reference
// dataflow evaluation. perSpec[i] is what a solo VerifyCtx(trials_i,
// seed_i, 1) call would return for member i: nil, or the ErrVerify-
// classed discrepancy from its lowest failing trial. The second return
// is a pass-level failure (budget, cancellation, malformed batch) that
// applies to every member — the same program and budget would stop a
// solo run at the identical point. A single sweep has nothing to share a
// pass with and runs as VerifyCtx does, one pass per trial.
func (k *Kernel) VerifyBatchCtx(ctx context.Context, specs []VerifySpec) (perSpec []error, err error) {
	defer recoverToError(&err)
	if len(specs) == 0 {
		return nil, optionsErrf("empty verify batch")
	}
	for i, sp := range specs {
		if sp.Trials <= 0 {
			return nil, optionsErrf("verify batch member %d: trials must be positive, have %d", i, sp.Trials)
		}
	}
	if len(specs) == 1 {
		return []error{k.VerifyCtx(ctx, specs[0].Trials, specs[0].Seed, 1, FaultConfig{})}, nil
	}

	// Every (spec, trial) pair is one member of the pass.
	var trials []trial
	var owner, counts []int
	for si, sp := range specs {
		for t := 0; t < sp.Trials; t++ {
			tr := k.newVerifyTrial(sp.Seed, t)
			trials = append(trials, tr)
			owner = append(owner, si)
			counts = append(counts, tr.lanes)
		}
	}
	res, err := k.pass(ctx, counts, func(i int, arena map[string][][]uint64, sp laneSpan) error {
		return k.scatterWide(arena, sp, trials[i].inWide)
	})
	if err != nil {
		return nil, err
	}
	perSpec = make([]error, len(specs))
	for i, tr := range trials {
		// Trials ascend within a spec, so the first error recorded is the
		// lowest failing trial's — the solo worker=1 sweep's stopping point.
		if perSpec[owner[i]] == nil {
			perSpec[owner[i]] = k.compareTrial(tr, res[i].Rows)
		}
	}
	return perSpec, nil
}
