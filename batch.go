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

import (
	"context"
	"math/rand"

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

// RunRowsBatch executes every member in one simulated device pass over a
// shared arena (see RunRowsBatchCtx).
func (k *Kernel) RunRowsBatch(batches []LaneBatch) (res []*RunResult, err error) {
	defer recoverToError(&err)
	return k.runRowsBatch(nil, batches)
}

// RunRowsBatchCtx packs the members' vertical operand rows into disjoint
// word-aligned lane spans of one arena, runs the kernel ONCE over the
// combined lanes, and demultiplexes each member's output rows and stats.
// Per member the outputs, simulated time and engine counters are byte-
// identical to a solo RunRowsCtx call (ScratchBytes reflects the shared
// arena and is the one field that grows with the batch). A single-member
// batch delegates to the solo path outright.
func (k *Kernel) RunRowsBatchCtx(ctx context.Context, batches []LaneBatch) (res []*RunResult, err error) {
	defer recoverToError(&err)
	return k.runRowsBatch(ctx, batches)
}

func (k *Kernel) runRowsBatch(ctx context.Context, batches []LaneBatch) ([]*RunResult, error) {
	if len(batches) == 0 {
		return nil, optionsErrf("empty batch")
	}
	for i, b := range batches {
		if b.Lanes <= 0 {
			return nil, optionsErrf("batch member %d: lanes must be positive, have %d", i, b.Lanes)
		}
	}
	if len(batches) == 1 {
		r, err := k.runRows(ctx, batches[0].Rows, batches[0].Lanes, nil)
		if err != nil {
			return nil, err
		}
		return []*RunResult{r}, nil
	}
	counts := make([]int, len(batches))
	for i, b := range batches {
		counts[i] = b.Lanes
	}
	spans, total := laneSpans(counts)
	if err := k.checkBatchable(total); err != nil {
		return nil, err
	}
	combined := combinedRows(k.Inputs, transpose.Words(total))
	for i, b := range batches {
		for _, in := range k.Inputs {
			src, ok := b.Rows[in.Name]
			if !ok {
				return nil, optionsErrf("batch member %d: missing input operand %q", i, in.Name)
			}
			if len(src) < in.Width {
				return nil, optionsErrf("batch member %d: input %q has %d bit-rows, kernel needs %d", i, in.Name, len(src), in.Width)
			}
			transpose.PasteRows(combined[in.Name], spans[i].off, src[:in.Width], b.Lanes)
		}
	}

	res, err := k.runRows(ctx, combined, total, nil)
	if err != nil {
		return nil, err
	}
	return demuxResults(res, spans), nil
}

// demuxResults gives each member its own lane span of the combined output
// rows (see spanRows) beside everything else the pass reports: the shared
// time and counters, and — a batch of one may run a recovery-enabled kernel
// — the recovery layer's statistics.
func demuxResults(res *RunResult, spans []laneSpan) []*RunResult {
	out := make([]*RunResult, len(spans))
	for i, sp := range spans {
		member := *res
		member.Rows = make(map[string][][]uint64, len(res.Rows))
		for name, rs := range res.Rows {
			member.Rows[name] = spanRows(rs, sp)
		}
		out[i] = &member
	}
	return out
}

// RunBatch is RunBatchCtx without a context.
func (k *Kernel) RunBatch(reqs []BatchRun) (outs []map[string][]uint64, res []*RunResult, err error) {
	return k.RunBatchCtx(nil, reqs)
}

// RunBatchCtx executes N independent Run-shaped requests in one
// simulated device pass: one transpose into a shared arena (each
// member's operands land directly in its lane span), one program
// execution, one timing replay. Outputs and per-member results are
// byte-identical to solo Kernel.Run calls; see RunRowsBatchCtx for the
// guarantee. Operand widths are limited to 64 bits, like Kernel.Run.
func (k *Kernel) RunBatchCtx(ctx context.Context, reqs []BatchRun) (outs []map[string][]uint64, res []*RunResult, err error) {
	defer recoverToError(&err)
	if len(reqs) == 0 {
		return nil, nil, optionsErrf("empty batch")
	}
	counts := make([]int, len(reqs))
	for i, r := range reqs {
		if r.Lanes <= 0 {
			return nil, nil, optionsErrf("batch member %d: lanes must be positive, have %d", i, r.Lanes)
		}
		counts[i] = r.Lanes
	}
	spans, total := laneSpans(counts)
	if len(reqs) > 1 {
		if err := k.checkBatchable(total); err != nil {
			return nil, nil, err
		}
	}
	for _, in := range k.Inputs {
		if in.Width > 64 {
			return nil, nil, optionsErrf("input %q is %d bits wide; RunBatch handles up to 64 (use RunRowsBatch)", in.Name, in.Width)
		}
	}
	combined := combinedRows(k.Inputs, transpose.Words(total))
	for i, r := range reqs {
		for _, in := range k.Inputs {
			vals, ok := r.Inputs[in.Name]
			if !ok {
				return nil, nil, optionsErrf("batch member %d: missing input %q", i, in.Name)
			}
			if len(vals) != r.Lanes {
				return nil, nil, optionsErrf("batch member %d: input %q has %d values, want one per lane (%d)", i, in.Name, len(vals), r.Lanes)
			}
			transpose.ToVerticalInto(combined[in.Name], spans[i].off, vals, in.Width, r.Lanes)
		}
	}
	for _, o := range k.Outputs {
		if o.Width > 64 {
			return nil, nil, optionsErrf("output %q is %d bits wide; RunBatch handles up to 64 (use RunRowsBatch)", o.Name, o.Width)
		}
	}

	combinedRes, err := k.runRows(ctx, combined, total, nil)
	if err != nil {
		return nil, nil, err
	}
	res = demuxResults(combinedRes, spans)
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

// VerifyBatch is VerifyBatchCtx without a context.
func (k *Kernel) VerifyBatch(specs []VerifySpec) (perSpec []error, err error) {
	return k.VerifyBatchCtx(nil, specs)
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
// solo run at the identical point.
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
		return []error{k.VerifyCtx(ctx, specs[0].Trials, specs[0].Seed, 1)}, nil
	}

	// Expand (spec, trial) pairs into lane spans.
	type trialRef struct {
		spec   int
		trial  int
		lanes  int
		inWide map[string][][]uint64
	}
	var refs []trialRef
	var counts []int
	for si, sp := range specs {
		for t := 0; t < sp.Trials; t++ {
			lanes := verifyLaneSchedule[t%len(verifyLaneSchedule)]
			rng := rand.New(rand.NewSource(trialSeed(sp.Seed, t)))
			inWide := randWideInputs(rng, k.Inputs, lanes)
			k.clampAnnotated(inWide)
			refs = append(refs, trialRef{spec: si, trial: t, lanes: lanes, inWide: inWide})
			counts = append(counts, lanes)
		}
	}
	spans, total := laneSpans(counts)
	if err := k.checkBatchable(total); err != nil {
		return nil, err
	}
	combined := combinedRows(k.Inputs, transpose.Words(total))
	for ri, ref := range refs {
		for _, in := range k.Inputs {
			src := transpose.ToVerticalWide(ref.inWide[in.Name], in.Width, ref.lanes)
			transpose.PasteRows(combined[in.Name], spans[ri].off, src, ref.lanes)
		}
	}

	res, err := k.runRows(ctx, combined, total, nil)
	if err != nil {
		return nil, err
	}

	perSpec = make([]error, len(specs))
	for ri, ref := range refs {
		if perSpec[ref.spec] != nil {
			// refs are ordered by ascending trial within a spec, so the
			// recorded error is the lowest failing trial's — the solo
			// worker=1 sweep's stopping point.
			continue
		}
		got := make(map[string][][]uint64, len(k.Outputs))
		for _, o := range k.Outputs {
			got[o.Name] = transpose.FromVerticalWide(spanRows(res.Rows[o.Name], spans[ri]), o.Width, ref.lanes)
		}
		perSpec[ref.spec] = k.compareTrial(ref.trial, ref.inWide, got, ref.lanes)
	}
	return perSpec, nil
}
