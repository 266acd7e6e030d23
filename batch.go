package chopper

// Batched execution: several independent requests against the same kernel
// ride ONE simulated device pass. Bit-serial PUD execution makes this
// exact, not approximate — every micro-op acts bitwise per lane, so
// packing request operands into disjoint, word-aligned lane spans of the
// pass's rows and running the program once produces, per request, the
// same output bits, the same simulated time and the same engine counters
// as running each request alone (the op stream, and therefore the timing
// replay and every budget checkpoint, does not depend on the lane count).
// This is the amortization SIMDRAM identifies for bit-serial PUD: the
// fixed per-pass work — transposition and timing replay — is paid once
// for N requests. chopperd's internal/serve batcher is the main client.
//
// One skeleton, Kernel.pass, carries every verb but a tile: RunRowsCtx,
// Run and RunWide are passes of one member, RunBatch and RunRowsBatchCtx
// of N, a reliability trial of one, and a fault-free verify sweep —
// VerifyCtx's or a coalesced VerifyBatchCtx's — of one member per trial,
// as many trials as a row holds. Every pass lays its rows out in the kernel's
// plan on the pooled worker's own buffer (hostRows.bind, the binding a
// tile uses too); the verbs differ only in how they scatter a member's
// operands into its span of the input rows (rows pasted, one value per
// lane, or wide limbs) and how they gather its span of the output rows
// (copied out as rows, transposed to wide lanes, or compared against the
// reference in place). Operands are copied in and outputs copied out, so
// no pooled state references caller memory.

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
// without knowing the trial schedule. It is the count verification packs
// by: fault-free trials fill a pass while their words fit one row
// (Kernel.verifyPasses), so a batch kept within a row is one pass.
func VerifySpanWords(trials int) int {
	w := 0
	for t := 0; t < trials; t++ {
		w += transpose.Words(verifyLaneSchedule[t%len(verifyLaneSchedule)])
	}
	return w
}

// laneSpan is one member's word-aligned slice of the pass's rows.
type laneSpan struct {
	off   int    // word offset into every row
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
// count: the last member's lanes end the rows, so the simulator's global
// tail mask coincides with the last member's mask.
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

// scatterFunc puts member i's operands into its span sp of a pass's input
// rows, on the pass's worker w.
type scatterFunc func(w *simWorker, i int, in [][]uint64, sp laneSpan) error

// pass is the one skeleton under every verb but a tile. Members of
// counts[i] lanes each are laid out as word-aligned spans of one lane
// range, and on one pooled worker:
//
//  1. the plan layout is bound at the combined lane count (hostRows.bind,
//     which also fills the constant rows for it);
//  2. scatter puts member i's operands into its span of the input rows;
//  3. the kernel runs once over the combined lanes (execute), under the
//     fault models of fc seeded with seed;
//  4. gather reads every member's span of the output rows, before the
//     worker goes back to the pool.
//
// Everything that can be wrong with a member is found before anything
// executes: scatter checks a member's operands as it copies them in, and
// its error is the caller's mistake — classed ErrOptions here, naming the
// member unless it is the only one. The result is the pass's time,
// counters, fault counts and scratch, shared by every member; its Rows are
// the gather's business.
func (k *Kernel) pass(ctx context.Context, counts []int, fc FaultConfig, seed int64, scatter scatterFunc,
	gather func(w *simWorker, out [][]uint64, spans []laneSpan)) (RunResult, error) {
	if len(counts) == 0 {
		return RunResult{}, optionsErrf("empty batch")
	}
	memberErr := func(i int, err error) error {
		if len(counts) == 1 {
			return optionsErrf("%v", err)
		}
		return optionsErrf("batch member %d: %v", i, err)
	}
	for i, lanes := range counts {
		if lanes <= 0 {
			return RunResult{}, memberErr(i, fmt.Errorf("lanes must be positive, have %d", lanes))
		}
	}
	spans, total := laneSpans(counts)
	if len(counts) > 1 {
		if err := k.checkBatchable(total); err != nil {
			return RunResult{}, err
		}
	}
	p, err := k.tilePlan()
	if err != nil {
		return RunResult{}, err
	}
	w := getWorker()
	defer putWorker(w)
	in, out := w.host.bind(p, total)
	for i, sp := range spans {
		if err := scatter(w, i, in, sp); err != nil {
			return RunResult{}, memberErr(i, err)
		}
	}
	res, err := k.execute(ctx, w, total, fc, seed)
	if err != nil {
		return RunResult{}, err
	}
	gather(w, out, spans)
	return res, nil
}

// rowsPass is a pass whose members get their output rows: the output
// region is copied out once, and member i's result views its span of the
// copy beside the pass's shared time and counters.
func (k *Kernel) rowsPass(ctx context.Context, counts []int, fc FaultConfig, seed int64, scatter scatterFunc) ([]*RunResult, error) {
	var rows []map[string][][]uint64
	res, err := k.pass(ctx, counts, fc, seed, scatter, func(_ *simWorker, out [][]uint64, spans []laneSpan) {
		rows = k.keepRows(out, spans)
	})
	if err != nil {
		return nil, err
	}
	members := make([]*RunResult, len(rows))
	for i := range rows {
		m := res
		m.Rows = rows[i]
		members[i] = &m
	}
	return members, nil
}

// keepRows copies a pass's output rows out once and cuts each member's
// outputs, per operand in k.Outputs order, from its span of the copy. A
// span's tail word is masked to the member's lane count — the solo run's
// tail mask, applied at the member's own boundary — so padding lanes
// (constant-pattern bits land there) never leak into a member's rows, and
// every row's capacity ends with its span.
func (k *Kernel) keepRows(out [][]uint64, spans []laneSpan) []map[string][][]uint64 {
	last := spans[len(spans)-1]
	words := last.off + last.words
	buf := make([]uint64, len(out)*words)
	for r, row := range out {
		copy(buf[r*words:], row)
	}
	views := make([][]uint64, len(spans)*len(out))
	members := make([]map[string][][]uint64, len(spans))
	for i, sp := range spans {
		rows := views[i*len(out) : (i+1)*len(out)]
		for r := range rows {
			lo, hi := r*words+sp.off, r*words+sp.off+sp.words
			rows[r] = buf[lo:hi:hi]
			rows[r][sp.words-1] &= sp.mask
		}
		m := make(map[string][][]uint64, len(k.Outputs))
		for _, o := range k.Outputs {
			m[o.Name], rows = rows[:o.Width:o.Width], rows[o.Width:]
		}
		members[i] = m
	}
	return members
}

// laneBatches runs members whose operands arrive as vertical rows
// (RunRowsCtx, RunRowsBatchCtx): each is checked and pasted into its span,
// and gets its output rows back.
func (k *Kernel) laneBatches(ctx context.Context, batches []LaneBatch, fc FaultConfig, seed int64) ([]*RunResult, error) {
	p, err := k.tilePlan()
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(batches))
	for i, b := range batches {
		counts[i] = b.Lanes
	}
	return k.rowsPass(ctx, counts, fc, seed, func(_ *simWorker, i int, in [][]uint64, sp laneSpan) error {
		return p.pasteRows(k.Inputs, in, batches[i].Rows, sp)
	})
}

// RunRowsBatchCtx packs the members' vertical operand rows into disjoint
// word-aligned lane spans of one pass, runs the kernel ONCE over the
// combined lanes, and demultiplexes each member's output rows and stats.
// Per member the outputs, simulated time and engine counters are byte-
// identical to a solo RunRowsCtx call (ScratchBytes reflects the shared
// pass and is the one field that grows with the batch). A single-member
// batch is a solo run.
func (k *Kernel) RunRowsBatchCtx(ctx context.Context, batches []LaneBatch) (res []*RunResult, err error) {
	defer recoverToError(&err)
	return k.laneBatches(ctx, batches, FaultConfig{}, 0)
}

// RunBatch is RunBatchCtx without a context.
func (k *Kernel) RunBatch(reqs []BatchRun) (outs []map[string][]uint64, res []*RunResult, err error) {
	return k.RunBatchCtx(nil, reqs)
}

// RunBatchCtx executes N independent Run-shaped requests in one
// simulated device pass: one transpose into the pass's rows (each
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
	res, err = k.rowsPass(ctx, counts, FaultConfig{}, 0, func(_ *simWorker, i int, in [][]uint64, sp laneSpan) error {
		for _, spec := range k.Inputs {
			vals, err := laneValues(reqs[i].Inputs, spec.Name, sp.lanes)
			if err != nil {
				return err
			}
			transpose.ToVerticalInto(in, sp.off, vals, spec.Width, sp.lanes)
			in = in[spec.Width:]
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

// scatterWide is the one wide (limbs-per-lane) scatter, RunWide's, every
// trial's and every tile's: lanes lo..lo+n-1 of each input, in k.Inputs
// order, are transposed into the input rows at word offset off. Every
// input must hold at least lo+n lanes.
func (k *Kernel) scatterWide(in [][]uint64, off int, inputs map[string][][]uint64, lo, n int) {
	for _, spec := range k.Inputs {
		transpose.ToVerticalWideInto(in, off, inputs[spec.Name][lo:lo+n], spec.Width, n)
		in = in[spec.Width:]
	}
}

// trialPass runs trials as the members of one pass, laid out in a row of
// trial lanes on the pass's worker: each member's operands are drawn there
// as it is scattered, and check sees each trial — its operands attached —
// with its span of the output rows, on the worker whose reference arena
// and scratch it compares in, before the worker goes back to the pool.
func (k *Kernel) trialPass(ctx context.Context, trials []trial, fc FaultConfig, seed int64, check func(i int, t trial, w *simWorker, out [][]uint64, sp laneSpan)) (RunResult, error) {
	counts, base, total := make([]int, len(trials)), make([]int, len(trials)), 0
	for i, t := range trials {
		counts[i], base[i] = t.lanes, total
		total += t.lanes
	}
	return k.pass(ctx, counts, fc, seed, func(w *simWorker, i int, in [][]uint64, sp laneSpan) error {
		k.scatterWide(in, sp.off, w.trial.draw(k, trials[i], base[i], total), 0, sp.lanes)
		return nil
	}, func(w *simWorker, out [][]uint64, spans []laneSpan) {
		for i, sp := range spans {
			t := trials[i]
			t.inWide = w.trial.operands(k.Inputs, base[i], t.lanes)
			check(i, t, w, out, sp)
		}
	})
}

// VerifyBatchCtx coalesces N independent verification sweeps into shared
// simulated device passes. Every (spec, trial) pair expands into a lane
// span — the trial's inputs and lane count derive from (seed, trial)
// exactly as in VerifyCtx — the spans fill passes by the one rule VerifyCtx
// packs its own trials by (a row's words; see VerifySpanWords), and each
// trial's outputs are compared against the reference dataflow evaluation.
// perSpec[i] is what a solo VerifyCtx(trials_i, seed_i) call would return
// for member i when that is a discrepancy: nil, or the ErrVerify-classed
// error from its lowest failing trial. The second return is a pass-level
// failure (budget, cancellation, malformed batch) that applies to every
// member — the same program and budget would stop a solo run at the
// identical point. The passes run one after another on the caller's
// goroutine.
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
	var trials []trial
	var owner []int
	for si, sp := range specs {
		for t := 0; t < sp.Trials; t++ {
			trials = append(trials, newVerifyTrial(sp.Seed, t))
			owner = append(owner, si)
		}
	}
	perSpec = make([]error, len(specs))
	if err := k.verifyPasses(ctx, 1, trials, FaultConfig{}, 0, func(i int, t trial, w *simWorker, out [][]uint64, sp laneSpan) error {
		// Trials ascend within a spec, so the first error recorded is the
		// lowest failing trial's — the solo sweep's answer.
		if perSpec[owner[i]] == nil {
			perSpec[owner[i]] = k.compareTrial(w, t, out, sp)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return perSpec, nil
}
