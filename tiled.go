package chopper

import (
	"context"
	"fmt"

	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/hostmodel"
	"chopper/internal/isa"
	"chopper/internal/pool"
	"chopper/internal/sim"
	"chopper/internal/transpose"
	"chopper/internal/vircoe"
)

// hostRows is the one host binding under every run: it serves a program's
// WRITE and READ transfers out of rows laid out by the kernel's tilePlan on
// a backing array of its own, so a tag resolves to its row through tables
// built once per kernel. Every pass and every tile binds through bind, and
// a verb copies its operands in and its outputs out: no binding ever points
// at a caller's memory. Bindings are pooled with the simWorker that owns
// them, so the HostIO closures are built once per binding, not per run.
type hostRows struct {
	plan *tilePlan   // tag tables of the kernel whose run is in flight
	rows [][]uint64  // row r of plan's layout, carved from buf
	buf  []uint64    // backing array of the rows, recycled across runs
	io   *sim.HostIO // serves rows through plan; built on first use
}

func (h *hostRows) hostIO() *sim.HostIO {
	if h.io == nil {
		h.io = &sim.HostIO{
			WriteData: func(tag int) []uint64 {
				if r := rowOf(h.plan.writeRow, tag); r >= 0 {
					return h.rows[r]
				}
				return nil
			},
			ReadSink: func(tag int, data []uint64) {
				if r := rowOf(h.plan.readRow, tag); r >= 0 {
					copy(h.rows[r], data)
				}
			},
		}
	}
	return h.io
}

// bind lays plan p's rows out at transpose.Words(lanes) words each on the
// recycled backing array and returns the input and output regions. Output
// rows start zeroed (a bit the program never READs reads as zero) and each
// constant row holds its pattern, masked to `lanes` lanes (the simulator
// copies a WRITE payload, so one row per pattern serves every WRITE); input
// rows are left for the caller to overwrite — every word of every row the
// program WRITEs.
func (h *hostRows) bind(p *tilePlan, lanes int) (in, out [][]uint64) {
	words, total := transpose.Words(lanes), p.inRows+p.outRows+len(p.consts)
	h.plan, h.rows, h.buf = p, sized(h.rows, total), sized(h.buf, total*words)
	clear(h.buf[p.inRows*words : (p.inRows+p.outRows)*words])
	buf := h.buf
	for r := range h.rows {
		h.rows[r], buf = buf[:words:words], buf[words:]
	}
	for i, pat := range p.consts {
		row := h.rows[p.inRows+p.outRows+i]
		for w := range row {
			row[w] = pat
		}
		row[words-1] &= laneMaskFor(lanes)
	}
	return h.rows[:p.inRows], h.rows[p.inRows : p.inRows+p.outRows]
}

// sized returns buf resized to n entries, reallocating only when its
// capacity falls short; the contents are the caller's to overwrite.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// pasteRows is RunRowsCtx's scatter of operands the caller hands over as
// vertical rows (rows[operand][bit][word]): each operand is shape-checked,
// then copied into span sp of the input rows with each row's tail word
// masked to the member's lanes. A bit the program WRITEs needs a bit-row of
// at least transpose.Words(lanes) words, while an untagged bit (a narrowed
// kernel leaves high bits untagged) may be absent, since the program never
// reads it; longer rows are fine. The first offender, in k.Inputs order and lowest bit first, is
// the error.
func (p *tilePlan) pasteRows(inputs []IOSpec, in [][]uint64, rows map[string][][]uint64, sp laneSpan) error {
	words, r := transpose.Words(sp.lanes), 0
	for _, spec := range inputs {
		op, ok := rows[spec.Name]
		for bit := 0; bit < spec.Width; bit, r = bit+1, r+1 {
			switch {
			case !p.tagged[r]:
			case !ok:
				return fmt.Errorf("missing input operand %q", spec.Name)
			case bit >= len(op):
				return fmt.Errorf("input %q has %d bit-rows, kernel needs bit %d", spec.Name, len(op), bit)
			case len(op[bit]) < words:
				return fmt.Errorf("input %q bit %d has %d words, %d lanes need %d", spec.Name, bit, len(op[bit]), sp.lanes, words)
			}
		}
		transpose.PasteRows(in, sp.off, op[:min(len(op), spec.Width)], sp.lanes)
		in = in[spec.Width:]
	}
	return nil
}

// tilePlan is the run-independent half of a kernel's host I/O: every pass
// and every tile keeps its vertical rows in one layout (the bit-rows of each input in
// k.Inputs order, then of each output in k.Outputs order, then one row per
// constant pattern), so WRITE/READ tags resolve to a row index once per
// kernel instead of through a map lookup per transfer.
type tilePlan struct {
	inRows, outRows int
	tagged          []bool   // input row r has a WRITE tag (narrowing drops high bits)
	consts          []uint64 // fill pattern of constant row i
	writeRow        []int32  // WRITE tag -> row (input bit or constant), -1 if none
	readRow         []int32  // READ tag -> row (output bit), -1 if none
}

func rowOf(table []int32, tag int) int32 {
	if tag < 0 || tag >= len(table) {
		return -1
	}
	return table[tag]
}

// tilePlan returns the kernel's tag tables, building them (or the error
// that a tag outside the operands raises) on first run of any kind.
func (k *Kernel) tilePlan() (*tilePlan, error) {
	k.planOnce.Do(func() { k.plan, k.planErr = k.buildTilePlan() })
	return k.plan, k.planErr
}

func (k *Kernel) buildTilePlan() (*tilePlan, error) {
	p := &tilePlan{}
	for _, in := range k.Inputs {
		p.inRows += in.Width
	}
	for _, o := range k.Outputs {
		p.outRows += o.Width
	}
	// Constant tags share the WRITE tag space with the input bits.
	writeTags := 0
	for tag := range k.constPattern {
		writeTags = max(writeTags, tag+1)
	}
	var err error
	if p.writeRow, err = tagTable(k.inputTag, k.Inputs, 0, writeTags); err != nil {
		return nil, err
	}
	if p.readRow, err = tagTable(k.outputTag, k.Outputs, p.inRows, 0); err != nil {
		return nil, err
	}
	p.tagged = make([]bool, p.inRows)
	for _, r := range p.writeRow {
		if r >= 0 {
			p.tagged[r] = true
		}
	}
	for tag, pat := range k.constPattern {
		if tag >= 0 {
			p.writeRow[tag] = int32(p.inRows + p.outRows + len(p.consts))
			p.consts = append(p.consts, pat)
		}
	}
	return p, nil
}

// tagTable resolves the tags of one transfer direction ("name[bit]" -> tag)
// onto the bit-rows of its operands, laid out in specs order from row
// `first`. The table holds at least minLen entries.
func tagTable(tags map[string]int, specs []IOSpec, first, minLen int) ([]int32, error) {
	type span struct{ first, width int }
	at := make(map[string]span, len(specs))
	for _, s := range specs {
		at[s.Name] = span{first, s.Width}
		first += s.Width
	}
	for _, tag := range tags {
		minLen = max(minLen, tag+1)
	}
	table := make([]int32, minLen)
	for i := range table {
		table[i] = -1
	}
	for name, tag := range tags {
		base, bit, err := splitBit(name)
		if err != nil {
			return nil, err
		}
		sp, ok := at[base]
		if !ok || bit < 0 || bit >= sp.width || tag < 0 {
			return nil, fmt.Errorf("chopper: tag %d names bit %q outside the kernel's operands", tag, name)
		}
		table[tag] = int32(sp.first + bit)
	}
	return table, nil
}

// TiledResult carries a tiled run's outputs and timing.
type TiledResult struct {
	// Outputs, per operand, one limb-slice per lane (lane order matches
	// the inputs).
	Outputs map[string][][]uint64
	// TimeNs is the device makespan for the whole dataset: the slowest
	// channel shard's command-level replay time. It excludes host<->DRAM
	// transfers, which TransferNs/EndToEndNs account for separately.
	TimeNs float64
	// TransferNs is the host<->DRAM DMA time: scattering every input tile
	// into the subarrays plus gathering every output tile back, at the
	// aggregate bandwidth of the geometry's channels (the Table-I DMA model,
	// hostmodel.DefaultTransfer).
	TransferNs float64
	// OverlapNs is the portion of TransferNs hidden behind device compute:
	// with more than one tile, the DMA of one tile pipelines against the
	// computation of the others, so only the first scatter and last gather
	// sit fully exposed on the critical path.
	OverlapNs float64
	// EndToEndNs is TimeNs + TransferNs - OverlapNs: the host-visible
	// completion time of the whole tiled run.
	EndToEndNs float64
	// Tiles is how many subarray tiles the data was split into.
	Tiles int
	// Channels is how many per-channel engine shards replayed the issue
	// stream (min of the geometry's channel count and Tiles).
	Channels int
	// Stats are the timing-engine counters, merged across channel shards
	// in shard order (makespans take the max, counters sum). The issue
	// order depends on the program and the placements, never on the data,
	// so Stats and Emit (and with them TimeNs) are facts of the kernel:
	// its first run of a given shape computes them, later runs reuse them.
	Stats dram.EngineStats
	// Emit are the VIRCOE emitter statistics, merged across channel
	// shards the same way (SpanNs takes the max, counters sum).
	Emit vircoe.Stats
}

// RunTiledCtx executes the kernel over a dataset of any number of lanes: the
// lanes are split into subarray-sized tiles, the tiles are placed across
// channels and banks (one per bank, wrapping onto further subarrays), the
// issue order of each channel is produced by VIRCOE and streamed, command
// by command, into that channel's own timing engine, and every tile
// executes functionally on the simulated device. Inputs and outputs use
// the wide (limb-slice per lane) representation of RunWide; the output
// lanes of one operand share one backing array.
//
// The timing half is computed once per kernel: VIRCOE's order is a
// function of the program and the placements, so the first run with a
// given tile count and option set schedules each distinct channel shard
// and keeps the result on the kernel; later runs pay only for their data
// (transposes and functional execution) and report the identical Stats,
// Emit and TimeNs. Options edited on k.Opts between runs are honored.
//
// This is the whole-dataset counterpart of RunWide and exercises the same
// multi-subarray path the benchmark harness measures. The timing replay
// honors Options.SALP — the emitter is subarray-aware with it and
// bank-aware without — and the result separates device makespan from
// host-transfer time.
//
// Under the guard layer, workers observe a non-nil ctx between tiles and
// inside each tile's execution loop, the kernel's Options.Budget caps total
// functional steps (sim-steps) and timing-engine commands (dram-commands),
// and budget/deadline stops surface with their sentinel identity at any
// worker count. Both budgets are pre-checked deterministically — the total
// work (tiles x program length) is known before anything runs — so the stop
// is identical at every worker count and every channel count instead of
// depending on which shard trips it.
func (k *Kernel) RunTiledCtx(ctx context.Context, inputs map[string][][]uint64, lanes int) (res *TiledResult, err error) {
	defer recoverToError(&err)
	if lanes <= 0 {
		return nil, optionsErrf("lanes must be positive, have %d", lanes)
	}
	if k.Opts.Recovery.Enabled() {
		// Epoch recovery checkpoints one subarray's state; the tiled
		// multi-subarray path has no per-tile rollback story yet.
		return nil, optionsErrf("recovery (detector %s) is single-subarray only; tiled execution does not support it", k.Opts.Recovery.Detector)
	}
	geom := k.Opts.Geometry
	tileLanes := geom.Bitlines()
	tiles := (lanes + tileLanes - 1) / tileLanes
	channels := geom.ChannelCount()
	maxTiles := channels * geom.Banks * geom.SubarraysPB
	if tiles > maxTiles {
		return nil, optionsErrf("%d lanes need %d tiles; device holds %d", lanes, tiles, maxTiles)
	}
	for _, in := range k.Inputs {
		if len(inputs[in.Name]) < lanes {
			return nil, optionsErrf("input %q has %d lanes, need %d", in.Name, len(inputs[in.Name]), lanes)
		}
	}
	// The functional steps and the commands VIRCOE emits are both tiles x
	// program length, known before anything runs. A per-op run of that
	// many ops stops at the lower positive limit (sim-steps on a tie), on
	// its op limit+1; report that stop up front, so it is identical at
	// every worker and channel count instead of depending on which tile
	// or shard trips it.
	b := k.Opts.Budget
	dim, limit := guard.DimSimSteps, b.MaxSimSteps
	if c := b.MaxDRAMCommands; c > 0 && (limit <= 0 || c < limit) {
		dim, limit = guard.DimDRAMCommands, c
	}
	if limit > 0 && tiles*len(k.prog.Ops) > limit {
		return nil, guard.Check(dim, limit, limit+1)
	}

	plan, err := k.tilePlan()
	if err != nil {
		return nil, err
	}
	laneCount := func(tile int) int {
		return min(lanes-tile*tileLanes, tileLanes)
	}
	// Bytes the host scatters into the device and gathers back (the
	// vertical row data of every tile).
	var inBytes, outBytes float64
	for tl := 0; tl < tiles; tl++ {
		w := transpose.Words(laneCount(tl))
		inBytes += float64(plan.inRows * w * 8)
		outBytes += float64(plan.outRows * w * 8)
	}
	// Each output is one lane-header slice over one limb backing array;
	// the tile workers carve their own lane ranges out of both.
	outs := make([][][]uint64, len(k.Outputs))
	outLimbs := make([][]uint64, len(k.Outputs))
	for i, o := range k.Outputs {
		outs[i] = make([][]uint64, lanes)
		outLimbs[i] = make([]uint64, lanes*((o.Width+63)/64))
	}

	// Tiles are independent subarray programs: each runs the same micro-op
	// sequence over its own rows, so their functional execution fans out
	// across GOMAXPROCS workers. A worker owns its tile's lane range end to
	// end — transpose in, execute, gather out straight into that range of
	// the final outputs — and shares nothing writable with the other tiles,
	// which keeps the fan-out race-free and the result identical at any
	// worker count.
	runTile := func(tl int) error {
		lo, n := tl*tileLanes, laneCount(tl)
		w := getWorker()
		defer putWorker(w)
		w.m.Reconfigure(sim.MachineConfig{Geom: geom, Arch: k.Opts.Target})
		in, outRows := w.host.bind(plan, n)
		k.scatterWide(in, 0, inputs, lo, n)
		if err := k.runFunctional(ctx, &w.m, w.host.hostIO(), guard.Budget{}, false); err != nil {
			if guard.IsGuard(err) {
				return err
			}
			return fmt.Errorf("chopper: tile %d: %w", tl, err)
		}
		for i, o := range k.Outputs {
			limbs := (o.Width + 63) / 64
			transpose.FromVerticalWideInto(outs[i][lo:lo+n], outLimbs[i][lo*limbs:(lo+n)*limbs], outRows, o.Width, n)
			outRows = outRows[o.Width:]
		}
		return nil
	}

	// The timing model is sharded by memory channel: tiles are dealt
	// round-robin across the shards, each shard VIRCOE-orders its own
	// tiles' issue stream straight into its own engine (channels have
	// independent command/data buses, so makespan depends only on
	// intra-channel issue order and bus contention). At Channels=1 the
	// single shard is exactly a serial replay of the whole stream.
	timing := dram.TimingFor(k.Opts.Target, geom)
	shards := min(channels, tiles)
	// The deal leaves the first tiles%shards shards one tile ahead of the
	// rest, so a run holds at most two distinct shard sizes; each is timed
	// once, however many shards share it. counts[0] is the size of shard 0.
	per, ahead := tiles/shards, tiles%shards
	counts := []int{per}
	if ahead > 0 {
		counts = []int{per + 1, per}
	}
	timed := make([]struct {
		shardTiming
		err error
	}, len(counts))

	// Timing depends on the program and the placements, never on the data,
	// so the shard sizes join the tiles in one job set — timing first: on a
	// cold one-channel kernel the serial emit+replay starts at once and
	// rides under the tile fan-out. A replay's error lands in its slot
	// instead of going to the pool (which skips indices above a failure),
	// so a tile error outranks a shard error, lowest index first, at any
	// worker count.
	if err := pool.RunCtx(ctx, 0, len(counts)+tiles, func(j int) error {
		if j >= len(counts) {
			return runTile(j - len(counts))
		}
		timed[j].shardTiming, timed[j].err = k.replayShard(ctx, counts[j], timing, k.Opts.SALP)
		return nil
	}); err != nil {
		return nil, err
	}
	// Shard results merge shard by shard in fixed shard order, so the float
	// sums are byte-identical at any worker count — and to a run that
	// replayed every shard separately.
	var engStats dram.EngineStats
	var emitStats vircoe.Stats
	for s := 0; s < shards; s++ {
		r := &timed[len(timed)-1]
		if s < ahead {
			r = &timed[0]
		}
		if r.err != nil {
			return nil, r.err
		}
		engStats.Merge(r.eng)
		emitStats.Merge(r.emit)
	}
	deviceNs := engStats.MakespanNs

	// Host-transfer accounting: one scatter DMA moves every input tile in,
	// one gather DMA moves every output tile out, each at the aggregate
	// bandwidth of all channels. With more than one tile the wire time
	// (streaming, minus the fixed DMA setup) pipelines against device
	// compute — tile t+1 scatters while tile t computes — so all but a
	// 1/tiles fraction of it can hide behind the makespan.
	tr := hostmodel.DefaultTransfer()
	scatterNs := tr.TimeNs(inBytes, channels)
	gatherNs := tr.TimeNs(outBytes, channels)
	var wireNs float64
	if inBytes > 0 {
		wireNs += scatterNs - tr.DMASetupNs
	}
	if outBytes > 0 {
		wireNs += gatherNs - tr.DMASetupNs
	}
	overlapNs := wireNs * float64(tiles-1) / float64(tiles)
	if overlapNs > deviceNs {
		overlapNs = deviceNs
	}
	transferNs := scatterNs + gatherNs

	res = &TiledResult{
		Outputs:    make(map[string][][]uint64, len(k.Outputs)),
		TimeNs:     deviceNs,
		TransferNs: transferNs,
		OverlapNs:  overlapNs,
		EndToEndNs: deviceNs + transferNs - overlapNs,
		Tiles:      tiles,
		Channels:   shards,
		Stats:      engStats,
		Emit:       emitStats,
	}
	for i, o := range k.Outputs {
		res.Outputs[o.Name] = outs[i]
	}
	return res, nil
}

// shardKey is every value a memo entry's computation reads besides the
// immutable program: two entries with equal keys are the same computation.
// A shard's replay leaves pol and words zero; a clean recovered run's
// entry (Kernel.execute) names its policy and its lane words, the one
// lane-dependent figure of such a run being its CheckpointBytes.
type shardKey struct {
	tiles  int
	geom   dram.Geometry
	timing dram.Timing
	salp   bool
	pol    sim.RecoveryPolicy
	words  int
}

// shardTiming is what one channel shard's replay, or one clean recovered
// run, yields.
type shardTiming struct {
	eng  dram.EngineStats
	emit vircoe.Stats
	rec  sim.RecoveryStats
}

// memo returns the kernel's memo entry for key, if it has one.
func (k *Kernel) memo(key shardKey) (shardTiming, bool) {
	k.shardMu.Lock()
	defer k.shardMu.Unlock()
	st, ok := k.shards[key]
	return st, ok
}

// remember stores a memo entry. Concurrent first runs of a key may each
// compute and store it; the values are equal.
func (k *Kernel) remember(key shardKey, st shardTiming) {
	k.shardMu.Lock()
	defer k.shardMu.Unlock()
	if k.shards == nil {
		k.shards = make(map[shardKey]shardTiming)
	}
	k.shards[key] = st
}

// replayShard returns the timing of one channel shard of `count` tiles,
// scheduling it (emitShard) on the first call per key only: a replay that
// ran to completion is kept on the kernel — a stopped one is not — and
// later calls with an equal key return it after observing ctx once.
// A single-subarray run is the one-tile shard without SALP: its only
// placement is (0, 0), so the emitter issues the program in order into an
// engine configured like the run's machine.
func (k *Kernel) replayShard(ctx context.Context, count int, timing dram.Timing, salp bool) (shardTiming, error) {
	key := shardKey{tiles: count, geom: k.Opts.Geometry, timing: timing, salp: salp}
	if st, ok := k.memo(key); ok {
		return st, guard.Ctx(ctx)
	}
	st, err := k.emitShard(ctx, key)
	if err == nil {
		k.remember(key, st)
	}
	return st, err
}

// emitShard computes the timing of one channel shard: VIRCOE emits the
// shard's issue order one command at a time straight into an engine of its
// own, so the stream is never materialized (only a kernel's first run of a
// shape gets here: later runs find the result in the memo). ctx is observed
// every 256 commands, as Engine.RunCtx does, and a stop ends the emission.
func (k *Kernel) emitShard(ctx context.Context, key shardKey) (shardTiming, error) {
	pls, err := vircoe.Placements(key.geom, key.tiles)
	if err != nil {
		return shardTiming{}, err // unreachable: RunTiledCtx bounds the tile count by the capacity
	}
	eng := dram.NewEngine(key.geom, key.timing, key.salp)
	// The emitter believes what the device is: every subarray a unit of its
	// own under SALP, same-bank subarrays serialized without it.
	mode := vircoe.BankAware
	if key.salp {
		mode = vircoe.SubarrayAware
	}
	issued := 0
	emit := vircoe.EmitTo(k.prog, pls, mode, key.timing, func(bank, sub int, op *isa.Op) bool {
		if issued&255 == 0 {
			if err = guard.Ctx(ctx); err != nil {
				return false
			}
		}
		issued++
		eng.IssueOp(bank, sub, op.Kind, op.Imm)
		return true
	})
	if err == nil {
		err = guard.Ctx(ctx)
	}
	return shardTiming{eng: eng.Stats(), emit: emit}, err
}
