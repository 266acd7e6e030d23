package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"

	"chopper"
	"chopper/internal/dram"
	"chopper/internal/fault"
	"chopper/internal/hostmodel"
	"chopper/internal/pool"
	"chopper/internal/sim"
	"chopper/internal/transpose"
	"chopper/internal/vircoe"
	"chopper/internal/workloads"
)

// runKernel is one paper kernel of run_paths with everything its five ops
// need, built in the prepare phase.
type runKernel struct {
	name  string
	c     *refCase
	k     *chopper.Kernel // plain, Ambit, OptFull
	kr    *chopper.Kernel // the same with Recovery{DetectorParity}
	rows  map[string][][]uint64
	batch []chopper.BatchRun
	seed  int64 // fault-injection and Verify seed
}

var faultConfig = chopper.FaultConfig{TRAFlipRate: faultFlipRate}

// prepareRunPaths: four kernels compiled here, five entry paths each.
func prepareRunPaths(e *env) (prepared, error) {
	cy := &cycle{name: "run_paths"}
	var kernels []*runKernel
	var fp []string
	for _, name := range paperKernels {
		s, ok := workloads.Get(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		rk := &runKernel{name: name, c: e.oracle.newCase(name, s.Src, refLanes), seed: streamSeed(e.seed, "faults "+name)}
		var err error
		if rk.k, err = chopper.Compile(s.Src, chopper.Options{Target: chopper.Ambit}); err != nil {
			return nil, err
		}
		if rk.kr, err = chopper.Compile(s.Src, chopper.Options{Target: chopper.Ambit, Recovery: chopper.Recovery{Detector: chopper.DetectorParity}}); err != nil {
			return nil, err
		}
		e.oracle.bind(rk.c, rk.k.Inputs)
		rk.rows = make(map[string][][]uint64, len(rk.k.Inputs))
		for _, in := range rk.k.Inputs {
			rk.rows[in.Name] = transpose.ToVerticalWide(rk.c.in[in.Name], in.Width, refLanes)
		}
		for m := 0; m < batchMembers; m++ {
			rk.batch = append(rk.batch, chopper.BatchRun{Lanes: batchLanes, Inputs: narrowSlice(rk.c.in, m*batchLanes, (m+1)*batchLanes)})
		}
		kernels = append(kernels, rk)
		cy.kernels = append(cy.kernels, rk.k, rk.kr)
		fp = append(fp, fmt.Sprintf("%s=%d/%d", name, len(rk.k.Prog().Ops), len(rk.kr.Prog().Ops)))
		cy.items = append(cy.items, rk.items()...)
	}
	cy.fp = strings.Join(fp, ";")

	// The reference is established from one checked plain pass per
	// kernel; every op of the cycle then answers to it. The workload's
	// simulated totals are the passes of one cycle (Verify reports no
	// simulated time, so its trials are not in them).
	cy.checkFn = func() (simTotals, error) {
		var t simTotals
		ks, cs := make([]*chopper.Kernel, len(kernels)), make([]*refCase, len(kernels))
		for i, rk := range kernels {
			ks[i], cs[i] = rk.k, rk.c
		}
		if err := establishCases(e.oracle, ks, cs); err != nil {
			return t, err
		}
		for i, rk := range kernels {
			res, err := checkKernel(rk.k, rk.c)
			if err != nil {
				return t, err
			}
			t.add(len(rk.k.Prog().Ops)+len(rk.kr.Prog().Ops), passFacts(rk.k, res))
			for _, f := range cy.known[i*5+1 : i*5+4] { // fault, recovered, batch16
				t.add(0, f)
			}
		}
		return t, nil
	}
	return cy, nil
}

// items are the kernel's five ops, in cycle order.
func (rk *runKernel) items() []libItem {
	k, kr, c := rk.k, rk.kr, rk.c
	uops := int64(len(k.Prog().Ops))
	mk := func(path string, do func(*opObs) (simFacts, error), stage func(*stageCtx, string, int) error) libItem {
		obs := &opObs{}
		return libItem{
			item:  item{name: rk.name + "/" + path, path: path, do: func() (simFacts, error) { return do(obs) }},
			obs:   obs,
			stage: stage,
		}
	}
	observe := func(obs *opObs, res *chopper.RunResult) simFacts {
		obs.eng, obs.scratch, obs.rec, obs.simNs = res.Stats, res.ScratchBytes, res.RecoveryStats, res.TimeNs
		return simFacts{Executed: uops, TimeNs: res.TimeNs, EnergyPJ: res.Stats.EnergyPJ}
	}
	return []libItem{
		mk("plain", func(*opObs) (simFacts, error) {
			out, err := k.RunWide(c.in, refLanes)
			if err != nil {
				return simFacts{}, err
			}
			return simFacts{Executed: uops}, c.checkWide(out)
		}, func(sc *stageCtx, it string, root int) error {
			rows := sc.toVertical(it, root, k, c.in, 0, refLanes)
			outRows, _, err := sc.stagePass(it, root, k, sc.decoded[k], rows, refLanes, nil)
			if err != nil {
				return err
			}
			sc.mismatchIf(c.checkWide(sc.fromVertical(it, root, k, outRows, refLanes)) != nil)
			return nil
		}),
		mk("fault", func(obs *opObs) (simFacts, error) {
			// A faulty run's outputs are not checked: only that it
			// completes and injects exactly the same faults every time.
			res, err := k.RunRowsUnderFault(rk.rows, refLanes, faultConfig, rk.seed)
			if err != nil {
				return simFacts{}, err
			}
			f := observe(obs, res)
			obs.faults = res.Faults.Total()
			f.Detail = fmt.Sprintf("%+v", res.Faults)
			return f, nil
		}, func(sc *stageCtx, it string, root int) error {
			inj := fault.New(faultConfig, rk.seed)
			_, _, err := sc.stagePass(it, root, k, sc.decoded[k], rk.rows, refLanes, inj)
			return err
		}),
		mk("recovered", func(obs *opObs) (simFacts, error) {
			res, err := kr.RunRows(rk.rows, refLanes)
			if err != nil {
				return simFacts{}, err
			}
			f := observe(obs, res)
			// CheckpointBytes is host storage (it follows the pooled
			// arena's high-water mark), not a simulated fact.
			exact := res.RecoveryStats
			exact.CheckpointBytes = 0
			f.Detail = fmt.Sprintf("%+v", exact)
			for _, o := range kr.Outputs {
				got := transpose.FromVerticalWide(res.Rows[o.Name], o.Width, refLanes)
				if err := c.checkLanes(o.Name, got, 0); err != nil {
					return f, err
				}
			}
			return f, nil
		}, func(sc *stageCtx, it string, root int) error {
			return sc.stageRecovered(it, root, kr, sc.decoded[kr], rk.rows, refLanes)
		}),
		mk("batch16", func(obs *opObs) (simFacts, error) {
			outs, res, err := k.RunBatch(rk.batch)
			if err != nil {
				return simFacts{}, err
			}
			f := observe(obs, res[0]) // the members share one pass
			for m, out := range outs {
				if err := c.checkNarrow(out, m*batchLanes, batchLanes); err != nil {
					return f, fmt.Errorf("member %d: %w", m, err)
				}
			}
			return f, nil
		}, func(sc *stageCtx, it string, root int) error {
			return sc.stageBatch(it, root, rk)
		}),
		mk("verify4", func(*opObs) (simFacts, error) {
			return simFacts{Executed: verifyTrials * uops}, k.Verify(verifyTrials, rk.seed)
		}, func(sc *stageCtx, it string, root int) error {
			return sc.stageVerify(it, root, rk)
		}),
	}
}

func (sc *stageCtx) mismatchIf(bad bool) {
	if bad {
		sc.count("trace.staged_mismatch", 1)
	}
}

// stageRecovered is the recovered pass: the epoch loop lives in
// sim.Machine, so it is one span on a benchmark-owned machine.
func (sc *stageCtx) stageRecovered(item string, root int, kr *chopper.Kernel, d *sim.Decoded, rows map[string][][]uint64, lanes int) error {
	id := sc.tr.begin("harness.hostio", item, root)
	io, _, err := buildHostIO(kr, rows, lanes)
	sc.tr.end(id, 0, "")
	if err != nil {
		return err
	}
	cfg := sim.MachineConfig{Geom: kr.Opts.Geometry, Arch: kr.Opts.Target, Lanes: lanes}
	if sc.machine == nil {
		sc.machine = sim.NewMachine(cfg)
	} else {
		sc.machine.Reconfigure(cfg)
	}
	rec := kr.Opts.Recovery
	pol := sim.RecoveryPolicy{Detector: sim.DetectParity, EpochUops: rec.EpochUops, MaxRetries: rec.MaxRetries, BackoffNs: float64(rec.Backoff.Nanoseconds())}
	return sc.timed("sim.exec", item, root, "uops", func() (float64, error) {
		_, _, err := sc.machine.RunRecoveredCtx(nil, d, 0, 0, io, kr.Opts.Budget, pol)
		return float64(d.Len()), err
	})
}

// stageBatch mirrors Kernel.RunBatchCtx: every member transposed into its
// word-aligned span of one arena, one pass, every member transposed out.
func (sc *stageCtx) stageBatch(item string, root int, rk *runKernel) error {
	k := rk.k
	spanWords := transpose.Words(batchLanes)
	words := spanWords * batchMembers
	total := (words-1)*64 + (batchLanes-1)%64 + 1
	combined := make(map[string][][]uint64, len(k.Inputs))
	for _, in := range k.Inputs {
		backing := make([]uint64, in.Width*words)
		rows := make([][]uint64, in.Width)
		for b := range rows {
			rows[b], backing = backing[:words], backing[words:]
		}
		combined[in.Name] = rows
	}
	for m, req := range rk.batch {
		for _, in := range k.Inputs {
			id := sc.tr.begin("transpose.to_vertical", item, root)
			transpose.ToVerticalInto(combined[in.Name], m*spanWords, req.Inputs[in.Name], in.Width, batchLanes)
			sc.tr.end(id, float64(in.Width*spanWords*8), "bytes")
		}
	}
	outRows, _, err := sc.stagePass(item, root, k, sc.decoded[k], combined, total, nil)
	if err != nil {
		return err
	}
	mask := ^uint64(0)
	if r := batchLanes % 64; r != 0 {
		mask = uint64(1)<<uint(r) - 1
	}
	for m := range rk.batch {
		out := make(map[string][]uint64, len(k.Outputs))
		for _, o := range k.Outputs {
			id := sc.tr.begin("transpose.from_vertical", item, root)
			sub := make([][]uint64, o.Width)
			for b, row := range outRows[o.Name] {
				w := row[m*spanWords : (m+1)*spanWords]
				w[spanWords-1] &= mask
				sub[b] = w
			}
			out[o.Name] = transpose.FromVertical(sub, o.Width, batchLanes)
			sc.tr.end(id, float64(o.Width*spanWords*8), "bytes")
		}
		sc.mismatchIf(rk.c.checkNarrow(out, m*batchLanes, batchLanes) != nil)
	}
	return nil
}

// verifyLanes is the lane count of Kernel.Verify's trial t (its schedule
// straddles the 64-bit word boundary on purpose).
var verifyLanes = []int{64, 1, 63, 65, 128}

// stageVerify mirrors Kernel.Verify: the trials fan out over the
// processors; each draws random operands, runs one pass and evaluates the
// reference lane by lane, which dominates it. The trial operands are the
// benchmark's own draw (the root package's trial seeds are not reachable),
// which moves no time: the pass is data-independent.
func (sc *stageCtx) stageVerify(item string, root int, rk *runKernel) error {
	k := rk.k
	fan := sc.tr.begin("pool.run", item, root)
	err := pool.RunCtx(nil, 0, verifyTrials, func(t int) error {
		lanes := verifyLanes[t%len(verifyLanes)]
		id := sc.tr.begin("harness.inputs", item, fan)
		in := genWide(rand.New(rand.NewSource(rk.seed+int64(t))), k.Inputs, lanes)
		sc.tr.end(id, 0, "")
		rows := sc.toVertical(item, fan, k, in, 0, lanes)
		outRows, _, err := sc.stagePass(item, fan, k, sc.decoded[k], rows, lanes, nil)
		if err != nil {
			return err
		}
		got := sc.fromVertical(item, fan, k, outRows, lanes)
		return sc.timed("dfg.eval", item, fan, "lanes", func() (float64, error) {
			args := make(map[string]*big.Int, len(in))
			for l := 0; l < lanes; l++ {
				for name, vals := range in {
					args[name] = limbsToBig(vals[l])
				}
				want, err := k.Graph.Eval(args)
				if err != nil {
					return float64(l), err
				}
				for _, o := range k.Outputs {
					sc.mismatchIf(limbsToBig(got[o.Name][l]).Cmp(want[o.Name]) != 0)
				}
			}
			return float64(lanes), nil
		})
	})
	sc.tr.end(fan, verifyTrials, "trials")
	return err
}

// tiledConfigs are the three device configurations of tiled_16.
var tiledConfigs = []struct {
	path     string
	channels int
	salp     bool
}{{"ch1", 1, false}, {"ch4", 4, false}, {"salp", 1, true}}

// prepareTiled16: four kernels x three device configurations, 16 tiles.
func prepareTiled16(e *env) (prepared, error) {
	cy := &cycle{name: "tiled_16"}
	lanes := tiledTiles * tiledGeometry(1).Bitlines()
	type tiledOp struct {
		k   *chopper.Kernel
		c   *refCase
		obs *opObs
	}
	var ops []tiledOp
	var fp []string
	for _, name := range paperKernels {
		s, ok := workloads.Get(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		c := e.oracle.newCase(name, s.Src, lanes)
		for _, cfg := range tiledConfigs {
			k, err := chopper.Compile(s.Src, chopper.Options{Target: chopper.Ambit, Geometry: tiledGeometry(cfg.channels), SALP: cfg.salp})
			if err != nil {
				return nil, err
			}
			e.oracle.bind(c, k.Inputs)
			op := tiledOp{k: k, c: c, obs: &opObs{}}
			ops = append(ops, op)
			cy.kernels = append(cy.kernels, k)
			fp = append(fp, fmt.Sprintf("%s/%s=%d", name, cfg.path, len(k.Prog().Ops)))
			cy.items = append(cy.items, libItem{
				item: item{name: name + "/" + cfg.path, path: cfg.path, do: func() (simFacts, error) {
					res, err := op.k.RunTiledCtx(nil, op.c.in, lanes)
					if err != nil {
						return simFacts{}, err
					}
					op.obs.eng, op.obs.emit, op.obs.simNs = res.Stats, res.Emit, res.EndToEndNs
					op.obs.transferNs, op.obs.overlapNs = res.TransferNs, res.OverlapNs
					f := simFacts{Executed: int64(res.Tiles * len(op.k.Prog().Ops)), TimeNs: res.EndToEndNs, EnergyPJ: res.Stats.EnergyPJ}
					if op.c.want == nil {
						// Warm-up: the correctness stage establishes the
						// reference from these outputs.
						op.c.pending = res.Outputs
						return f, nil
					}
					return f, op.c.checkWide(res.Outputs)
				}},
				obs: op.obs,
				stage: func(sc *stageCtx, it string, root int) error {
					return sc.stageTiled(it, root, op.k, op.c, lanes, op.obs.simNs)
				},
			})
		}
	}
	cy.fp = strings.Join(fp, ";")
	cy.checkFn = func() (simTotals, error) {
		var t simTotals
		var jobs []refJob
		for i, op := range ops {
			if op.c.pending != nil {
				jobs = append(jobs, refJob{op.c, op.k, op.c.pending})
				op.c.pending = nil
			}
			t.add(len(op.k.Prog().Ops), cy.known[i])
		}
		return t, e.oracle.establishAll(jobs)
	}
	return cy, nil
}

// stageTiled mirrors Kernel.RunTiledCtx: per-tile transposes, the
// functional fan-out over the tiles, the per-channel VIRCOE emission and
// timing replay, the host-transfer model, and the gather.
func (sc *stageCtx) stageTiled(item string, root int, k *chopper.Kernel, c *refCase, lanes int, publicNs float64) error {
	geom := k.Opts.Geometry
	tileLanes := geom.Bitlines()
	tiles := (lanes + tileLanes - 1) / tileLanes
	d := sc.decoded[k]

	tileRows := make([]map[string][][]uint64, tiles)
	var inBytes, outBytes float64
	for tl := range tileRows {
		tileRows[tl] = sc.toVertical(item, root, k, c.in, tl*tileLanes, tileLanes)
	}
	for _, in := range k.Inputs {
		inBytes += float64(tiles * in.Width * transpose.Words(tileLanes) * 8)
	}
	for _, o := range k.Outputs {
		outBytes += float64(tiles * o.Width * transpose.Words(tileLanes) * 8)
	}

	outRows := make([]map[string][][]uint64, tiles)
	fan := sc.tr.begin("pool.run", item, root)
	err := pool.RunCtx(nil, 0, tiles, func(tl int) (err error) {
		outRows[tl], err = sc.exec(item, fan, k, d, tileRows[tl], tileLanes, nil)
		return err
	})
	sc.tr.end(fan, float64(tiles), "tiles")
	if err != nil {
		return err
	}

	mode := vircoe.BankAware
	if k.Opts.SALP {
		mode = vircoe.SubarrayAware
	}
	timing := dram.TimingFor(k.Opts.Target, geom)
	shards := geom.ChannelCount()
	if shards > tiles {
		shards = tiles
	}
	makespan := make([]float64, shards)
	fan = sc.tr.begin("pool.run", item, root)
	err = pool.RunCtx(nil, 0, shards, func(s int) error {
		count := tiles / shards
		if s < tiles%shards {
			count++
		}
		var stream []dram.Placed
		if err := sc.timed("vircoe.emit", item, fan, "commands", func() (float64, error) {
			pls, err := vircoe.Placements(geom, count)
			if err != nil {
				return 0, err
			}
			stream, _ = vircoe.Emit(k.Prog(), pls, mode, timing)
			return float64(len(stream)), nil
		}); err != nil {
			return err
		}
		st, err := sc.replay(item, fan, dram.NewEngine(geom, timing, k.Opts.SALP), stream)
		makespan[s] = st.MakespanNs
		return err
	})
	sc.tr.end(fan, float64(shards), "shards")
	if err != nil {
		return err
	}

	var deviceNs, endToEndNs float64
	for _, ns := range makespan {
		if ns > deviceNs {
			deviceNs = ns
		}
	}
	_ = sc.timed("hostmodel.transfer", item, root, "bytes", func() (float64, error) {
		// The arithmetic keeps the root package's order of operations,
		// so the result can be compared with its float for float.
		tr := hostmodel.DefaultTransfer()
		scatter, gather := tr.TimeNs(inBytes, geom.ChannelCount()), tr.TimeNs(outBytes, geom.ChannelCount())
		var wire float64
		wire += scatter - tr.DMASetupNs
		wire += gather - tr.DMASetupNs
		overlap := wire * float64(tiles-1) / float64(tiles)
		if overlap > deviceNs {
			overlap = deviceNs
		}
		transfer := scatter + gather
		endToEndNs = deviceNs + transfer - overlap
		return inBytes + outBytes, nil
	})
	sc.mismatchIf(endToEndNs != publicNs)

	for tl := range outRows {
		got := sc.fromVertical(item, root, k, outRows[tl], tileLanes)
		for _, o := range k.Outputs {
			sc.mismatchIf(c.checkLanes(o.Name, got[o.Name], tl*tileLanes) != nil)
		}
	}
	return nil
}
