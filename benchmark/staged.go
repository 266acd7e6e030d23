package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"chopper"
	"chopper/internal/baseline"
	"chopper/internal/bitslice"
	"chopper/internal/codegen"
	"chopper/internal/dfg"
	"chopper/internal/dram"
	"chopper/internal/dsl"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/narrow"
	"chopper/internal/obs"
	"chopper/internal/pool"
	"chopper/internal/sim"
	"chopper/internal/transpose"
	"chopper/internal/typecheck"
)

// The staged re-drive calls each layer's public functions in the order the
// root package does, one span per call, on state the benchmark owns. What
// the root package adds around those calls (chopper.go, tiled.go, batch.go)
// cannot be reached from outside; it shows as the *_glue_share metrics: the
// public API's time minus the staged spans'.

// stageCtx is the state of a traced run's staged cycles.
type stageCtx struct {
	tr *tracer

	mu     sync.Mutex
	counts map[string]float64 // exact per-layer counts of the current cycle

	scratch codegen.Scratch
	decoded map[*chopper.Kernel]*sim.Decoded // this cycle's decoded programs
	tiles   sync.Pool                        // *tileState, the benchmark's own subarrays
	engines sync.Pool                        // *dram.Engine, single-subarray timing engines
	machine *sim.Machine
}

// tileState is one benchmark-owned subarray with its spill store.
type tileState struct {
	sub   *sim.Subarray
	spill *sim.SpillStore
}

func newStageCtx(tr *tracer) *stageCtx {
	return &stageCtx{tr: tr, counts: map[string]float64{}}
}

func (sc *stageCtx) count(name string, v float64) {
	sc.mu.Lock()
	sc.counts[name] += v
	sc.mu.Unlock()
}

func (sc *stageCtx) countMax(name string, v float64) {
	sc.mu.Lock()
	if v > sc.counts[name] {
		sc.counts[name] = v
	}
	sc.mu.Unlock()
}

func (sc *stageCtx) tile(dRows, lanes int) *tileState {
	if v := sc.tiles.Get(); v != nil {
		ts := v.(*tileState)
		ts.sub.Configure(dRows, lanes)
		ts.spill.Reset()
		return ts
	}
	return &tileState{sub: sim.NewSubarray(dRows, lanes), spill: sim.NewSpillStore()}
}

// timed runs fn inside a span and records the size fn reports.
func (sc *stageCtx) timed(name, item string, parent int, unit string, fn func() (float64, error)) error {
	id := sc.tr.begin(name, item, parent)
	size, err := fn()
	sc.tr.end(id, size, unit)
	return err
}

// compileSpec is one way of compiling one source: what a compile op does
// through the public API, and what the staged re-drive mirrors.
type compileSpec struct {
	src      string
	target   chopper.Target
	opt      chopper.OptLevel
	narrow   bool
	harden   bool
	baseline bool
	cache    *chopper.KernelCache // non-nil: the op is a warm CompileCtxCached hit
}

func (cs compileSpec) options() chopper.Options {
	o := chopper.Options{Target: cs.target, Harden: cs.harden, Cache: cs.cache}.WithOpt(cs.opt)
	if cs.narrow {
		o.Narrow = chopper.NarrowSafe
	}
	return o
}

// compile is the public-API call of the op.
func (cs compileSpec) compile() (*chopper.Kernel, chopper.CacheOutcome, error) {
	if cs.baseline {
		k, err := chopper.CompileBaseline(cs.src, cs.options())
		return k, chopper.CacheNone, err
	}
	return chopper.CompileCtxCached(nil, cs.src, cs.options())
}

// stageCompile mirrors chopper.compileSource/compileGraphAt stage by stage
// and returns the micro-op count of the program it produced.
func (sc *stageCtx) stageCompile(item string, root int, cs compileSpec) (int, error) {
	if cs.cache != nil {
		var uops int
		err := sc.timed("kcache.hit", item, root, "uops", func() (float64, error) {
			k, outcome, err := cs.compile()
			if err != nil {
				return 0, err
			}
			if outcome != chopper.CacheHit {
				return 0, fmt.Errorf("cache outcome %v, want hit", outcome)
			}
			uops = len(k.Prog().Ops)
			return float64(uops), nil
		})
		return uops, err
	}

	var prog *dsl.Program
	if err := sc.timed("dsl.parse", item, root, "bytes", func() (_ float64, err error) {
		prog, err = dsl.ParseAndExpand(cs.src)
		return float64(len(cs.src)), err
	}); err != nil {
		return 0, err
	}
	var checked *typecheck.Checked
	if err := sc.timed("typecheck.check", item, root, "", func() (_ float64, err error) {
		checked, err = typecheck.Check(prog)
		return 0, err
	}); err != nil {
		return 0, err
	}
	var graph *dfg.Graph
	if err := sc.timed("dfg.build", item, root, "values", func() (_ float64, err error) {
		graph, err = dfg.BuildNode(checked, prog.Entry().Name)
		if err != nil {
			return 0, err
		}
		return float64(len(graph.Values)), nil
	}); err != nil {
		return 0, err
	}
	dRows := dram.DefaultGeometry().DRows()

	if cs.baseline {
		var uops int
		err := sc.timed("baseline.generate", item, root, "uops", func() (float64, error) {
			res, err := baseline.Generate(graph, baseline.Options{Arch: cs.target, DRows: dRows})
			if err != nil {
				return 0, err
			}
			uops = len(res.Prog.Ops)
			return float64(uops), nil
		})
		return uops, err
	}

	lower := graph
	if cs.narrow {
		// Like the root package, a narrowing failure falls back to the
		// declared-width graph; here it is counted instead of silent.
		_ = sc.timed("narrow.run", item, root, "bits", func() (float64, error) {
			ng, st, err := narrow.Run(graph, narrow.Opts{})
			if err != nil {
				sc.count("narrow.fallbacks", 1)
				return 0, nil
			}
			lower = ng
			sc.count("narrow.live_bits", float64(st.LiveBits))
			sc.count("narrow.declared_bits", float64(st.DeclaredBits))
			return float64(st.LiveBits), nil
		})
	}
	fold := cs.opt.HasReuse()
	var net *logic.Net
	if err := sc.timed("bitslice.lower", item, root, "gates", func() (_ float64, err error) {
		net, err = bitslice.Lower(lower, bitslice.Options{Fold: fold, Workers: pool.Size(0)})
		if err != nil {
			return 0, err
		}
		return float64(len(net.Gates)), nil
	}); err != nil {
		return 0, err
	}
	var leg *logic.Net
	if err := sc.timed("logic.legalize", item, root, "gates", func() (float64, error) {
		l, err := logic.Legalize(net, cs.target, logic.BuilderOptions{Fold: fold, CSE: true})
		if err != nil {
			return 0, err
		}
		leg = l.DCE()
		return float64(len(leg.Gates)), nil
	}); err != nil {
		return 0, err
	}
	if cs.harden {
		if err := sc.timed("logic.tmr", item, root, "gates", func() (_ float64, err error) {
			leg, err = logic.TMR(leg, logic.NativeGates(cs.target))
			if err != nil {
				return 0, err
			}
			return float64(len(leg.Gates)), nil
		}); err != nil {
			return 0, err
		}
	}
	// codegen.Generate schedules internally; the standalone call sizes the
	// scheduler's share of it.
	var order []logic.NodeID
	id := sc.tr.begin("obs.schedule", item, root)
	order = obs.ScheduleGates(leg, cs.opt.HasSchedule())
	sc.tr.end(id, float64(len(order)), "gates")
	sc.tr.markWithin(id, "codegen.generate")
	sc.count("obs.max_live_rows", float64(obs.MaxLive(leg, order)))

	var uops int
	err := sc.timed("codegen.generate", item, root, "uops", func() (float64, error) {
		code, err := codegen.Generate(leg, codegen.Options{Arch: cs.target, Variant: cs.opt, DRows: dRows, Scratch: &sc.scratch})
		if err != nil {
			return 0, err
		}
		uops = len(code.Prog.Ops)
		sc.count("codegen.spill_ops", float64(code.Stats.SpillOuts+code.Stats.SpillIns))
		sc.count("codegen.stores_elided", float64(code.Stats.StoresElided))
		sc.count("codegen.max_live_rows", float64(code.Stats.MaxLiveRows))
		return float64(uops), nil
	})
	return uops, err
}

// splitBit parses a net port name "operand[3]".
func splitBit(s string) (string, int, error) {
	i := strings.LastIndexByte(s, '[')
	if i < 0 || !strings.HasSuffix(s, "]") {
		return "", 0, fmt.Errorf("malformed bit name %q", s)
	}
	bit, err := strconv.Atoi(s[i+1 : len(s)-1])
	return s[:i], bit, err
}

// buildHostIO builds the WRITE source and READ sink of one pass from the
// kernel's exported tags: the benchmark's counterpart of Kernel.hostIO.
func buildHostIO(k *chopper.Kernel, rows map[string][][]uint64, lanes int) (*sim.HostIO, map[string][][]uint64, error) {
	words := transpose.Words(lanes)
	write := make(map[int][]uint64, len(k.Code.InputTag)+len(k.Code.ConstPattern))
	for name, tag := range k.Code.InputTag {
		base, bit, err := splitBit(name)
		if err != nil {
			return nil, nil, err
		}
		if bit >= len(rows[base]) {
			return nil, nil, fmt.Errorf("input %q has %d bit-rows, kernel needs bit %d", base, len(rows[base]), bit)
		}
		write[tag] = rows[base][bit]
	}
	for tag, pat := range k.Code.ConstPattern {
		row := make([]uint64, words)
		for i := range row {
			row[i] = pat
		}
		if r := lanes % 64; r != 0 {
			row[words-1] &= uint64(1)<<uint(r) - 1
		}
		write[tag] = row
	}
	outRows := make(map[string][][]uint64, len(k.Outputs))
	for _, o := range k.Outputs {
		backing := make([]uint64, o.Width*words)
		rs := make([][]uint64, o.Width)
		for b := range rs {
			rs[b], backing = backing[:words:words], backing[words:]
		}
		outRows[o.Name] = rs
	}
	sinks := make(map[int][]uint64, len(k.Code.OutputTag))
	for name, tag := range k.Code.OutputTag {
		base, bit, err := splitBit(name)
		if err != nil {
			return nil, nil, err
		}
		if bit >= len(outRows[base]) {
			return nil, nil, fmt.Errorf("output bit %q out of range", name)
		}
		sinks[tag] = outRows[base][bit]
	}
	return &sim.HostIO{
		WriteData: func(tag int) []uint64 { return write[tag] },
		ReadSink: func(tag int, data []uint64) {
			if dst, ok := sinks[tag]; ok {
				copy(dst, data)
			}
		},
	}, outRows, nil
}

// toVertical transposes every input of the kernel, one span per operand.
func (sc *stageCtx) toVertical(item string, parent int, k *chopper.Kernel, in wide, lo, lanes int) map[string][][]uint64 {
	rows := make(map[string][][]uint64, len(k.Inputs))
	for _, spec := range k.Inputs {
		id := sc.tr.begin("transpose.to_vertical", item, parent)
		rows[spec.Name] = transpose.ToVerticalWide(in[spec.Name][lo:lo+lanes], spec.Width, lanes)
		sc.tr.end(id, float64(spec.Width*transpose.Words(lanes)*8), "bytes")
	}
	return rows
}

// fromVertical transposes every output back, one span per operand.
func (sc *stageCtx) fromVertical(item string, parent int, k *chopper.Kernel, rows map[string][][]uint64, lanes int) wide {
	out := make(wide, len(k.Outputs))
	for _, spec := range k.Outputs {
		id := sc.tr.begin("transpose.from_vertical", item, parent)
		out[spec.Name] = transpose.FromVerticalWide(rows[spec.Name], spec.Width, lanes)
		sc.tr.end(id, float64(spec.Width*transpose.Words(lanes)*8), "bytes")
	}
	return out
}

// exec runs the decoded program on a benchmark-owned subarray: the
// functional half of a pass, with an optional fault hook.
func (sc *stageCtx) exec(item string, parent int, k *chopper.Kernel, d *sim.Decoded, rows map[string][][]uint64, lanes int, hook sim.FaultHook) (map[string][][]uint64, error) {
	id := sc.tr.begin("harness.hostio", item, parent)
	io, outRows, err := buildHostIO(k, rows, lanes)
	sc.tr.end(id, 0, "")
	if err != nil {
		return nil, err
	}
	ts := sc.tile(k.Opts.Geometry.DRows(), lanes)
	defer sc.tiles.Put(ts)
	ts.sub.SetFaultHook(hook)
	defer ts.sub.SetFaultHook(nil)
	err = sc.timed("sim.exec", item, parent, "uops", func() (float64, error) {
		for i := 0; i < d.Len(); i++ {
			if err := ts.sub.ExecDecoded(d, i, io, ts.spill); err != nil {
				return float64(i), fmt.Errorf("op %d: %w", i, err)
			}
		}
		return float64(d.Len()), nil
	})
	return outRows, err
}

// replay runs an issue stream through the benchmark's own timing engine
// and returns the engine's counters.
func (sc *stageCtx) replay(item string, parent int, eng *dram.Engine, stream []dram.Placed) (dram.EngineStats, error) {
	err := sc.timed("dram.replay", item, parent, "commands", func() (float64, error) {
		_, err := eng.RunCtx(nil, stream, 0)
		return float64(len(stream)), err
	})
	return eng.Stats(), err
}

// singleStream places the program on subarray (0, 0): the issue stream of
// a single-subarray pass, which the root package feeds to the engine op
// by op without building it.
func (sc *stageCtx) singleStream(item string, parent int, prog *isa.Program) []dram.Placed {
	id := sc.tr.begin("harness.stream", item, parent)
	stream := make([]dram.Placed, len(prog.Ops))
	for i := range prog.Ops {
		stream[i].Op = prog.Ops[i]
	}
	sc.tr.end(id, float64(len(stream)), "commands")
	return stream
}

// stagePass is one single-subarray pass over pre-transposed rows:
// functional execution, then the timing replay. It returns the output
// rows and the simulated completion time.
func (sc *stageCtx) stagePass(item string, parent int, k *chopper.Kernel, d *sim.Decoded, rows map[string][][]uint64, lanes int, hook sim.FaultHook) (map[string][][]uint64, float64, error) {
	outRows, err := sc.exec(item, parent, k, d, rows, lanes, hook)
	if err != nil {
		return nil, 0, err
	}
	geom := k.Opts.Geometry
	timing := dram.TimingFor(k.Opts.Target, geom)
	eng, _ := sc.engines.Get().(*dram.Engine)
	if eng == nil {
		eng = dram.NewEngine(geom, timing, false)
	} else {
		eng.Reconfigure(geom, timing, false)
	}
	defer sc.engines.Put(eng)
	st, err := sc.replay(item, parent, eng, sc.singleStream(item, parent, k.Prog()))
	return outRows, st.MakespanNs, err
}

// decode pre-decodes the kernel's program, as the root package does once
// per kernel on its first run.
func (sc *stageCtx) decode(item string, parent int, k *chopper.Kernel) *sim.Decoded {
	id := sc.tr.begin("sim.decode", item, parent)
	d := sim.Decode(k.Prog())
	sc.tr.end(id, float64(d.Len()), "uops")
	return d
}
