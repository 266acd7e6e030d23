// Package chopper is a compiler infrastructure for programmable bit-serial
// SIMD Processing-Using-DRAM (PUD), reproducing the system described in
// "CHOPPER: A Compiler Infrastructure for Programmable Bit-serial SIMD
// Processing Using Memory in DRAM" (HPCA 2023).
//
// Programs are written in a synchronous dataflow language (see the dsl
// package and the examples directory), compiled through bit-slicing into
// 1-bit logic operations, optimized by the three OBS passes, and lowered to
// micro-op programs (AAP/AP/WRITE/READ) for the Ambit, ELP2IM and SIMDRAM
// in-DRAM computing substrates. A functional simulator executes compiled
// programs bit-exactly, and a command-level timing model (with bank- and
// subarray-level parallelism and an SSD spill model) evaluates them.
//
// Basic use:
//
//	k, err := chopper.Compile(src, chopper.Options{Target: chopper.Ambit})
//	out, err := k.Run(map[string][]uint64{"a": {...}, "b": {...}}, lanes)
//
// Each verb has one form that takes everything, ctx first (CompileCtxCached,
// RunRowsCtx, RunBatchCtx, RunTiledCtx, VerifyCtx, ReliabilityCtx). Fault
// injection is one of its arguments — the zero FaultConfig is a fault-free
// run — not a second family of verbs. The ctx-free forms that remain
// (Compile, RunRows, RunRowsUnderFault, Verify, ...) are one-line defaults
// over it. Every compile goes through one driver and one Options value — the
// value is the kernel-cache key, and a pipeline rejects the options it cannot
// honour. testdata/api.golden lists the whole exported surface.
package chopper

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"chopper/internal/baseline"
	"chopper/internal/bitslice"
	"chopper/internal/codegen"
	"chopper/internal/dfg"
	"chopper/internal/dram"
	"chopper/internal/dsl"
	"chopper/internal/fault"
	"chopper/internal/guard"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/narrow"
	"chopper/internal/obs"
	"chopper/internal/sim"
	"chopper/internal/transpose"
	"chopper/internal/typecheck"
)

// Target identifies a Bit-serial SIMD PUD architecture.
type Target = isa.Arch

// Supported targets.
const (
	Ambit   = isa.Ambit
	ELP2IM  = isa.ELP2IM
	SIMDRAM = isa.SIMDRAM
)

// OptLevel is a cumulative OBS optimization level (the paper's breakdown
// variants): Bitslice ⊂ Schedule ⊂ Reuse ⊂ Rename (= full CHOPPER).
type OptLevel = obs.Variant

// Optimization levels.
const (
	OptBitslice = obs.Bitslice
	OptSchedule = obs.Schedule
	OptReuse    = obs.Reuse
	OptFull     = obs.Rename
)

// NarrowMode selects the precision-inference middle end (internal/narrow):
// a range/demanded-bits analysis over the dataflow graph that shrinks each
// value to its live bits before bit-slicing. Bit-serial cost is linear in
// operand width, so narrowing directly cuts emitted micro-ops and
// makespan; narrowed kernels still verify bit-identically against the
// original graph's golden reference.
type NarrowMode int

const (
	// NarrowOff disables the pass; output is byte-identical to a build
	// without it.
	NarrowOff NarrowMode = iota
	// NarrowSafe narrows using only facts provable from the program
	// (constants, shifts, comparison results, conversion truncations).
	// Always sound, no annotations consulted.
	NarrowSafe
	// NarrowAnnotated additionally trusts @range(name, lo, hi)
	// annotations on the entry node. Inputs are then contractually
	// confined to their annotated ranges: Verify and the fault harnesses
	// clamp generated inputs to them, and running a kernel on
	// out-of-range inputs yields unspecified (but still deterministic)
	// output values.
	NarrowAnnotated
)

func (m NarrowMode) String() string {
	switch m {
	case NarrowSafe:
		return "safe"
	case NarrowAnnotated:
		return "annotated"
	default:
		return "off"
	}
}

// NarrowReport summarizes what the precision-inference pass did to one
// kernel (Kernel.Narrow; nil when the pass was off or fell back).
type NarrowReport struct {
	// Mode is the narrowing mode the kernel compiled under.
	Mode NarrowMode
	// Values is the value count of the pre-narrowing graph.
	Values int
	// Narrowed counts values emitted below their declared width;
	// DeadValues counts values dropped as unreachable from any output.
	Narrowed   int
	DeadValues int
	// DeclaredBits sums declared widths before the pass; LiveBits sums
	// the widths actually emitted. Their ratio is the width-level win.
	DeclaredBits int
	LiveBits     int
	// ResizesInserted counts width-boundary resize nodes added;
	// SignedRewrites counts signed ops proven sign-clear and rewritten
	// unsigned; SplitCompares counts wide-vs-narrow comparisons split
	// into a high-bits check plus a narrow compare; ReassocChains counts
	// add chains rebalanced for narrower partial sums.
	ResizesInserted int
	SignedRewrites  int
	SplitCompares   int
	ReassocChains   int
}

// Options configure compilation.
type Options struct {
	// Target selects the PUD architecture. Default Ambit.
	Target Target
	// Opt selects the optimization level. The zero value means the default,
	// OptFull.
	Opt OptLevel
	// Geometry describes the DRAM device. Zero value = evaluation default
	// (16 banks, 64 subarrays/bank, 1024 rows, 8 KB rows, 1 channel).
	Geometry dram.Geometry
	// SALP enables Subarray-Level Parallelism in the timing model: tiled
	// runs schedule each subarray as an independent unit instead of
	// serializing same-bank subarrays, and the VIRCOE emitter interleaves
	// for the device it is given (subarray-aware with SALP, bank-aware
	// without; the mismatched pairings of the paper's Figure 12 are an
	// experiment of internal/bench, not a library option). Off by default
	// (the base device of the evaluation has no SALP).
	SALP bool
	// Entry selects the entry node; "" uses "main" or the last node.
	Entry string
	// Harden enables triple-modular-redundancy codegen: the legalized
	// logic net is triplicated and every output majority-voted, so any
	// single corrupted intermediate row (a TRA charge-sharing flip, a
	// bad AAP copy) is outvoted instead of reaching the output. Costs
	// roughly 3x the micro-ops plus a vote per output bit; quantify with
	// Kernel.ReliabilityCtx and see docs/RELIABILITY.md for the trade-offs.
	// CHOPPER back end only (CompileBaseline rejects it).
	Harden bool
	// Budget caps resource dimensions (micro-ops emitted, logic-net
	// gates, simulator steps, DRAM commands) at deterministic
	// checkpoints; the zero value is unlimited. Exceeding a dimension
	// surfaces as a *BudgetError matching ErrBudget. See docs/GUARDS.md.
	Budget Budget
	// Recovery configures self-healing execution: epoch checkpoints, an
	// online error detector, retention scrubbing and bounded
	// retry/backoff replay. The zero value disables it (runs stay
	// byte-identical to a recovery-free build); RunResult.RecoveryStats
	// reports what the layer did. Single-subarray runs only (RunTiledCtx
	// rejects it). See docs/RELIABILITY.md.
	Recovery Recovery
	// Narrow selects the precision-inference middle end. The default,
	// NarrowOff, compiles every value at its declared width; NarrowSafe
	// narrows to provably live bits; NarrowAnnotated additionally trusts
	// @range annotations. Kernel.Narrow reports what the pass did. See
	// docs/PERFORMANCE.md ("Precision-adaptive compilation"). CHOPPER back
	// end only (CompileBaseline rejects it).
	Narrow NarrowMode
	// Cache, when non-nil, memoizes compilation: Compile, CompileBaseline
	// and CompileHorizontal first look up (pipeline, normalized source,
	// this Options value) and return the cached kernel on a hit, skipping
	// the whole pipeline. Kernels are immutable after compilation, so a
	// cached kernel is safe to share across goroutines. Every other field
	// of Options is part of the key by construction; the Cache field
	// itself is not. See NewKernelCache; docs/CONCURRENCY.md has the keying
	// and eviction contract.
	Cache *KernelCache
}

// WithOpt returns o with the optimization level set.
func (o Options) WithOpt(lv OptLevel) Options {
	o.Opt = lv
	return o
}

func (o Options) normalize() Options {
	if o.Opt == 0 {
		o.Opt = OptFull
	}
	if o.Geometry == (dram.Geometry{}) {
		o.Geometry = dram.DefaultGeometry()
	}
	o.Recovery = o.Recovery.normalize()
	return o
}

// validate rejects nonsensical options with ErrOptions-classed errors.
// o must already be normalized.
func (o Options) validate() error {
	if err := o.Budget.Validate(); err != nil {
		return optionsErrf("%v", err)
	}
	if o.Opt < OptBitslice || o.Opt > OptFull {
		return optionsErrf("unknown optimization level %d", int(o.Opt))
	}
	if o.Narrow < NarrowOff || o.Narrow > NarrowAnnotated {
		return optionsErrf("unknown narrowing mode %d", int(o.Narrow))
	}
	if err := o.Recovery.validate(); err != nil {
		return err
	}
	return o.Geometry.Validate()
}

// IOSpec describes one operand of a compiled kernel.
type IOSpec struct {
	Name  string
	Width int // bits
}

// Kernel is a compiled program for one PUD subarray — produced either by
// the CHOPPER pipeline (Compile) or by the hands-tuned SIMDRAM methodology
// (CompileBaseline).
type Kernel struct {
	Opts Options

	// Program is the DSL AST (exported for tooling; nil for graph-compiled
	// kernels).
	Program *dsl.Program
	// Graph is the normalized dataflow graph.
	Graph *dfg.Graph
	// Net is the legalized bit-sliced logic net (nil for baseline kernels,
	// which lower per multi-bit operation).
	Net *logic.Net
	// Code is the CHOPPER-generated micro-op program and host interface
	// (nil for baseline kernels).
	Code *codegen.Result
	// Baseline is the hands-tuned result (nil for CHOPPER kernels).
	Baseline *baseline.Result

	// Inputs and Outputs describe the kernel interface in program order.
	Inputs  []IOSpec
	Outputs []IOSpec

	// Degradation is non-nil when the compiler could not use the
	// requested optimization pipeline and walked the degradation ladder
	// (full -> pass-disabled -> OptBitslice) instead; it records which
	// levels failed and why, and the level this kernel actually compiled
	// at. Nil means the requested pipeline worked.
	Degradation *DegradationReport

	// Narrow reports what the precision-inference pass did (bits
	// declared vs live, values narrowed, rewrites applied). Nil when
	// Options.Narrow is NarrowOff — or when the pass fell back to the
	// declared-width graph because it could not prove its own rewrite
	// well-formed, so nil is also the "not actually narrowed" signal.
	Narrow *NarrowReport

	prog         *isa.Program
	inputTag     map[string]int
	outputTag    map[string]int
	constPattern map[int]uint64

	// inputRanges holds the trusted @range annotations the kernel
	// compiled under (NarrowAnnotated only): verify and reliability
	// trials clamp their generated inputs into these ranges.
	inputRanges map[string]narrow.Range

	// translated caches prog translated for clean runs, flipped the
	// translation with its APs mapped for runs whose only fault model is
	// TRA flips, and decoded its pre-decoded execution stream for every
	// other run (each built once, on first use: a kernel that only runs
	// clean or TRA-faulted never decodes). Kernels are immutable after
	// compilation, so the caches are safe to share across goroutines —
	// which is exactly what the parallel verify/reliability sweeps do with
	// a cached kernel.
	translateOnce sync.Once
	translated    *sim.Translated
	flipOnce      sync.Once
	flipped       *sim.Translated
	decodeOnce    sync.Once
	decoded       *sim.Decoded

	// ref caches the lane-batched reference plan of Graph (built once, on
	// first verification), shared across goroutines like decoded.
	refOnce sync.Once
	ref     *dfg.LanePlan

	// plan caches the tables that bind operand bit-rows to the program's
	// WRITE/READ tags (built once, on first run, error included): they
	// depend on the kernel alone and serve every run path.
	planOnce sync.Once
	plan     *tilePlan
	planErr  error

	// shards memoizes the channel-shard timings replayShard has computed:
	// the issue order is a function of the program and the placements,
	// never of the data, so a shard is scheduled once per kernel. Keyed by
	// every value a replay reads, so editing Opts between runs recomputes.
	shardMu sync.Mutex
	shards  map[shardKey]shardTiming
}

// decodedProg returns the kernel's pre-decoded execution stream, building
// it on first use.
func (k *Kernel) decodedProg() *sim.Decoded {
	k.decodeOnce.Do(func() { k.decoded = sim.Decode(k.prog) })
	return k.decoded
}

// translatedProg returns the kernel's translation for clean runs (nil if
// sim.Translate does not accept the program: its runs take the
// interpreter), building it on first use.
func (k *Kernel) translatedProg() *sim.Translated {
	k.translateOnce.Do(func() { k.translated, _ = sim.Translate(k.prog) })
	return k.translated
}

// flippedProg returns the kernel's translation for runs whose only fault
// model is TRA flips (sim.TranslateTRAs), building it on first use.
func (k *Kernel) flippedProg() *sim.Translated {
	k.flipOnce.Do(func() { k.flipped = sim.TranslateTRAs(k.prog, k.translatedProg()) })
	return k.flipped
}

// runFunctional runs the kernel's program on m under budget b without the
// timing engine: translated where m.Translatable says that run is the
// interpreted one (nothing watches the rows but, when flips is set, m's
// fault.Injector of TRA flips alone, and b stops no op), on the interpreter
// otherwise.
func (k *Kernel) runFunctional(ctx context.Context, m *sim.Machine, io *sim.HostIO, b guard.Budget, flips bool) error {
	t := k.translatedProg()
	if flips {
		t = k.flippedProg()
	}
	if m.Translatable(t, b) {
		return m.RunTranslatedCtx(ctx, t, io)
	}
	return m.RunFunctionalCtx(ctx, k.decodedProg(), io, b)
}

// refPlan returns the kernel's lane-batched reference plan, building it on
// first use.
func (k *Kernel) refPlan() *dfg.LanePlan {
	k.refOnce.Do(func() { k.ref = dfg.NewLanePlan(k.Graph) })
	return k.ref
}

// simWorker is the run path's one pooled state, what one worker keeps
// between runs: the simulation machine (subarray arena, spill buffers,
// timing-engine tables, recovery scratch), the rows of a run laid out in
// the kernel's plan, a fault trial's injector, and the reference arena and
// scratch a trial draws its operands into and checks its outputs in. Every
// pass and every tile of a tiled run checks one out, and a trial compares
// on it before giving it back. The machine is reset via Reconfigure and the
// injector via Reset on every run, and the rest is overwritten by every
// use, so no run's state leaks into the next. All of it is the worker's own
// memory: no pooled state references caller memory.
type simWorker struct {
	m     sim.Machine
	host  hostRows
	inj   *fault.Injector // built by the worker's first fault trial
	ref   dfg.LaneScratch
	trial trialScratch
}

var workerPool = sync.Pool{New: func() any { return new(simWorker) }}

func getWorker() *simWorker { return workerPool.Get().(*simWorker) }

// putWorker returns w to the pool, letting go of the kernel whose run it
// served.
func putWorker(w *simWorker) {
	w.host.plan = nil
	workerPool.Put(w)
}

// workspace is everything one back-end compile keeps between passes and
// can hand to the next compile: the logic builder with its hashing buckets
// and gate buffers, the net-rewrite id maps, the scheduler's tables, and
// codegen's per-node tables and op staging buffer. Every pass resets what
// it uses on entry, so a workspace abandoned mid-compile (error, panic,
// cancellation) is as good as a fresh one.
type workspace struct {
	logic logic.Scratch
	code  codegen.Scratch
}

// workspaces is the compile path's one free list. Unlike a sync.Pool it
// survives garbage collection — a cold compile's own garbage triggers
// dozens of GCs, and a pool emptied by each of them re-grows every table
// it was meant to keep. Retention is bounded instead by two constants: at
// most GOMAXPROCS workspaces are kept (more compiles than processors
// cannot run at once), and one that has grown past workspaceMaxBytes is
// dropped rather than kept, so a single giant kernel does not pin its
// tables for the life of the process.
var workspaces struct {
	sync.Mutex
	free []*workspace
}

// workspaceMaxBytes is about twice what the largest Table-II kernel
// (WTC-512: 175k gates, 617k micro-ops, 63 MB of tables and staging)
// leaves behind.
const workspaceMaxBytes = 128 << 20

func getWorkspace() *workspace {
	workspaces.Lock()
	defer workspaces.Unlock()
	if n := len(workspaces.free); n > 0 {
		ws := workspaces.free[n-1]
		workspaces.free[n-1] = nil
		workspaces.free = workspaces.free[:n-1]
		return ws
	}
	return new(workspace)
}

func putWorkspace(ws *workspace) {
	if ws.logic.Bytes()+ws.code.Bytes() > workspaceMaxBytes {
		return
	}
	workspaces.Lock()
	defer workspaces.Unlock()
	if len(workspaces.free) < runtime.GOMAXPROCS(0) {
		workspaces.free = append(workspaces.free, ws)
	}
}

// Prog returns the compiled micro-op program.
func (k *Kernel) Prog() *isa.Program { return k.prog }

// Compile compiles CHOPPER source into a kernel. Failures are classed by
// pipeline stage (ErrParse, ErrTypecheck, ErrNormalize, ErrCodegen) and
// internal panics surface as ErrInternal errors, never as crashes.
//
// With Options.Cache set, a repeat compile of the same (source, Options)
// pair returns the previously compiled kernel in O(1). CompileCtxCached is
// the form that takes a ctx.
func Compile(src string, opts Options) (*Kernel, error) {
	return kernelOf(compile(nil, pipeChopper, src, nil, opts))
}

// CompileBaseline compiles CHOPPER source with the hands-tuned SIMDRAM
// methodology instead of the CHOPPER back-end — the comparison target of
// every experiment in the paper. Options.Harden and Options.Narrow act on
// the whole-program net and graph the methodology never builds, so it
// rejects them.
func CompileBaseline(src string, opts Options) (*Kernel, error) {
	return kernelOf(compile(nil, pipeBaseline, src, nil, opts))
}

// kernelOf drops the cache outcome of a compile for the entry points that
// do not report it.
func kernelOf(k *Kernel, _ CacheOutcome, err error) (*Kernel, error) { return k, err }

// pipeline names the back end a compile takes. The three produce different
// kernels from identical source, so the pipeline is part of the cache key.
type pipeline int

const (
	pipeChopper    pipeline = iota // Compile: bit-slice, OBS, codegen
	pipeBaseline                   // CompileBaseline: hands-tuned, per multi-bit operation
	pipeHorizontal                 // CompileHorizontal: pipeChopper over the width-1 graph
)

// honours rejects the options p's back end has no way to act on: an option
// dropped in silence is a kernel that is not what the caller asked for. The
// hands-tuned methodology lowers one multi-bit operation at a time, so it
// has neither a whole-program net to triplicate nor a use for a graph
// narrowed below its declared widths.
func (p pipeline) honours(opts Options) error {
	switch {
	case p != pipeBaseline:
		return nil
	case opts.Harden:
		return stagef(ErrCodegen, "chopper: baseline", "Harden is not supported by the hands-tuned methodology")
	case opts.Narrow != NarrowOff:
		return stagef(ErrCodegen, "chopper: baseline", "Narrow is not supported by the hands-tuned methodology")
	}
	return nil
}

// compile is the one driver under every Compile* entry point and both
// Builder methods. It owns the prologue — panic recovery, option defaults,
// option validation, what the pipeline honours, the first look at ctx, the
// kernel cache — so all three pipelines observe ctx and every Budget
// dimension at the same checkpoints, and no entry point can forget a step.
// The program is DSL source, or, when built is non-nil, a graph a Builder
// made; built graphs have no text to key on and are not cached.
func compile(ctx context.Context, p pipeline, src string, built func() (*dfg.Graph, error), opts Options) (k *Kernel, outcome CacheOutcome, err error) {
	defer recoverToError(&err)
	opts = opts.normalize()
	if err := opts.validate(); err != nil {
		return nil, CacheNone, err
	}
	if err := p.honours(opts); err != nil {
		return nil, CacheNone, err
	}
	if err := guard.Ctx(ctx); err != nil {
		return nil, CacheNone, err
	}
	lower := func() (*Kernel, error) { return p.lower(ctx, src, built, opts) }
	if opts.Cache == nil || built != nil {
		k, err = lower()
		return k, CacheNone, err
	}
	// Single flight: concurrent compiles of one key perform one pipeline
	// run and share the kernel (kernels are immutable after compilation, so
	// sharing is what a hit does anyway). Errors reach concurrent waiters
	// but are never cached, so a transient failure does not poison the key.
	return opts.Cache.c.Do(newKernelKey(p, src, opts), lower)
}

// lower is everything past the prologue: front end (or the built graph),
// then p's back end.
func (p pipeline) lower(ctx context.Context, src string, built func() (*dfg.Graph, error), opts Options) (*Kernel, error) {
	var (
		prog   *dsl.Program
		entry  string
		graph  *dfg.Graph
		ranges map[string]narrow.Range
		err    error
	)
	if built == nil {
		prog, entry, graph, err = frontEnd(src, opts)
	} else if graph, err = built(); err != nil {
		// A graph that could not be built is the failure dfg.BuildNode
		// reports for source: same stage, same class.
		err = stage(ErrNormalize, "chopper: normalize", err)
	}
	if err != nil {
		return nil, err
	}
	switch p {
	case pipeBaseline:
		return compileBaselineGraph(ctx, prog, graph, opts)
	case pipeHorizontal:
		// @range annotations bound an operand's value, not the packed bit
		// the horizontal layout makes of it: none are trusted here.
		if graph, err = horizontalGraph(graph); err != nil {
			return nil, err
		}
	case pipeChopper:
		if prog == nil || opts.Narrow != NarrowAnnotated {
			break // no annotations to trust, or none asked for
		}
		if e := prog.Lookup(entry); e != nil {
			for name, r := range typecheck.InputRanges(e) {
				if ranges == nil {
					ranges = make(map[string]narrow.Range)
				}
				ranges[name] = narrow.Range{Lo: r.Lo, Hi: r.Hi}
			}
		}
	}
	return compileGraph(ctx, prog, entry, graph, opts, ranges)
}

// frontEnd is the one source-to-graph path every pipeline shares:
// parse and expand, typecheck, resolve the entry node (opts.Entry, else the
// program's own) and normalize it into a dataflow graph. Failures are
// classed by stage (ErrParse, ErrTypecheck, ErrNormalize).
func frontEnd(src string, opts Options) (*dsl.Program, string, *dfg.Graph, error) {
	prog, err := dsl.ParseAndExpand(src)
	if err != nil {
		return nil, "", nil, stage(ErrParse, "chopper: parse", err)
	}
	checked, err := typecheck.Check(prog)
	if err != nil {
		return nil, "", nil, stage(ErrTypecheck, "chopper: typecheck", err)
	}
	entry := opts.Entry
	if entry == "" {
		e := prog.Entry()
		if e == nil {
			return nil, "", nil, stagef(ErrNormalize, "chopper: normalize", "no entry node")
		}
		entry = e.Name
	}
	graph, err := dfg.BuildNode(checked, entry)
	if err != nil {
		return nil, "", nil, stage(ErrNormalize, "chopper: normalize", err)
	}
	return prog, entry, graph, nil
}

// compileGraph drives the graceful-degradation ladder: it attempts the
// back-end pipeline at the requested optimization level and, when a pass
// panics or its output fails the inter-pass structural check, retries one
// cumulative level lower (disabling the failed pass and everything above
// it), down to the un-optimized OptBitslice pipeline. Abandoned attempts
// are recorded in a DegradationReport on the kernel. Ordinary input
// errors and guard stops (budget, cancellation) fail directly — retrying
// cannot fix the former and must not mask the latter.
func compileGraph(ctx context.Context, prog *dsl.Program, entry string, graph *dfg.Graph, opts Options, ranges map[string]narrow.Range) (*Kernel, error) {
	// Honour the @noreuse annotation: the OBS-2 hook that lets programmers
	// "transparently decide whether this optimization shall be enforced".
	opt := opts.Opt
	if prog != nil {
		if e := prog.Lookup(entry); e != nil && e.HasAttr("noreuse") && opt == obs.Reuse {
			opt = obs.Schedule
		}
	}

	// Precision inference runs once, ahead of the degradation ladder: the
	// narrowed graph feeds bit-slicing while the original stays the
	// kernel's interface and golden reference. Narrowing is an
	// optimization, so any failure — a pass panic, or the pass declining
	// its own rewrite — silently falls back to the declared-width graph;
	// Kernel.Narrow == nil is the fallback signal.
	lower := graph
	var nrep *NarrowReport
	if opts.Narrow != NarrowOff {
		if err := protect("narrow", func() error {
			ng, st, err := narrow.Run(graph, narrow.Opts{Ranges: ranges})
			if err != nil {
				return stage(ErrCodegen, "chopper: narrow", err)
			}
			lower = ng
			nrep = &NarrowReport{
				Mode: opts.Narrow, Values: st.Values,
				Narrowed: st.Narrowed, DeadValues: st.DeadValues,
				DeclaredBits: st.DeclaredBits, LiveBits: st.LiveBits,
				ResizesInserted: st.ResizesInserted, SignedRewrites: st.SignedRewrites,
				SplitCompares: st.SplitCompares, ReassocChains: st.ReassocChains,
			}
			return nil
		}); err != nil {
			lower, nrep = graph, nil
		}
	}

	ws := getWorkspace()
	defer putWorkspace(ws)
	report := &DegradationReport{Requested: opt}
	for lv := opt; ; lv-- {
		k, err := compileGraphAt(ctx, ws, prog, graph, lower, opts, lv)
		if err == nil {
			report.Effective = lv
			if report.Degraded() {
				k.Degradation = report
			}
			k.Narrow = nrep
			if opts.Narrow == NarrowAnnotated {
				k.inputRanges = ranges
			}
			return k, nil
		}
		pf, ok := degradable(err)
		if !ok {
			return nil, err
		}
		report.Events = append(report.Events, DegradationEvent{Opt: lv, Stage: pf.stage, Reason: pf.reason})
		if lv == OptBitslice {
			return nil, stagef(ErrInternal, "chopper: internal",
				"all optimization levels failed; last: pass %s: %s", pf.stage, pf.reason)
		}
	}
}

// compileGraphAt runs the back-end pipeline at one fixed optimization
// level on ws, with every pass under panic isolation and one structural
// self-check per pass boundary. Pass panics and check failures come back
// as *passFailure for the ladder in compileGraph; budget and cancellation
// checkpoints surface guard errors directly.
// graph is the kernel's interface and golden reference; lower is the
// graph actually lowered (the narrowed graph when precision inference ran,
// otherwise graph itself).
//
// At the folding levels the legalized net's complement-dual gates are
// merged (logic.Scratch.MergeDuals). Where the merged net's program
// spills, the spill allocator rather than the gate count decides its
// length, so the back end runs again on the unmerged net, and the merged
// program stands only if it is no longer and spills no more.
func compileGraphAt(ctx context.Context, ws *workspace, prog *dsl.Program, graph, lower *dfg.Graph, opts Options, opt OptLevel) (*Kernel, error) {
	leg, code, merged, err := lowerGraph(ctx, ws, lower, opts, opt, opt.HasReuse())
	if err != nil {
		return nil, err
	}
	if merged && spills(code) > 0 {
		leg0, code0, _, err := lowerGraph(ctx, ws, lower, opts, opt, false)
		if err != nil {
			return nil, err
		}
		if len(code.Prog.Ops) > len(code0.Prog.Ops) || spills(code) > spills(code0) {
			leg, code = leg0, code0
		}
	}
	k := newKernel(opts, prog, graph)
	k.Net, k.Code = leg, code
	k.prog, k.inputTag, k.outputTag, k.constPattern = code.Prog, code.InputTag, code.OutputTag, code.ConstPattern
	return k, nil
}

// spills counts a program's SSD spill traffic, both directions.
func spills(code *codegen.Result) int { return code.Stats.SpillOuts + code.Stats.SpillIns }

// lowerGraph bit-slices lower, legalizes it for the target, merges its
// complement-dual gates if merge is set, hardens it if asked, and
// generates its program. merged reports whether the merge changed the net.
func lowerGraph(ctx context.Context, ws *workspace, lower *dfg.Graph, opts Options, opt OptLevel, merge bool) (leg *logic.Net, code *codegen.Result, merged bool, err error) {
	b := opts.Budget

	// The bit-sliced net lives in the workspace until it is legalized;
	// bitslice.LowerOn validates it before sweeping it.
	var net *logic.Net
	if err := protect("bitslice", func() error {
		n, err := bitslice.LowerOn(&ws.logic, lower, bitslice.Options{Fold: opt.HasReuse()})
		if errors.Is(err, bitslice.ErrInvalidNet) {
			return checkFailure("bitslice", err)
		}
		if err != nil {
			return stage(ErrCodegen, "chopper: bitslice", err)
		}
		net = n
		return nil
	}); err != nil {
		return nil, nil, false, err
	}
	if err := guard.Check(guard.DimNetGates, b.MaxNetGates, len(net.Gates)); err != nil {
		return nil, nil, false, err
	}
	if err := guard.Ctx(ctx); err != nil {
		return nil, nil, false, err
	}

	// The legalized net is the kernel's: DCE, or the merge, copies it out
	// of the workspace at its exact size. Hardened kernels triplicate the
	// merged net.
	if err := protect("legalize", func() error {
		l, err := ws.logic.Legalize(net, opts.Target, logic.BuilderOptions{Fold: opt.HasReuse()})
		if err != nil {
			return stage(ErrCodegen, "chopper: legalize", err)
		}
		if merge {
			leg, merged = ws.logic.MergeDuals(l)
		} else {
			leg = ws.logic.DCE(l)
		}
		return nil
	}); err != nil {
		return nil, nil, false, err
	}
	if err := leg.Validate(); err != nil {
		return nil, nil, false, checkFailure("legalize", err)
	}
	if opts.Harden {
		// TMR checks its input's gate set and validates the net it builds;
		// either failing is a pass's fault, not the program's.
		if err := protect("harden", func() error {
			h, err := ws.logic.TMR(leg, logic.NativeGates(opts.Target))
			if err != nil {
				return checkFailure("harden", err)
			}
			leg = h
			return nil
		}); err != nil {
			return nil, nil, false, err
		}
	}
	if err := guard.Check(guard.DimNetGates, b.MaxNetGates, len(leg.Gates)); err != nil {
		return nil, nil, false, err
	}
	if err := guard.Ctx(ctx); err != nil {
		return nil, nil, false, err
	}

	// codegen.Generate validates the program it stages (isa.Program.Validate's
	// checks, each gate's ops as they are emitted, as the inter-pass
	// invariant): a structurally broken program from a buggy pass degrades
	// instead of shipping.
	if err := protect("codegen", func() error {
		c, err := codegen.Generate(leg, codegen.Options{
			Arch:    opts.Target,
			Variant: opt,
			DRows:   opts.Geometry.DRows(),
			MaxOps:  b.MaxMicroOps,
			Ctx:     ctx,
			Scratch: &ws.code,
		})
		if err != nil {
			if guard.IsGuard(err) {
				return err
			}
			if errors.Is(err, codegen.ErrInvalidProgram) {
				return checkFailure("codegen", err)
			}
			return stage(ErrCodegen, "chopper: codegen", err)
		}
		code = c
		return nil
	}); err != nil {
		return nil, nil, false, err
	}

	return leg, code, merged, nil
}

// newKernel starts a kernel with graph's operands as its interface; the
// back end that called it fills in the program.
func newKernel(opts Options, prog *dsl.Program, graph *dfg.Graph) *Kernel {
	k := &Kernel{Opts: opts, Program: prog, Graph: graph}
	for _, in := range graph.Inputs {
		v := graph.Values[in]
		k.Inputs = append(k.Inputs, IOSpec{Name: v.Name, Width: v.Width})
	}
	for i, o := range graph.Outputs {
		k.Outputs = append(k.Outputs, IOSpec{Name: graph.OutputNames[i], Width: graph.Values[o].Width})
	}
	return k
}

// splitBit parses "name[3]" into ("name", 3).
func splitBit(s string) (string, int, error) {
	i := strings.LastIndexByte(s, '[')
	if i < 0 || !strings.HasSuffix(s, "]") {
		return "", 0, fmt.Errorf("chopper: malformed bit name %q", s)
	}
	bit, err := strconv.Atoi(s[i+1 : len(s)-1])
	if err != nil {
		return "", 0, err
	}
	return s[:i], bit, nil
}

// RunResult carries a run's outputs and its simulated time.
type RunResult struct {
	// Rows holds each output operand in vertical (bit-row) layout.
	Rows map[string][][]uint64
	// TimeNs is the single-subarray makespan in nanoseconds.
	TimeNs float64
	// Stats are the timing-engine counters.
	Stats dram.EngineStats
	// Faults counts injected fault events; all-zero for a run whose
	// FaultConfig is the zero value (or injects nothing).
	Faults FaultCounts
	// ScratchBytes is the peak reusable simulator storage the run held
	// (subarray arenas, spill buffers, engine tables) — the working-set
	// figure choppersim reports as "peak scratch".
	ScratchBytes int64
	// RecoveryStats reports the self-healing layer's activity (epochs,
	// detections, retries, wasted work); all-zero when Options.Recovery
	// is disabled.
	RecoveryStats RecoveryStats
}

// RunRows executes the kernel on one simulated subarray over operands
// already in vertical layout (rows[op][bit][word]), with `lanes` SIMD
// lanes, and returns outputs in vertical layout.
func (k *Kernel) RunRows(rows map[string][][]uint64, lanes int) (*RunResult, error) {
	return k.RunRowsCtx(nil, rows, lanes, FaultConfig{}, 0)
}

// RunRowsUnderFault is RunRows on a faulty subarray (see RunRowsCtx).
func (k *Kernel) RunRowsUnderFault(rows map[string][][]uint64, lanes int, cfg FaultConfig, seed int64) (*RunResult, error) {
	return k.RunRowsCtx(nil, rows, lanes, cfg, seed)
}

// RunRowsCtx is RunRows with everything said. The kernel's compile-time
// Options.Budget caps simulator steps and DRAM commands, and a non-nil ctx
// is observed between micro-ops for cooperative cancellation. The fault
// models in fault, reproducible from seed, perturb the simulated row
// operations, and the result's Faults field counts what was injected; the
// zero FaultConfig is a fault-free run (seed is then unused), and a
// negative or NaN rate or a negative count in it is an ErrOptions error.
func (k *Kernel) RunRowsCtx(ctx context.Context, rows map[string][][]uint64, lanes int, fault FaultConfig, seed int64) (res *RunResult, err error) {
	defer recoverToError(&err)
	if err := checkFault(fault); err != nil {
		return nil, err
	}
	p, err := k.tilePlan()
	if err != nil {
		return nil, err
	}
	members, err := k.rowsPass(ctx, []int{lanes}, fault, seed, func(_ *simWorker, _ int, in [][]uint64, sp laneSpan) error {
		return p.pasteRows(k.Inputs, in, rows, sp)
	})
	if err != nil {
		return nil, err
	}
	return members[0], nil
}

// execute is the device half of every pass — plain, batched, verify trial,
// fault trial (fc enabled: the worker's injector, reset to (fc, seed),
// perturbs the run), recovered: the program runs over `lanes` lanes at
// placement (0, 0) of w's machine, its transfers served by the rows w's
// host binding holds. Only a recovered run, whose retries and backoff
// stalls are part of its makespan, drives the machine's timing engine; any
// other run executes functionally (runFunctional: translated when clean
// or when its only fault model is TRA flips)
// under the same per-op budget and ctx checks and takes its timing from
// the kernel's shard memo — the issue order is the program's, so the
// engine would recompute the same stats every run. equiv_test.go holds
// both against a reference loop that shares only the micro-op body with
// them.
//
// A recovered run with no fault hook detects nothing — parity never
// mismatches and vote digests always agree — so its outputs are the plain
// run's, and its time, engine counters and recovery counters depend only
// on the program, policy, geometry, timing and lane words: the first such
// run keeps them in the memo and later ones run functionally and replay
// them, unless the budget could stop the full run (which then runs, to
// stop where it stops).
func (k *Kernel) execute(ctx context.Context, w *simWorker, lanes int, fc FaultConfig, seed int64) (RunResult, error) {
	cfg := sim.MachineConfig{Geom: k.Opts.Geometry, Arch: k.Opts.Target, Lanes: lanes}
	injected := fc.Enabled()
	if injected {
		if w.inj == nil {
			w.inj = fault.New(fc, seed)
		}
		w.inj.Reset(fc, seed)
		cfg.Fault = w.inj
	}
	m := &w.m
	m.Reconfigure(cfg)
	io, res := w.host.hostIO(), RunResult{}
	// The machine's engine is the one-tile shard at (0, 0) without SALP.
	key := shardKey{tiles: 1, geom: k.Opts.Geometry, timing: dram.TimingFor(k.Opts.Target, k.Opts.Geometry)}
	pol := k.Opts.Recovery.policy()
	recovered := pol.Detector != sim.DetectNone
	var st shardTiming
	var memo bool
	if recovered {
		key.pol, key.words = pol, transpose.Words(lanes)
		st, memo = k.memo(key)
	}
	if recovered && (injected || !memo || !k.fits(st.rec)) {
		var err error
		if res.TimeNs, res.RecoveryStats, err = m.RunRecoveredCtx(ctx, k.decodedProg(), 0, 0, io, k.Opts.Budget, pol); err != nil {
			return RunResult{}, err
		}
		res.Stats = m.Stats()
		if !injected {
			k.remember(key, shardTiming{eng: res.Stats, rec: res.RecoveryStats})
		}
	} else {
		if err := k.runFunctional(ctx, m, io, k.Opts.Budget, injected && w.inj.Events() == isa.EvCompute); err != nil {
			return RunResult{}, err
		}
		if !recovered {
			// A nil ctx: the run is done, and its timing is owed.
			var err error
			if st, err = k.replayShard(nil, 1, key.timing, false); err != nil {
				return RunResult{}, err
			}
		}
		res.TimeNs, res.Stats, res.RecoveryStats = st.eng.MakespanNs, st.eng, st.rec
	}
	res.ScratchBytes = m.MemBytes()
	if injected {
		res.Faults = w.inj.Counts()
	}
	return res, nil
}

// fits reports whether the kernel's budget lets a clean recovered run with
// counters rec run to its end: it steps through the program's ops and the
// rolled-back ones, and issues those and the detector's commands.
func (k *Kernel) fits(rec sim.RecoveryStats) bool {
	n, b := len(k.prog.Ops), k.Opts.Budget
	return guard.Check(guard.DimSimSteps, b.MaxSimSteps, n+rec.WastedUops) == nil &&
		guard.Check(guard.DimDRAMCommands, b.MaxDRAMCommands, n+rec.WastedCommands+rec.DetectorCommands) == nil
}

// Run executes the kernel on operands given as one value per lane (widths
// up to 64 bits) and returns outputs the same way: a RunBatch of one. Use
// RunWide for wider operands.
func (k *Kernel) Run(inputs map[string][]uint64, lanes int) (map[string][]uint64, error) {
	outs, _, err := k.RunBatchCtx(nil, []BatchRun{{Inputs: inputs, Lanes: lanes}})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RunWide is Run for operands of arbitrary width, as little-endian 64-bit
// limb slices per lane.
func (k *Kernel) RunWide(inputs map[string][][]uint64, lanes int) (out map[string][][]uint64, err error) {
	defer recoverToError(&err)
	if _, err := k.pass(nil, []int{lanes}, FaultConfig{}, 0, func(_ *simWorker, _ int, in [][]uint64, sp laneSpan) error {
		for _, spec := range k.Inputs {
			if _, err := laneValues(inputs, spec.Name, sp.lanes); err != nil {
				return err
			}
		}
		k.scatterWide(in, sp.off, inputs, 0, sp.lanes)
		return nil
	}, func(_ *simWorker, rows [][]uint64, _ []laneSpan) {
		out = make(map[string][][]uint64, len(k.Outputs))
		for _, o := range k.Outputs {
			out[o.Name], rows = transpose.FromVerticalWide(rows[:o.Width], o.Width, lanes), rows[o.Width:]
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Asm renders the generated micro-op program as assembly text.
func (k *Kernel) Asm() string {
	var sb strings.Builder
	for i := range k.prog.Ops {
		fmt.Fprintf(&sb, "%4d: %s\n", i, k.prog.Ops[i])
	}
	return sb.String()
}

// Stats returns code generation statistics (CHOPPER kernels only; zero for
// baseline kernels — see Kernel.Baseline for their statistics).
func (k *Kernel) Stats() codegen.Stats {
	if k.Code == nil {
		return codegen.Stats{}
	}
	return k.Code.Stats
}

// compileBaselineGraph is the hands-tuned back end: baseline.Generate under
// the same ctx and micro-op budget codegen.Generate observes, checked per
// multi-bit operation.
func compileBaselineGraph(ctx context.Context, prog *dsl.Program, graph *dfg.Graph, opts Options) (*Kernel, error) {
	res, err := baseline.Generate(graph, baseline.Options{
		Arch:   opts.Target,
		DRows:  opts.Geometry.DRows(),
		MaxOps: opts.Budget.MaxMicroOps,
		Ctx:    ctx,
	})
	if guard.IsGuard(err) {
		return nil, err
	}
	if err != nil {
		return nil, stage(ErrCodegen, "chopper: baseline", err)
	}
	k := newKernel(opts, prog, graph)
	k.Baseline = res
	k.prog, k.inputTag, k.outputTag, k.constPattern = res.Prog, res.InputTag, res.OutputTag, res.ConstPattern
	return k, nil
}
