package main

import (
	"fmt"
	"strings"

	"chopper"
	"chopper/internal/isa"
	"chopper/internal/transpose"
	"chopper/internal/workloads"
)

// compileOp is one compile op of a cycle: a source compiled one way,
// checked against the reference case of that source.
type compileOp struct {
	spec compileSpec
	c    *refCase
	obs  opObs

	// warm is the warm-up cycle's kernel. The correctness stage runs it
	// and then lets it go: the timed region must not hold 48 kernels live,
	// or the garbage collector would pace itself to a heap no compiler
	// process has. Cache-hit ops keep it (the cache holds it anyway).
	warm *chopper.Kernel
	uops int
}

// do compiles through the public API. The op's exact facts are the size,
// the codegen statistics and a hash of the emitted program, so every
// timed compile is held bit for bit to the warm-up compile whose outputs
// the correctness stage checked.
func (op *compileOp) do() (simFacts, error) {
	k, outcome, err := op.spec.compile()
	if err != nil {
		return simFacts{}, err
	}
	f := simFacts{Emitted: int64(len(k.Prog().Ops))}
	switch {
	case op.uops == 0: // warm-up
		op.warm, op.uops = k, len(k.Prog().Ops)
		op.obs.degraded = k.Degradation != nil
	case op.spec.cache != nil:
		if outcome != chopper.CacheHit || k != op.warm {
			return f, fmt.Errorf("cache outcome %v, want a hit on the warm-up kernel", outcome)
		}
		return f, nil
	}
	if op.spec.cache == nil {
		f.Detail = fmt.Sprintf("%+v %016x", k.Stats(), progHash(k.Prog()))
	}
	return f, nil
}

// progHash folds every field of every micro-op into 64 bits.
func progHash(p *isa.Program) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(x uint64) {
		h ^= x
		h *= 0x100000001b3
		h ^= h >> 29
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		mix(uint64(op.Kind)<<48 ^ uint64(op.NDst)<<40 ^ uint64(uint32(op.Src)))
		mix(uint64(uint32(op.Dst[0]))<<32 ^ uint64(uint32(op.Dst[1])))
		mix(uint64(uint32(op.Dst[2]))<<32 ^ uint64(uint32(op.Tag)))
		mix(op.Imm)
	}
	return h
}

// runChecked is one checked pass of a kernel over a reference case's
// operands: transposed in, run on one simulated subarray, transposed out.
func runChecked(k *chopper.Kernel, c *refCase) (wide, *chopper.RunResult, error) {
	rows := make(map[string][][]uint64, len(k.Inputs))
	for _, in := range k.Inputs {
		rows[in.Name] = transpose.ToVerticalWide(c.in[in.Name], in.Width, c.lanes)
	}
	res, err := k.RunRows(rows, c.lanes)
	if err != nil {
		return nil, nil, err
	}
	out := make(wide, len(k.Outputs))
	for _, o := range k.Outputs {
		out[o.Name] = transpose.FromVerticalWide(res.Rows[o.Name], o.Width, c.lanes)
	}
	return out, res, nil
}

func passFacts(k *chopper.Kernel, res *chopper.RunResult) simFacts {
	return simFacts{Executed: int64(len(k.Prog().Ops)), TimeNs: res.TimeNs, EnergyPJ: res.Stats.EnergyPJ}
}

// establishCases establishes the reference of every case not yet
// established, from a checked pass of the first kernel listed for it.
func establishCases(o *oracle, ks []*chopper.Kernel, cs []*refCase) error {
	var jobs []refJob
	queued := map[*refCase]bool{}
	for i, c := range cs {
		if c.want != nil || queued[c] {
			continue
		}
		queued[c] = true
		o.bind(c, ks[i].Inputs)
		got, _, err := runChecked(ks[i], c)
		if err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
		jobs = append(jobs, refJob{c, ks[i], got})
	}
	return o.establishAll(jobs)
}

// checkKernel runs k on an established case and holds the outputs to the
// reference.
func checkKernel(k *chopper.Kernel, c *refCase) (*chopper.RunResult, error) {
	got, res, err := runChecked(k, c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.key, err)
	}
	if err := diffWide(got, c.want); err != nil {
		return nil, fmt.Errorf("%s: %w", c.key, err)
	}
	return res, nil
}

// compileCycle builds the cycle shared by both compile workloads.
func compileCycle(e *env, name string, names []string, ops []*compileOp) *cycle {
	c := &cycle{name: name, fp: strings.Join(names, ";")}
	for i, op := range ops {
		op := op
		c.items = append(c.items, libItem{
			item: item{name: names[i], path: "compile", do: op.do},
			obs:  &op.obs,
			stage: func(sc *stageCtx, itemName string, root int) error {
				uops, err := sc.stageCompile(itemName, root, op.spec)
				if err == nil && uops != op.uops {
					sc.count("trace.staged_mismatch", 1)
				}
				return err
			},
		})
	}
	// The correctness stage, outside the timed region: two checked runs of
	// every warm-up kernel (the second is the determinism check's repeated
	// pass). The simulated time and energy of one run of each are the
	// workload's sim_makespan_us and sim_energy_uj.
	c.checkFn = func() (simTotals, error) {
		var t simTotals
		ks, cs := make([]*chopper.Kernel, len(ops)), make([]*refCase, len(ops))
		for i, op := range ops {
			ks[i], cs[i] = op.warm, op.c
		}
		if err := establishCases(e.oracle, ks, cs); err != nil {
			return t, err
		}
		for i, op := range ops {
			res, err := checkKernel(op.warm, op.c)
			if err != nil {
				return t, err
			}
			facts := passFacts(op.warm, res)
			again, err := checkKernel(op.warm, op.c)
			if err != nil {
				return t, err
			}
			if f := passFacts(op.warm, again); f != facts {
				return t, fmt.Errorf("%s: simulator not deterministic: facts %+v, then %+v", names[i], facts, f)
			}
			op.obs.eng, op.obs.scratch = res.Stats, res.ScratchBytes
			t.add(op.uops, facts)
			if op.spec.cache == nil {
				op.warm = nil
			}
		}
		return t, nil
	}
	return c
}

// prepareCompileCold: 16 Table-II kernels x 3 targets, no cache, OptFull.
func prepareCompileCold(e *env) (prepared, error) {
	var ops []*compileOp
	var names []string
	for _, s := range workloads.All() {
		c := e.oracle.newCase(s.Name, s.Src, refLanes)
		for _, tg := range targets {
			ops = append(ops, &compileOp{c: c, spec: compileSpec{src: s.Src, target: tg, opt: chopper.OptFull}})
			names = append(names, s.Name+"/"+strings.ToLower(tg.String()))
		}
	}
	return compileCycle(e, "compile_cold", names, ops), nil
}

// prepareCompileVariants: the four paper kernels on Ambit, each compiled
// the seven ways compile_cold does not.
func prepareCompileVariants(e *env) (prepared, error) {
	cache := chopper.NewKernelCache(len(paperKernels))
	variants := []struct {
		tag string
		set func(*compileSpec)
	}{
		{"bitslice", func(cs *compileSpec) { cs.opt = chopper.OptBitslice }},
		{"schedule", func(cs *compileSpec) { cs.opt = chopper.OptSchedule }},
		{"reuse", func(cs *compileSpec) { cs.opt = chopper.OptReuse }},
		{"full+narrow", func(cs *compileSpec) { cs.narrow = true }},
		{"full+harden", func(cs *compileSpec) { cs.harden = true }},
		{"baseline", func(cs *compileSpec) { cs.baseline = true }},
		{"cache-hit", func(cs *compileSpec) { cs.cache = cache }},
	}
	var ops []*compileOp
	var names []string
	for _, name := range paperKernels {
		s, ok := workloads.Get(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		c := e.oracle.newCase(s.Name, s.Src, refLanes)
		for _, v := range variants {
			spec := compileSpec{src: s.Src, target: chopper.Ambit, opt: chopper.OptFull}
			v.set(&spec)
			ops = append(ops, &compileOp{c: c, spec: spec})
			names = append(names, s.Name+"/"+v.tag)
		}
	}
	cy := compileCycle(e, "compile_variants", names, ops)
	cy.cache = cache
	return cy, nil
}
