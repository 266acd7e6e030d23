package prove

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"chopper"
	"chopper/internal/codegen"
	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/sim"
	"chopper/internal/workloads"
)

// config is one compile configuration of the prover table.
type config struct {
	group string // the report line it counts on
	name  string
	src   string
	opts  chopper.Options
	horiz bool // CompileHorizontal
	// variants adds the hardened kernel (proved against this config's
	// unhardened net) and the NarrowSafe one.
	variants bool
	// size ranks how large the config's programs are, for scheduling.
	size int
}

// The sources of the root package's horizontal_test.go.
var horizontalSrcs = []string{
	"node main(a: u8, b: u8, m: u8) returns (z: u8) let z = (a & m) ^ (b | ~m); tel",
	"node main(a: u8) returns (z: u8) let z = a ^ 0xFF; tel",
	"node main(a: u32, b: u32) returns (z: u32) let z = a & b; tel",
}

// proverTable is the prover's coverage: the 16 Table-II kernels × 3
// architectures × 4 optimization levels × {plain, hardened, narrow-safe};
// the horizontal sources × 3 architectures; and three kernels on a 40-row
// subarray, so the spill paths are proved too. short keeps the first
// configuration of each Table-II domain.
func proverTable(short bool) []config {
	var cfgs []config
	for _, spec := range workloads.All() {
		if short && spec.Config != workloads.Configs[spec.Domain][0] {
			continue
		}
		rank := slices.Index(workloads.Configs[spec.Domain], spec.Config)
		for _, arch := range isa.AllArchs {
			for _, opt := range []chopper.OptLevel{chopper.OptBitslice, chopper.OptSchedule, chopper.OptReuse, chopper.OptFull} {
				cfgs = append(cfgs, config{group: "PROVE", name: fmt.Sprintf("%s/%s/%s", spec.Name, arch, opt),
					src: spec.Src, opts: chopper.Options{Target: arch}.WithOpt(opt), variants: true,
					size: 4*rank + int(chopper.OptFull-opt)})
			}
		}
	}
	for i, src := range horizontalSrcs {
		for _, arch := range isa.AllArchs {
			cfgs = append(cfgs, config{group: "PROVE-HORIZONTAL", name: fmt.Sprintf("horizontal-%d/%s", i, arch),
				src: src, opts: chopper.Options{Target: arch}, horiz: true})
		}
	}
	small := dram.DefaultGeometry().WithRowsPerSub(40)
	for _, wl := range []string{"DenseNet-16", "WTC-64", "SW-64"} {
		spec, _ := workloads.Get(wl)
		cfgs = append(cfgs, config{group: "PROVE-SPILL", name: wl + "/40-rows",
			src: spec.Src, opts: chopper.Options{Geometry: small}})
	}
	return cfgs
}

// outcome is what one config's kernels came to.
type outcome struct {
	proved     []Verdict
	mutants    map[string][]Verdict
	programs   int  // programs run in lockstep with sim
	agreed     int  // of which agreed with it op by op
	products   int  // product programs, each held to its translated clean runs
	translated int  // of which sim.Translate accepted and whose runs read what the lockstep verified
	spills     bool // some translated program has a SPILL_IN
	errs       []string
	m          *sim.Machine // the runs' simulator (machine)
}

func (o *outcome) errorf(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// run compiles cfg's kernels, proves each against its net, cross-checks
// each program with sim, holds its translated clean runs to what the
// cross-check verified, and mutates each unhardened one: TMR masks a
// single-site mutant by design.
func (cfg config) run() *outcome {
	o := &outcome{mutants: map[string][]Verdict{}}
	comp := chopper.Compile
	if cfg.horiz {
		comp = chopper.CompileHorizontal
	}
	kernel := func(name string, opts chopper.Options, net *logic.Net, mutate bool) *logic.Net {
		k, err := comp(cfg.src, opts)
		if err != nil {
			o.errorf("%s: %v", name, err)
			return nil
		}
		if net == nil {
			net = k.Net
		}
		r := Check(k.Code, net)
		o.proved = append(o.proved, r.Verdict)
		if r.Verdict != Proved {
			o.errorf("%s: %v", name, r)
		}
		geom := k.Opts.Geometry
		in := randomInputs(net, 1)
		o.products++
		if reads, ok := o.crossCheck(name, k.Code, nil, geom, in, -1); ok {
			o.checkTranslated(name, k, in, reads)
		}
		if !mutate {
			return net
		}
		for _, mu := range mutants {
			mc, md, ok := o.mutate(mu, k.Code, net, geom)
			if !ok {
				continue
			}
			r := Check(mc, net)
			o.mutants[mu.name] = append(o.mutants[mu.name], r.Verdict)
			what := name + ", " + mu.name + " mutant"
			if r.Verdict != Refuted {
				o.errorf("%s: %v, want refuted", what, r)
				continue
			}
			// The counterexample is the cross-check's input: sim must
			// stop where the prover did, or read the refuted output
			// differently from the net's Eval on exactly the lanes
			// reported.
			in := r.Inputs
			if in == nil {
				in = randomInputs(net, 1)
			}
			reads, ok := o.crossCheck(what, mc, md, geom, in, r.Op)
			if !ok || r.Op >= 0 {
				continue
			}
			want, err := net.Eval(netInputs(net, in))
			if err != nil {
				o.errorf("%s: %v", what, err)
				continue
			}
			if d := reads[mc.OutputTag[r.Output]] ^ want[r.Output]; d != r.Lanes {
				o.errorf("%s: the counterexample run on sim differs from Net.Eval on lanes %#x, the prover said %#x", what, d, r.Lanes)
			}
		}
		return net
	}
	net := kernel(cfg.name, cfg.opts, nil, true)
	if cfg.variants && net != nil {
		hard, narrow := cfg.opts, cfg.opts
		hard.Harden = true
		narrow.Narrow = chopper.NarrowSafe
		kernel(cfg.name+"/harden", hard, net, false)
		kernel(cfg.name+"/narrow", narrow, nil, true)
	}
	o.m = nil // it holds the last lockstep, and the outcome outlives the run
	return o
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestProveTable proves every kernel of the prover table against its net
// and reports each group in the form "PROVE: 576 / 576 proved, 0 refuted,
// 0 unproven"; in full (not -short, not -race) the report must be
// testdata/table.golden. Every program is also run in lockstep with the
// simulator, its translation — every clean product run's executor — is held
// to the READ payloads the lockstep verified, and every unhardened one is
// mutated four ways: each mutant must be refuted, and its counterexample
// must be real on sim.
func TestProveTable(t *testing.T) {
	cfgs := proverTable(testing.Short() || raceDetector)
	outs := make([]*outcome, len(cfgs))
	// Largest first for half the workers and smallest first for the
	// others, so two of the largest programs (a hardened WTC-512 at
	// bitslice is 5M micro-ops) are rarely in memory at once.
	queue := make([]int, len(cfgs))
	for i := range queue {
		queue[i] = i
	}
	sort.SliceStable(queue, func(a, b int) bool { return cfgs[queue[a]].size > cfgs[queue[b]].size })
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(big bool) {
			defer wg.Done()
			for {
				mu.Lock()
				if len(queue) == 0 {
					mu.Unlock()
					return
				}
				var i int
				if big {
					i, queue = queue[0], queue[1:]
				} else {
					i, queue = queue[len(queue)-1], queue[:len(queue)-1]
				}
				mu.Unlock()
				outs[i] = cfgs[i].run()
			}
		}(w%2 == 0)
	}
	wg.Wait()

	type tally struct{ n, proved, refuted, unproven int }
	var keys []string // report lines, in order
	counts := map[string]*tally{}
	count := func(key string, vs []Verdict) {
		if len(vs) == 0 {
			return
		}
		c := counts[key]
		if c == nil {
			c = &tally{}
			counts[key] = c
			keys = append(keys, key)
		}
		for _, v := range vs {
			c.n++
			switch v {
			case Proved:
				c.proved++
			case Refuted:
				c.refuted++
			default:
				c.unproven++
			}
		}
	}
	var programs, agreed, products, translated int
	spills := false
	for i, o := range outs {
		for _, e := range o.errs {
			t.Error(e)
		}
		count(cfgs[i].group, o.proved)
		programs += o.programs
		agreed += o.agreed
		products += o.products
		translated += o.translated
		spills = spills || o.spills
	}
	for _, mu := range mutants {
		for _, o := range outs {
			count("MUTANT-"+mu.name, o.mutants[mu.name])
		}
	}
	var lines []string
	for _, key := range keys {
		c := counts[key]
		if strings.HasPrefix(key, "MUTANT-") {
			lines = append(lines, fmt.Sprintf("%s: %d / %d refuted", key, c.refuted, c.n))
		} else {
			lines = append(lines, fmt.Sprintf("%s: %d / %d proved, %d refuted, %d unproven", key, c.proved, c.n, c.refuted, c.unproven))
		}
	}
	lines = append(lines, fmt.Sprintf("SIM-LOCKSTEP: %d / %d programs agree with sim op by op", agreed, programs),
		fmt.Sprintf("SIM-TRANSLATED: %d / %d programs translate and read the verified payloads at lanes %v", translated, products, translatedLanes))
	table := strings.Join(lines, "\n") + "\n"
	fmt.Print(table)
	if !spills {
		t.Error("no translated program spills; the SPILL renames went untested")
	}
	// The full table is pinned: a program, a mutant site or a translation
	// lost shows as a count that moved.
	if !testing.Short() && !raceDetector {
		want, err := os.ReadFile("testdata/table.golden")
		if err != nil {
			t.Fatal(err)
		}
		if table != string(want) {
			t.Errorf("the table differs from testdata/table.golden:\n got:\n%s\nwant:\n%s", table, want)
		}
	}
}

// mutant is a seeded back-end bug. sites lists the ops it can strike,
// likeliest first; at puts it at one of them, for a run over the input
// words in.
type mutant struct {
	name  string
	sites func(ops []isa.Op) []int
	at    func(code *codegen.Result, i int, in map[string]uint64) ([]isa.Op, bool)
}

var mutants = []mutant{
	// The wrong row picked for a TRA operand: another live D row copied in.
	{"OPERAND", operandSites, swapOperand},
	// A refill the allocator forgot.
	{"SPILL-IN", func(ops []isa.Op) []int { return find(ops, false, isSpillIn) }, deleteAt},
	// A dual-contact row read from the wrong side: a NOT lost or invented.
	{"DCC", func(ops []isa.Op) []int { return find(ops, true, readsDCC) }, flipDCC},
	// A store that was live, elided: an AP whose result is read later.
	{"STORE", func(ops []isa.Op) []int { return find(ops, true, isAP) }, deleteAt},
}

// maxSites bounds the sites tried per mutant and program.
const maxSites = 8

func isSpillIn(op *isa.Op) bool { return op.Kind == isa.OpSpillIn }
func isAP(op *isa.Op) bool      { return op.Kind == isa.OpAP }
func readsDCC(op *isa.Op) bool  { return op.Kind != isa.OpAP && op.Src.Complement() != isa.RowNone }

// find lists the indices of the ops keep accepts, last first if backward.
func find(ops []isa.Op, backward bool, keep func(*isa.Op) bool) []int {
	var out []int
	for k := range ops {
		i := k
		if backward {
			i = len(ops) - 1 - k
		}
		if keep(&ops[i]) {
			if out = append(out, i); len(out) == maxSites {
				break
			}
		}
	}
	return out
}

// operandSites lists, from the last AP back, the AAPs that copy an AP
// operand in from a row other than a constant.
func operandSites(ops []isa.Op) []int {
	var out []int
	for _, ap := range find(ops, true, isAP) {
		for _, t := range ops[ap].Dst {
			if j := lastWriter(ops[:ap], t); j >= 0 && ops[j].Kind == isa.OpAAP && !ops[j].Src.IsCGroup() {
				out = append(out, j)
			}
		}
	}
	return out
}

// lastWriter is the index of the last op in ops that stores to row r, or -1.
func lastWriter(ops []isa.Op, r isa.Row) int {
	for i := len(ops) - 1; i >= 0; i-- {
		for _, d := range ops[i].Dst[:ops[i].NDst] {
			if d == r || d.Complement() == r {
				return i
			}
		}
	}
	return -1
}

// swapOperand makes the AAP at i copy another live D row, one holding a
// different word over in, instead of its source.
func swapOperand(code *codegen.Result, i int, in map[string]uint64) ([]isa.Op, bool) {
	ops := code.Prog.Ops
	m := newRef(code, in)
	for k := 0; k < i; k++ {
		if m.step(&ops[k]) != nil {
			return nil, false
		}
	}
	src, _ := m.get(ops[i].Src)
	for s := numSpecial; s < len(m.rows); s++ {
		if m.def[s] && m.rows[s] != src {
			out := append([]isa.Op(nil), ops...)
			out[i].Src = isa.Row(s - numSpecial)
			return out, true
		}
	}
	return nil, false
}

func flipDCC(code *codegen.Result, i int, _ map[string]uint64) ([]isa.Op, bool) {
	out := append([]isa.Op(nil), code.Prog.Ops...)
	out[i].Src = out[i].Src.Complement()
	return out, true
}

func deleteAt(code *codegen.Result, i int, _ map[string]uint64) ([]isa.Op, bool) {
	ops := code.Prog.Ops
	out := make([]isa.Op, 0, len(ops)-1)
	return append(append(out, ops[:i]...), ops[i+1:]...), true
}

// mutate returns code with mu at the first of its sites that a 64-lane
// simulator run tells apart from net, with its program decoded for the
// lockstep, or false. Only that site's program is decoded.
// A mutant no input tells apart — an elided store whose value a constant
// pins, a NOT under a don't-care — is not a bug, and no oracle can refute
// it.
func (o *outcome) mutate(mu mutant, code *codegen.Result, net *logic.Net, geom dram.Geometry) (*codegen.Result, *sim.Decoded, bool) {
	in := randomInputs(net, 7)
	want, err := net.Eval(in)
	if err != nil {
		return nil, nil, false
	}
	for _, i := range mu.sites(code.Prog.Ops) {
		ops, ok := mu.at(code, i, in)
		if !ok {
			continue
		}
		mc := *code
		mc.Prog = &isa.Program{Ops: ops, DRowsUsed: code.Prog.DRowsUsed, SpillSlots: code.Prog.SpillSlots}
		if !o.agrees(&mc, geom, in, want) {
			return &mc, sim.Decode(mc.Prog), true
		}
	}
	return nil, nil, false
}

// agrees reports whether code runs on sim over in and reads want: on its
// translation where sim.Translate accepts the program, as the product's
// clean runs do, and decoded on the interpreter otherwise.
func (o *outcome) agrees(code *codegen.Result, geom dram.Geometry, in, want map[string]uint64) bool {
	m := o.machine()
	m.Reconfigure(sim.MachineConfig{Geom: geom, Lanes: 64})
	reads := map[int]uint64{}
	io := hostIO(code, in, 1, func(tag int, data []uint64) { reads[tag] = data[0] })
	var err error
	if t, _ := sim.Translate(code.Prog); m.Translatable(t, guard.Budget{}) {
		err = m.RunTranslatedCtx(nil, t, io)
	} else {
		err = m.RunFunctionalCtx(nil, sim.Decode(code.Prog), io, guard.Budget{})
	}
	if err != nil {
		return false
	}
	for name, v := range want {
		if reads[code.OutputTag[name]] != v {
			return false
		}
	}
	return true
}

// translatedLanes are the lane counts a translated run is checked at:
// either side of a word, and a row of 1,024 bitlines.
var translatedLanes = []int{1, 63, 65, 128, 1024}

// checkTranslated holds k's translation, which every clean product run
// executes, to the proved net: sim.Translate must accept the program, a
// clean run under k's budget must take the translation, and at each of
// translatedLanes a run over in, its 64-lane word repeated in every word of
// every WRITE, must READ reads — the payloads the lockstep verified against
// the net — in every word, the last masked to the lanes. (Lanes never mix:
// every row operation is bitwise.)
func (o *outcome) checkTranslated(name string, k *chopper.Kernel, in map[string]uint64, reads map[int]uint64) {
	ops := k.Code.Prog.Ops
	tr, err := sim.Translate(k.Code.Prog)
	if err != nil {
		o.errorf("%s: sim.Translate rejects the %d-op program: %v", name, len(ops), err)
		return
	}
	m := o.machine()
	for _, lanes := range translatedLanes {
		m.Reconfigure(sim.MachineConfig{Geom: k.Opts.Geometry, Arch: k.Opts.Target, Lanes: lanes})
		if !m.Translatable(tr, k.Opts.Budget) {
			o.errorf("%s: lanes %d: a clean run under budget %+v does not take the translation", name, lanes, k.Opts.Budget)
			return
		}
		words := (lanes + 63) / 64
		mask := ^uint64(0) >> (63 - (lanes-1)%64)
		got, bad := map[int]bool{}, ""
		io := hostIO(k.Code, in, words, func(tag int, data []uint64) {
			want, ok := reads[tag]
			got[tag] = true
			for w, v := range data {
				if w == words-1 {
					want &= mask
				}
				if bad == "" && (!ok || v != want) {
					bad = fmt.Sprintf("READ tag %d word %d: %#x, verified %#x (read by the lockstep: %v)", tag, w, v, want, ok)
				}
			}
		})
		if err := m.RunTranslatedCtx(nil, tr, io); err != nil {
			o.errorf("%s: lanes %d: translated: %v", name, lanes, err)
			return
		}
		if bad == "" && len(got) != len(reads) {
			bad = fmt.Sprintf("%d READ tags, the lockstep read %d", len(got), len(reads))
		}
		if bad != "" {
			o.errorf("%s: lanes %d: translated run: %s", name, lanes, bad)
			return
		}
	}
	o.translated++
	o.spills = o.spills || len(find(ops, false, isSpillIn)) > 0
}

// randomInputs draws 64 lanes for each of net's inputs, lane l with a
// density of ones of (l+1)/65: the low lanes reach the rare branches
// (SW's few = n < 50) that uniform lanes never take.
func randomInputs(net *logic.Net, seed int64) map[string]uint64 {
	rng := rand.New(rand.NewSource(seed))
	in := make(map[string]uint64, len(net.InputNames))
	for _, n := range net.InputNames {
		var v uint64
		for l := 0; l < 64; l++ {
			if rng.Intn(65) <= l {
				v |= 1 << l
			}
		}
		in[n] = v
	}
	return in
}

// netInputs is in restricted to net's inputs, which is what Eval takes.
func netInputs(net *logic.Net, in map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(net.InputNames))
	for _, n := range net.InputNames {
		out[n] = in[n]
	}
	return out
}

// hostIO binds a program's WRITE tags to the 64-lane input words of in (a
// constant's to its pattern), each repeated in every one of words words,
// and hands each READ to sink.
func hostIO(code *codegen.Result, in map[string]uint64, words int, sink func(tag int, data []uint64)) *sim.HostIO {
	name := make(map[int]string, len(code.InputTag))
	for n, tag := range code.InputTag {
		name[tag] = n
	}
	return &sim.HostIO{
		WriteData: func(tag int) []uint64 {
			var v uint64
			if n, ok := name[tag]; ok {
				v = in[n]
			} else if v, ok = code.ConstPattern[tag]; !ok {
				return nil
			}
			row := make([]uint64, words)
			for w := range row {
				row[w] = v
			}
			return row
		},
		ReadSink: sink,
	}
}

// crossCheck runs code's program on the word reference and, decoded as d
// (nil: decoded here), on sim's planned loop over the 64 lanes of in, in
// lockstep (see lockstep): each row an op senses or stores on sim, and each
// READ payload, must be the reference's word at that op, and both runs
// must stop at op stop (-1: never). It returns what sim's READs carried,
// and false after recording a disagreement.
func (o *outcome) crossCheck(name string, code *codegen.Result, d *sim.Decoded, geom dram.Geometry, in map[string]uint64, stop int) (map[int]uint64, bool) {
	o.programs++
	h, refStop := newLockstep(code, in)
	if refStop != stop {
		o.errorf("%s: the reference run stops at op %d, want %d", name, refStop, stop)
		return nil, false
	}
	if d == nil {
		d = sim.Decode(code.Prog)
	}
	simStop, err := h.run(o.machine(), geom, code, d, in)
	switch {
	case h.fail != "":
		o.errorf("%s: %s", name, h.fail)
		return nil, false
	case simStop >= 0 && (stop < 0 || simStop < stop):
		o.errorf("%s: op %d (%s): sim stops (%v), the reference run goes on", name, simStop, &code.Prog.Ops[simStop], err)
		return nil, false
	case simStop != stop:
		o.errorf("%s: op %d (%s): the reference run stops, sim runs on", name, stop, &code.Prog.Ops[stop])
		return nil, false
	}
	o.agreed++
	return h.reads, true
}

// machine is the outcome's simulator, reconfigured by each run.
func (o *outcome) machine() *sim.Machine {
	if o.m == nil {
		o.m = sim.NewMachine(sim.MachineConfig{Geom: dram.DefaultGeometry(), Lanes: 64})
	}
	return o.m
}

// stored lists the n rows op writes, each dual-contact partner after its
// row.
func stored(op *isa.Op) (rows [6]isa.Row, n int) {
	dsts := op.Dst[:op.NDst]
	if op.Kind == isa.OpAP {
		dsts = op.Dst[:]
	}
	for _, r := range dsts {
		rows[n] = r
		n++
		if c := r.Complement(); c != isa.RowNone {
			rows[n] = c
			n++
		}
	}
	return rows, n
}
