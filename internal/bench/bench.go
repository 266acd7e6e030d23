// Package bench is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (Section VIII) from the compiled
// workloads, the DRAM/SSD timing models, and the host machine models.
//
// The execution-time methodology mirrors the paper's setup: a workload's
// data is tiled over subarrays (one element per bitline, 65536 lanes per
// subarray); a wave of tiles — one subarray per bank, or several with SALP
// — executes the compiled kernel; the wave's issue stream is produced by
// VIRCOE (CHOPPER) or by naive serial broadcast (hands-tuned baseline),
// and its makespan is measured on the command-level DRAM engine with SSD
// spill charging; the whole problem is waves x wave-makespan.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"chopper/internal/baseline"
	"chopper/internal/bitslice"
	"chopper/internal/codegen"
	"chopper/internal/dfg"
	"chopper/internal/dram"
	"chopper/internal/dsl"
	"chopper/internal/hostmodel"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/obs"
	"chopper/internal/ssd"
	"chopper/internal/typecheck"
	"chopper/internal/vircoe"
	"chopper/internal/workloads"
)

// Compiler selects which code generator produces the kernel.
type Compiler int

const (
	// HandsTuned is the SIMDRAM methodology baseline.
	HandsTuned Compiler = iota
	// Chopper is the CHOPPER pipeline (at some OBS variant).
	Chopper
)

func (c Compiler) String() string {
	if c == HandsTuned {
		return "hand"
	}
	return "chopper"
}

// Config fixes the machine-side parameters of an experiment.
type Config struct {
	Geom       dram.Geometry
	SALP       bool
	Mode       vircoe.Mode
	Placements int // tiles in flight per wave; 0 = one per bank
}

// DefaultConfig is the Table I machine: default geometry, BLP only.
func DefaultConfig() Config {
	return Config{Geom: dram.DefaultGeometry(), Mode: vircoe.BankAware}
}

func (c Config) placements() int {
	if c.Placements > 0 {
		return c.Placements
	}
	return c.Geom.Banks
}

// Key identifies a compiled artifact for caching.
type key struct {
	workload string
	arch     isa.Arch
	compiler Compiler
	variant  obs.Variant
	rows     int
}

// Harness compiles workloads on demand and measures them. It is safe for
// concurrent use.
type Harness struct {
	mu    sync.Mutex
	progs map[key]*compiled
}

type compiled struct {
	prog      *isa.Program
	stats     codegen.Stats
	baseStats baseline.Stats
	graph     *dfg.Graph
	constTags map[int]bool
	err       error
}

// NewHarness creates an empty harness.
func NewHarness() *Harness {
	return &Harness{progs: make(map[key]*compiled)}
}

func buildGraph(src string) (*dfg.Graph, error) {
	prog, err := dsl.ParseAndExpand(src)
	if err != nil {
		return nil, err
	}
	ch, err := typecheck.Check(prog)
	if err != nil {
		return nil, err
	}
	return dfg.Build(ch)
}

// compile returns (caching) the compiled program for a workload.
func (h *Harness) compile(spec workloads.Spec, arch isa.Arch, comp Compiler, v obs.Variant, geom dram.Geometry) (*compiled, error) {
	k := key{spec.Name, arch, comp, v, geom.DRows()}
	h.mu.Lock()
	if c, ok := h.progs[k]; ok {
		h.mu.Unlock()
		return c, c.err
	}
	h.mu.Unlock()

	c := &compiled{}
	graph, err := buildGraph(spec.Src)
	if err != nil {
		c.err = err
	} else {
		c.graph = graph
		switch comp {
		case HandsTuned:
			res, err := baseline.Generate(graph, baseline.Options{Arch: arch, DRows: geom.DRows()})
			if err != nil {
				c.err = err
			} else {
				c.prog = res.Prog
				c.baseStats = res.Stats
				c.constTags = make(map[int]bool, len(res.ConstPattern))
				for tag := range res.ConstPattern {
					c.constTags[tag] = true
				}
			}
		case Chopper:
			net, err := bitslice.Lower(graph, bitslice.Options{Fold: v.HasReuse()})
			if err != nil {
				c.err = err
				break
			}
			leg, err := logic.Legalize(net, arch, logic.BuilderOptions{Fold: v.HasReuse(), CSE: true})
			if err != nil {
				c.err = err
				break
			}
			res, err := codegen.Generate(leg.DCE(), codegen.Options{Arch: arch, Variant: v, DRows: geom.DRows()})
			if err != nil {
				c.err = err
			} else {
				c.prog = res.Prog
				c.stats = res.Stats
				c.constTags = make(map[int]bool, len(res.ConstPattern))
				for tag := range res.ConstPattern {
					c.constTags[tag] = true
				}
			}
		}
	}
	h.mu.Lock()
	h.progs[k] = c
	h.mu.Unlock()
	return c, c.err
}

// PUDTimeNs measures the full-problem execution time of a workload on a
// PUD architecture under cfg.
func (h *Harness) PUDTimeNs(spec workloads.Spec, arch isa.Arch, comp Compiler, v obs.Variant, cfg Config) (float64, error) {
	c, err := h.compile(spec, arch, comp, v, cfg.Geom)
	if err != nil {
		return 0, fmt.Errorf("bench: %s/%v/%v: %w", spec.Name, arch, comp, err)
	}
	lanesPerTile := int64(cfg.Geom.Bitlines())
	tiles := (spec.TotalLanes + lanesPerTile - 1) / lanesPerTile
	if tiles < 1 {
		tiles = 1
	}
	inFlight := int64(cfg.placements())
	if inFlight > tiles {
		inFlight = tiles
	}
	pls, err := vircoe.Placements(cfg.Geom, int(inFlight))
	if err != nil {
		return 0, fmt.Errorf("bench: %s: %w", spec.Name, err)
	}
	timing := dram.TimingFor(arch, cfg.Geom)

	// Workload data resides in the PUD DRAM (it is main memory): input and
	// output rows move within the subarray (placement copies at AAP cost),
	// not over the host bus. What does cross the bus: CPU-written constant
	// rows (the hands-tuned methodology's Figure 7 cost) and SSD spill
	// traffic.
	prog := residentProgram(c.prog, c.constTags)

	dev := ssd.New(ssd.DefaultConfig())
	eng := getEngine(cfg.Geom, timing, cfg.SALP)
	defer putEngine(eng)
	rowBytes := cfg.Geom.RowBytes
	eng.SSDDelay = func(out bool, slot uint64, start float64) float64 {
		if out {
			return dev.Write(slot, rowBytes, start)
		}
		return dev.Read(slot, start)
	}
	// Issue streams can run to hundreds of millions of ops on the largest
	// workloads; feed the engine directly rather than materializing them.
	sink := issueTo(eng)
	if comp == Chopper {
		vircoe.EmitTo(prog, pls, cfg.Mode, timing, sink)
	} else {
		vircoe.LockstepTo(prog, pls, sink)
	}
	waveNs := eng.Makespan()
	waves := (tiles + inFlight - 1) / inFlight
	return waveNs * float64(waves), nil
}

// issueTo returns the sink that feeds an emitter straight into eng.
func issueTo(eng *dram.Engine) vircoe.Sink {
	return func(bank, sub int, op *isa.Op) bool {
		eng.IssueOp(bank, sub, op.Kind, op.Imm)
		return true
	}
}

// enginePool recycles timing engines across measurements: every sweep cell
// re-arms a pooled engine via Reconfigure instead of allocating fresh
// scheduling tables (a bank x subarray slice set per engine).
var enginePool sync.Pool

func getEngine(g dram.Geometry, t dram.Timing, salp bool) *dram.Engine {
	if v := enginePool.Get(); v != nil {
		e := v.(*dram.Engine)
		e.Reconfigure(g, t, salp)
		return e
	}
	return dram.NewEngine(g, t, salp)
}

func putEngine(e *dram.Engine) {
	e.SSDDelay = nil
	enginePool.Put(e)
}

// residentProgram rewrites input WRITEs and output READs into
// intra-subarray placement copies (AAP-class, no bus), keeping constant
// writes and spill traffic as real transfers. Timing-model use only: the
// rewritten program is not functionally executable.
func residentProgram(p *isa.Program, constTags map[int]bool) *isa.Program {
	out := &isa.Program{DRowsUsed: p.DRowsUsed, SpillSlots: p.SpillSlots}
	out.Ops = make([]isa.Op, len(p.Ops))
	for i, op := range p.Ops {
		switch op.Kind {
		case isa.OpWrite:
			if !constTags[int(op.Tag)] {
				op = isa.NewAAP(isa.C0, op.Dst[0])
			}
		case isa.OpRead:
			op = isa.NewAAP(op.Src, isa.T3)
		}
		out.Ops[i] = op
	}
	return out
}

// CPUTimeNs and GPUTimeNs evaluate the host models.
func CPUTimeNs(spec workloads.Spec) float64 {
	return hostTimeNs(hostmodel.Skylake(), spec.HostCost)
}

// GPUTimeNs models the TITAN V.
func GPUTimeNs(spec workloads.Spec) float64 {
	return hostTimeNs(hostmodel.TitanV(), spec.HostCost)
}

// hostTimeNs is the harness's single entry point into a host machine
// model; it validates the machine first so a degenerate model (zero
// value, negative overhead) can never silently feed NaN/Inf into a
// normalized figure. The package machines always validate, so the panic
// is unreachable short of a corrupted model table.
func hostTimeNs(m hostmodel.Machine, c hostmodel.Cost) float64 {
	ns, err := m.TimeNsChecked(c.Bytes, c.Ops)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return ns
}

// Row is one measurement: a (workload, series) cell.
type Row struct {
	Workload string
	Series   string
	Value    float64
}

// Table is a named collection of rows plus rendering metadata.
type Table struct {
	Title  string
	Unit   string // "speedup over CPU", "LoC", "ns"
	Rows   []Row
	Series []string // column order
}

// Render formats the table with workloads as rows and series as columns.
func (t *Table) Render() string {
	byCell := make(map[[2]string]float64, len(t.Rows))
	var wls []string
	seenWL := map[string]bool{}
	for _, r := range t.Rows {
		byCell[[2]string{r.Workload, r.Series}] = r.Value
		if !seenWL[r.Workload] {
			seenWL[r.Workload] = true
			wls = append(wls, r.Workload)
		}
	}
	series := t.Series
	if len(series) == 0 {
		seen := map[string]bool{}
		for _, r := range t.Rows {
			if !seen[r.Series] {
				seen[r.Series] = true
				series = append(series, r.Series)
			}
		}
		sort.Strings(series)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s)\n", t.Title, t.Unit)
	fmt.Fprintf(&sb, "%-14s", "workload")
	for _, s := range series {
		fmt.Fprintf(&sb, " %14s", s)
	}
	sb.WriteString("\n")
	for _, wl := range wls {
		fmt.Fprintf(&sb, "%-14s", wl)
		for _, s := range series {
			v, ok := byCell[[2]string{wl, s}]
			if !ok {
				fmt.Fprintf(&sb, " %14s", "-")
			} else if v >= 1000 {
				fmt.Fprintf(&sb, " %14.0f", v)
			} else {
				fmt.Fprintf(&sb, " %14.2f", v)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (workload rows, series
// columns), for plotting outside Go.
func (t *Table) CSV() string {
	byCell := make(map[[2]string]float64, len(t.Rows))
	var wls []string
	seenWL := map[string]bool{}
	for _, r := range t.Rows {
		byCell[[2]string{r.Workload, r.Series}] = r.Value
		if !seenWL[r.Workload] {
			seenWL[r.Workload] = true
			wls = append(wls, r.Workload)
		}
	}
	series := t.Series
	if len(series) == 0 {
		seen := map[string]bool{}
		for _, r := range t.Rows {
			if !seen[r.Series] {
				seen[r.Series] = true
				series = append(series, r.Series)
			}
		}
		sort.Strings(series)
	}
	var sb strings.Builder
	sb.WriteString("workload")
	for _, s := range series {
		sb.WriteString("," + s)
	}
	sb.WriteByte('\n')
	for _, wl := range wls {
		sb.WriteString(wl)
		for _, s := range series {
			if v, ok := byCell[[2]string{wl, s}]; ok {
				fmt.Fprintf(&sb, ",%g", v)
			} else {
				sb.WriteString(",")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// GeoMean returns the geometric mean of the series' values across rows.
func (t *Table) GeoMean(series string) float64 {
	logSum, n := 0.0, 0
	for _, r := range t.Rows {
		if r.Series == series && r.Value > 0 {
			logSum += math.Log(r.Value)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
