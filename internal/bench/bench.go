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

	"chopper"
	"chopper/internal/dram"
	"chopper/internal/hostmodel"
	"chopper/internal/isa"
	"chopper/internal/obs"
	"chopper/internal/ssd"
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

// sweepKernels bounds the harness's kernel cache. It holds every kernel the
// full sweep compiles — 16 workloads x (3 architectures x {4 OBS levels +
// hands-tuned} + Figure 11's two extra geometries x 2) is under 320 — so no
// figure recompiles what an earlier one built.
const sweepKernels = 512

// Harness measures workloads. It is a client of the public compiler API:
// every kernel behind every figure comes from chopper.Compile or
// chopper.CompileBaseline, through one single-flight kernel cache. It is
// safe for concurrent use.
type Harness struct {
	cache *chopper.KernelCache
}

// NewHarness creates an empty harness.
func NewHarness() *Harness {
	return &Harness{cache: chopper.NewKernelCache(sweepKernels)}
}

// kernel returns (caching) the compiled kernel for a workload. A kernel the
// compiler could only build below the requested level is an error here: a
// figure labelled with one OBS variant must never silently report another.
func (h *Harness) kernel(spec workloads.Spec, arch isa.Arch, comp Compiler, v obs.Variant, geom dram.Geometry) (*chopper.Kernel, error) {
	opts := chopper.Options{Target: arch, Geometry: geom, Cache: h.cache}.WithOpt(v)
	compile := chopper.Compile
	if comp == HandsTuned {
		compile = chopper.CompileBaseline
	}
	k, err := compile(spec.Src, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%v/%v: %w", spec.Name, arch, comp, err)
	}
	if d := k.Degradation; d != nil {
		last := d.Events[len(d.Events)-1]
		return nil, fmt.Errorf("bench: %s/%v/%v: compiler degraded from %v to %v (pass %s: %s); refusing to measure a lower level than the figure names",
			spec.Name, arch, comp, d.Requested, d.Effective, last.Stage, last.Reason)
	}
	return k, nil
}

// PUDTimeNs measures the full-problem execution time of a workload on a
// PUD architecture under cfg, spilling to the Table I drive.
func (h *Harness) PUDTimeNs(spec workloads.Spec, arch isa.Arch, comp Compiler, v obs.Variant, cfg Config) (float64, error) {
	return h.pudTimeNs(spec, arch, comp, v, cfg, ssd.DefaultConfig())
}

// pudTimeNs is PUDTimeNs on an explicit spill device: waves x the makespan
// of one wave, CHOPPER kernels issued by VIRCOE and hands-tuned ones by the
// bbop interface's lockstep broadcast.
func (h *Harness) pudTimeNs(spec workloads.Spec, arch isa.Arch, comp Compiler, v obs.Variant, cfg Config, drive ssd.Config) (float64, error) {
	k, err := h.kernel(spec, arch, comp, v, cfg.Geom)
	if err != nil {
		return 0, err
	}
	lanesPerTile := int64(cfg.Geom.Bitlines())
	tiles := max((spec.TotalLanes+lanesPerTile-1)/lanesPerTile, 1)
	inFlight := min(int64(cfg.placements()), tiles)
	emit := cfg.emitter(arch)
	if comp == HandsTuned {
		emit = vircoe.LockstepTo
	}
	ns, err := waveNs(k, cfg, int(inFlight), drive, emit)
	if err != nil {
		return 0, fmt.Errorf("bench: %s: %w", spec.Name, err)
	}
	waves := (tiles + inFlight - 1) / inFlight
	return ns * float64(waves), nil
}

// feed produces a wave's issue stream (Figure 5): vircoe.SerialTo and
// vircoe.LockstepTo are feeds as they stand, Config.emitter makes one of
// the CHOPPER emitter.
type feed func(prog *isa.Program, pls []vircoe.Placement, sink vircoe.Sink)

// emitter is VIRCOE under c.Mode, for arch's command timing.
func (c Config) emitter(arch isa.Arch) feed {
	timing := dram.TimingFor(arch, c.Geom)
	return func(prog *isa.Program, pls []vircoe.Placement, sink vircoe.Sink) {
		vircoe.EmitTo(prog, pls, c.Mode, timing, sink)
	}
}

// waveNs is the one place a wave is timed: k's resident program runs on
// inFlight placements, its issue stream — produced by `emit` — feeds a
// pooled command-level engine whose spill traffic is charged on a fresh
// `drive`, and the engine's makespan is the wave's.
func waveNs(k *chopper.Kernel, cfg Config, inFlight int, drive ssd.Config, emit feed) (float64, error) {
	pls, err := vircoe.Placements(cfg.Geom, inFlight)
	if err != nil {
		return 0, err
	}
	timing := dram.TimingFor(k.Opts.Target, cfg.Geom)

	// Workload data resides in the PUD DRAM (it is main memory): input and
	// output rows move within the subarray (placement copies at AAP cost),
	// not over the host bus. What does cross the bus: CPU-written constant
	// rows (the hands-tuned methodology's Figure 7 cost) and SSD spill
	// traffic.
	prog := residentProgram(k)

	dev := ssd.New(drive)
	eng := enginePool.Get().(*dram.Engine)
	eng.Reconfigure(cfg.Geom, timing, cfg.SALP)
	defer func() {
		eng.SSDDelay = nil // the closure below pins this wave's drive
		enginePool.Put(eng)
	}()
	rowBytes := cfg.Geom.RowBytes
	eng.SSDDelay = func(out bool, slot uint64, start float64) float64 {
		if out {
			return dev.Write(slot, rowBytes, start)
		}
		return dev.Read(slot, start)
	}
	// Issue streams can run to hundreds of millions of ops on the largest
	// workloads; feed the engine directly rather than materializing them.
	emit(prog, pls, func(bank, sub int, op *isa.Op) bool {
		eng.IssueOp(bank, sub, op.Kind, op.Imm)
		return true
	})
	return eng.Makespan(), nil
}

// enginePool recycles timing engines across measurements: every sweep cell
// re-arms a pooled engine via Reconfigure instead of allocating fresh
// scheduling tables (a bank x subarray slice set per engine).
var enginePool = sync.Pool{New: func() any { return new(dram.Engine) }}

// residentProgram rewrites k's input WRITEs and output READs into
// intra-subarray placement copies (AAP-class, no bus), keeping constant
// writes and spill traffic as real transfers. Timing-model use only: the
// rewritten program is not functionally executable.
func residentProgram(k *chopper.Kernel) *isa.Program {
	// WRITE tags of CPU-written constant rows, from whichever generator
	// produced the kernel.
	var constTags map[int]uint64
	if k.Baseline != nil {
		constTags = k.Baseline.ConstPattern
	} else {
		constTags = k.Code.ConstPattern
	}
	p := k.Prog()
	out := &isa.Program{DRowsUsed: p.DRowsUsed, SpillSlots: p.SpillSlots}
	out.Ops = make([]isa.Op, len(p.Ops))
	for i, op := range p.Ops {
		switch op.Kind {
		case isa.OpWrite:
			if _, isConst := constTags[int(op.Tag)]; !isConst {
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

// grid indexes the rows by (workload, series) cell and returns the
// workloads in first-seen order and the column order: t.Series, or, when
// that is empty, the series present, sorted.
func (t *Table) grid() (byCell map[[2]string]float64, wls, series []string) {
	byCell = make(map[[2]string]float64, len(t.Rows))
	seenWL, seen := map[string]bool{}, map[string]bool{}
	for _, r := range t.Rows {
		byCell[[2]string{r.Workload, r.Series}] = r.Value
		if !seenWL[r.Workload] {
			seenWL[r.Workload] = true
			wls = append(wls, r.Workload)
		}
		if !seen[r.Series] {
			seen[r.Series] = true
			series = append(series, r.Series)
		}
	}
	if len(t.Series) > 0 {
		return byCell, wls, t.Series
	}
	sort.Strings(series)
	return byCell, wls, series
}

// Render formats the table with workloads as rows and series as columns.
func (t *Table) Render() string {
	byCell, wls, series := t.grid()
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
	byCell, wls, series := t.grid()
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
