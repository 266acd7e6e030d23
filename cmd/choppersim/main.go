// Command choppersim compiles a CHOPPER program and executes it on the
// functional DRAM simulator, printing per-lane results and timing.
//
// Usage:
//
//	choppersim [-target ...] [-opt ...] [-baseline] [-lanes N]
//	           [-harden] [-fault-rate P] [-fault-seed S]
//	           [-recover none|parity|vote] [-epoch-uops N] [-max-retries N]
//	           [-narrow off|safe|annotated]
//	           [-timeout D] [-max-uops N]
//	           [-in name=v1,v2,... ...] file.chop
//	choppersim -asm file.pud       # execute raw PUD assembly
//
// -narrow selects the precision-adaptive compilation mode for single-
// program runs (see docs/PERFORMANCE.md): safe narrows values to bits
// the compiler can prove live, annotated additionally trusts @range
// input annotations. When narrowing engages, the summary gains a line
// with the declared-vs-live bit accounting and the micro-ops saved
// against a narrowing-off compile of the same program.
//
// -harden compiles with TMR (see docs/RELIABILITY.md); -fault-rate runs the
// program on a faulty subarray, injecting TRA charge-sharing flips at the
// given per-operation probability, reproducibly from -fault-seed.
//
// -recover enables self-healing execution with the named detector: the run
// is split into epochs, checkpointed, validated online, and replayed with
// scrub and backoff on a detection (see docs/RELIABILITY.md). -epoch-uops
// sets the epoch length target and -max-retries bounds replays per epoch;
// the run summary gains a recovery line (epochs, detections, corrections,
// wasted work). Recovery replays stay subject to -timeout and the budget
// caps: a retry loop that hits a limit exits with the same status-3
// diagnostics as plain runs.
//
// -timeout bounds the whole compile+run by wall clock and -max-uops caps
// how many micro-ops the compiler may emit (see docs/GUARDS.md). A budget
// or deadline stop exits with status 3 and a one-line diagnostic naming
// the exhausted dimension and its limit.
//
// Inputs not supplied default to a deterministic ramp (lane index modulo
// the operand's range), so quick experiments need no flags at all. In -asm
// mode WRITE tags are fed lane-index ramps XORed with the tag, and READ
// results are printed per tag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	chopper "chopper"
	"chopper/internal/dram"
	"chopper/internal/isa"
	"chopper/internal/obs"
	"chopper/internal/sim"
	"chopper/internal/transpose"
)

type inputFlags map[string][]uint64

func (f inputFlags) String() string { return "" }

func (f inputFlags) Set(s string) error {
	name, vals, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=v1,v2,...")
	}
	for _, p := range strings.Split(vals, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 0, 64)
		if err != nil {
			return err
		}
		f[name] = append(f[name], v)
	}
	return nil
}

func main() {
	asmMode := flag.Bool("asm", false, "treat the input as raw PUD assembly and execute it directly")
	target := flag.String("target", "ambit", "PUD architecture: ambit, elp2im, simdram")
	opt := flag.String("opt", "rename", "optimization level")
	baselineFlag := flag.Bool("baseline", false, "use the hands-tuned methodology")
	lanes := flag.Int("lanes", 16, "SIMD lanes to simulate")
	show := flag.Int("show", 8, "lanes to print")
	harden := flag.Bool("harden", false, "compile with TMR hardening (triplicated logic, majority-voted outputs)")
	faultRate := flag.Float64("fault-rate", 0, "per-TRA charge-sharing fault probability; 0 disables injection")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection seed (same seed, same faults)")
	recoverMode := flag.String("recover", "none", "self-healing execution detector: none, parity, vote")
	narrowMode := flag.String("narrow", "off", "precision-adaptive compilation: off, safe, annotated")
	epochUops := flag.Int("epoch-uops", 0, "with -recover: target epoch length in micro-ops; 0 means the default (256)")
	maxRetries := flag.Int("max-retries", 0, "with -recover: replays allowed per epoch; 0 means the default (3), negative means detect-only")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for compile+run (e.g. 5s); 0 disables")
	maxUops := flag.Int("max-uops", 0, "cap on emitted micro-ops; 0 means unlimited")
	ins := inputFlags{}
	flag.Var(ins, "in", "input operand values: name=v1,v2,... (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: choppersim [flags] file.chop")
		os.Exit(2)
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	arch, err := isa.ParseArch(*target)
	if err != nil {
		fatal(err)
	}
	if *lanes <= 0 {
		fatal(fmt.Errorf("-lanes must be positive, got %d", *lanes))
	}
	if *asmMode {
		runAsm(string(srcBytes), arch, *lanes)
		return
	}
	lv, err := obs.ParseVariant(*opt)
	if err != nil {
		fatal(err)
	}

	// Wire -timeout and -max-uops to the guard layer: the context bounds
	// the whole compile+run; the budget caps codegen emission.
	ctx := context.Context(nil)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), *timeout)
		defer cancel()
	}
	if *maxUops < 0 {
		fatal(fmt.Errorf("-max-uops must be non-negative, got %d", *maxUops))
	}

	opts := chopper.Options{Target: arch, Harden: *harden}.WithOpt(lv)
	opts.Budget = chopper.Budget{MaxMicroOps: *maxUops}
	detectors := map[string]chopper.Detector{"none": chopper.DetectorNone, "parity": chopper.DetectorParity, "vote": chopper.DetectorVote}
	det, ok := detectors[strings.ToLower(*recoverMode)]
	if !ok {
		fatal(fmt.Errorf("unknown -recover %q (valid: none, parity, vote)", *recoverMode))
	}
	opts.Recovery = chopper.Recovery{Detector: det, EpochUops: *epochUops, MaxRetries: *maxRetries}
	narrows := map[string]chopper.NarrowMode{"off": chopper.NarrowOff, "safe": chopper.NarrowSafe, "annotated": chopper.NarrowAnnotated}
	nm, ok := narrows[strings.ToLower(*narrowMode)]
	if !ok {
		fatal(fmt.Errorf("unknown -narrow %q (valid: off, safe, annotated)", *narrowMode))
	}
	opts.Narrow = nm
	compile := chopper.CompileCtxCached
	if *baselineFlag {
		compile = chopper.CompileBaselineCached
	}
	compileStart := time.Now()
	k, _, err := compile(ctx, string(srcBytes), opts)
	compileWall := time.Since(compileStart)
	if err != nil {
		fatalGuard(err)
	}

	// Assemble inputs: flags first, ramps for the rest.
	rows := make(map[string][][]uint64, len(k.Inputs))
	inVals := make(map[string][]uint64, len(k.Inputs))
	for _, in := range k.Inputs {
		vals := ins[in.Name]
		if vals == nil {
			vals = make([]uint64, *lanes)
			mask := ^uint64(0)
			if in.Width < 64 {
				mask = (uint64(1) << uint(in.Width)) - 1
			}
			for l := range vals {
				vals[l] = uint64(l) & mask
			}
		}
		if len(vals) < *lanes {
			padded := make([]uint64, *lanes)
			for l := range padded {
				padded[l] = vals[l%len(vals)]
			}
			vals = padded
		}
		inVals[in.Name] = vals
		w := in.Width
		if w > 64 {
			fatal(fmt.Errorf("input %s is %d bits; choppersim handles up to 64 (use the library's RunWide)", in.Name, w))
		}
		rows[in.Name] = transpose.ToVertical(vals, w, *lanes)
	}

	wallStart := time.Now()
	res, err := k.RunRowsCtx(ctx, rows, *lanes, chopper.FaultConfig{TRAFlipRate: *faultRate}, *faultSeed)
	wall := time.Since(wallStart)
	if err != nil {
		fatalGuard(err)
	}

	if k.Degradation != nil {
		fmt.Fprintf(os.Stderr, "choppersim: warning: compiled degraded at %s (requested %s, %d pass failures)\n",
			k.Degradation.Effective, k.Degradation.Requested, len(k.Degradation.Events))
	}

	fmt.Printf("compiled for %v (%s): %d micro-ops, %d D rows, %d spill slots\n",
		arch, lv, len(k.Prog().Ops), k.Prog().DRowsUsed, k.Prog().SpillSlots)
	if cs := compileWall.Seconds(); cs > 0 {
		gates := 0
		if k.Net != nil {
			gates = len(k.Net.Gates)
		}
		fmt.Printf("compile: %.2f ms wall, %.0f gates/s\n", cs*1e3, float64(gates)/cs)
	}
	if nm != chopper.NarrowOff {
		if k.Narrow == nil {
			fmt.Printf("narrowing (%s): pass fell back; program is the narrowing-off lowering\n", nm)
		} else {
			// A narrowing-off compile of the same program anchors the
			// micro-ops-saved figure.
			wide := opts
			wide.Narrow = chopper.NarrowOff
			base, _, err := compile(ctx, string(srcBytes), wide)
			line := fmt.Sprintf("narrowing (%s): %d declared -> %d live bits across %d values",
				k.Narrow.Mode, k.Narrow.DeclaredBits, k.Narrow.LiveBits, k.Narrow.Values)
			if err == nil && len(base.Prog().Ops) > 0 {
				saved := len(base.Prog().Ops) - len(k.Prog().Ops)
				line += fmt.Sprintf(", %d micro-ops saved (%.1f%%)",
					saved, 100*float64(saved)/float64(len(base.Prog().Ops)))
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("single-subarray makespan: %.1f us (%d lanes)\n", res.TimeNs/1000, *lanes)
	if s := wall.Seconds(); s > 0 {
		fmt.Printf("simulation rate: %.0f uops/s, %.0f DRAM commands/s (%.2f ms wall clock)\n",
			float64(len(k.Prog().Ops))/s, float64(res.Stats.Ops)/s, s*1e3)
	}
	fmt.Printf("peak scratch: %d bytes (subarray arenas, spill buffers, engine tables)\n", res.ScratchBytes)
	if *faultRate > 0 {
		f := res.Faults
		fmt.Printf("injected faults (rate %g, seed %d): %d TRA, %d copy, %d decay, %d stuck\n",
			*faultRate, *faultSeed, f.TRAFlips, f.CopyFlips, f.DecayFlips, f.StuckLanes)
	}
	if det != chopper.DetectorNone {
		rs := res.RecoveryStats
		fmt.Printf("recovery (%s): %d epochs, %d detections, %d corrected, %d uncorrected, %d wasted uops, %d scrubbed rows\n",
			det, rs.Epochs, rs.Detections, rs.Corrected, rs.Uncorrected, rs.WastedUops, rs.ScrubbedRows)
	}
	fmt.Println()

	// Clamp -show to [0, -lanes]: decoded slices hold exactly -lanes
	// entries, so printing more would index past them.
	n := *show
	if n > *lanes {
		n = *lanes
	}
	if n < 0 {
		n = 0
	}
	for _, in := range k.Inputs {
		vals := inVals[in.Name]
		if n < len(vals) {
			vals = vals[:n]
		}
		fmt.Printf("%-8s in  %v\n", in.Name, vals)
	}
	for _, out := range k.Outputs {
		vals := transpose.FromVertical(res.Rows[out.Name], out.Width, *lanes)
		if n < len(vals) {
			vals = vals[:n]
		}
		fmt.Printf("%-8s out %v\n", out.Name, vals)
	}
}

// runAsm assembles and executes a raw micro-op program. Each WRITE tag t
// receives the row pattern (laneIndex ^ t) & 1 replicated bitwise — i.e. a
// deterministic but tag-dependent bit-row — and each READ is printed.
func runAsm(text string, arch isa.Arch, lanes int) {
	prog, err := isa.ParseProgram(text)
	if err != nil {
		fatal(err)
	}
	geom := dram.DefaultGeometry()
	if err := prog.Validate(geom.DRows()); err != nil {
		fatal(err)
	}
	words := (lanes + 63) / 64
	io := &sim.HostIO{
		WriteData: func(tag int) []uint64 {
			row := make([]uint64, words)
			for l := 0; l < lanes; l++ {
				if (l^tag)&1 == 1 {
					row[l/64] |= 1 << uint(l%64)
				}
			}
			return row
		},
		ReadSink: func(tag int, data []uint64) {
			fmt.Printf("READ tag %d: %0*x\n", tag, words*16, data[0])
		},
	}
	ns, err := sim.RunProgram(prog, arch, geom, lanes, io)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("executed %d micro-ops in %.1f us (%d lanes)\n", len(prog.Ops), ns/1000, lanes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "choppersim:", err)
	os.Exit(1)
}

// fatalGuard is fatal with a one-line diagnostic for guard-layer stops:
// budget exhaustion prints the dimension and limit, deadline/cancel stops
// say so plainly; both exit with status 3 so scripts can tell a resource
// stop from an ordinary failure (status 1). Dispatch goes through
// chopper.ErrorClass — the same classifier chopperd's HTTP status mapper
// uses — so the CLI and the server never disagree about an error's kind.
func fatalGuard(err error) {
	switch chopper.ErrorClass(err) {
	case "budget":
		var be *chopper.BudgetError
		if errors.As(err, &be) {
			fmt.Fprintf(os.Stderr, "choppersim: budget exceeded: %s limit %d (used %d)\n", be.Dimension, be.Limit, be.Count)
		} else {
			fmt.Fprintln(os.Stderr, "choppersim: budget exceeded")
		}
		os.Exit(3)
	case "deadline":
		fmt.Fprintln(os.Stderr, "choppersim: deadline exceeded (-timeout)")
		os.Exit(3)
	case "canceled":
		fmt.Fprintln(os.Stderr, "choppersim: canceled")
		os.Exit(3)
	}
	fatal(err)
}
