// Command chopperc compiles CHOPPER source into PUD micro-op assembly.
//
// Usage:
//
//	chopperc [-target ambit|elp2im|simdram] [-opt bitslice|schedule|reuse|rename]
//	         [-baseline] [-horizontal] [-dump ast|dfg|net|asm|stats|live]
//	         [-entry node] file.chop
//
// With no -dump flag it prints the assembly. "-" reads from stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	chopper "chopper"
	"chopper/internal/dsl"
	"chopper/internal/isa"
	"chopper/internal/obs"
)

func main() {
	target := flag.String("target", "ambit", "PUD architecture: ambit, elp2im, simdram")
	opt := flag.String("opt", "rename", "optimization level: bitslice, schedule, reuse, rename")
	baselineFlag := flag.Bool("baseline", false, "compile with the hands-tuned SIMDRAM methodology instead of CHOPPER")
	horizontal := flag.Bool("horizontal", false, "compile for the horizontal (bit-parallel) layout; bitwise kernels only")
	dump := flag.String("dump", "asm", "what to print: ast, dfg, net, asm, stats, live")
	entry := flag.String("entry", "", "entry node (default: main or last node)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: chopperc [flags] file.chop (or - for stdin)")
		os.Exit(2)
	}
	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	arch, err := isa.ParseArch(*target)
	if err != nil {
		fatal(err)
	}
	lv, err := obs.ParseVariant(*opt)
	if err != nil {
		fatal(err)
	}

	opts := chopper.Options{Target: arch, Entry: *entry}.WithOpt(lv)
	var k *chopper.Kernel
	switch {
	case *baselineFlag && *horizontal:
		fatal(fmt.Errorf("-baseline and -horizontal are mutually exclusive"))
	case *baselineFlag:
		k, err = chopper.CompileBaseline(src, opts)
	case *horizontal:
		k, err = chopper.CompileHorizontal(src, opts)
	default:
		k, err = chopper.Compile(src, opts)
	}
	if err != nil {
		fatal(err)
	}

	switch *dump {
	case "asm":
		fmt.Print(k.Asm())
	case "ast":
		// The expanded program, pretty-printed as canonical source.
		fmt.Print(dsl.Format(k.Program))
	case "dfg":
		fmt.Printf("dataflow graph: %d values, %d operations, %d inputs, %d outputs\n",
			k.Graph.NumValues(), k.Graph.OpCount(), len(k.Graph.Inputs), len(k.Graph.Outputs))
	case "net":
		if k.Net == nil {
			fatal(fmt.Errorf("baseline kernels lower per operation; no whole-program net"))
		}
		fmt.Printf("%v\n", k.Net)
		for kind, n := range k.Net.Counts() {
			fmt.Printf("  %-8s %d\n", kind, n)
		}
	case "live":
		if k.Net == nil {
			fatal(fmt.Errorf("baseline kernels lower per operation; no whole-program schedule"))
		}
		natural := obs.ScheduleGates(k.Net, false)
		scheduled := obs.ScheduleGates(k.Net, true)
		fmt.Printf("computation gates:        %d\n", len(scheduled))
		fmt.Printf("buffering pressure (natural order):   %d rows\n", obs.MaxLive(k.Net, natural))
		fmt.Printf("buffering pressure (OBS-1 scheduled): %d rows\n", obs.MaxLive(k.Net, scheduled))
		// The order codegen emitted from: the level's schedule, chained at
		// OBS-3 unless its pressure alone overflows the D rows.
		if k.Degradation != nil {
			lv = k.Degradation.Effective
		}
		var s obs.Scratch
		used, chained := s.ScheduleGates(k.Net, lv.HasSchedule()), 0
		if lv.HasRename() && s.Live() <= k.Opts.Geometry.DRows() {
			used, chained = s.Chain(k.Net, used)
		}
		fmt.Printf("buffering pressure (codegen order):   %d rows\n", obs.MaxLive(k.Net, used))
		fmt.Printf("one-shot producers chained (OBS-3):   %d\n", chained)
		if k.Code != nil {
			fmt.Printf("D-group high-water mark (generated):  %d rows\n", k.Code.Stats.MaxLiveRows)
			fmt.Printf("stores elided (OBS-3):                %d\n", k.Code.Stats.StoresElided)
		}
	case "stats":
		p := k.Prog()
		fmt.Printf("target:        %v\n", arch)
		fmt.Printf("instructions:  %d\n", len(p.Ops))
		for kind, n := range p.Counts() {
			fmt.Printf("  %-10s %d\n", kind, n)
		}
		fmt.Printf("D rows used:   %d\n", p.DRowsUsed)
		fmt.Printf("spill slots:   %d\n", p.SpillSlots)
		if k.Code != nil {
			s := k.Stats()
			fmt.Printf("stores elided: %d\ndirect writes: %d\nconst reuses:  %d\n",
				s.StoresElided, s.DirectWrites, s.ConstCopies)
		}
		if k.Baseline != nil {
			b := k.Baseline.Stats
			fmt.Printf("operand rows:  %d\nspilled values: %d (%d rows)\n",
				b.OperandRows, b.SpilledValues, b.SpilledRows)
		}
	default:
		fatal(fmt.Errorf("unknown -dump %q", *dump))
	}
}

func readSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chopperc:", err)
	os.Exit(1)
}
