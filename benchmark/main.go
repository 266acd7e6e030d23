// Command benchmark is the repository's benchmark: six named workloads,
// end-to-end metrics on two clocks kept apart (wall = host time, sim =
// modelled DRAM time), every output checked against a reference that is
// not the compiler under test alone, and a separate traced pass that
// re-drives each op layer by layer. BENCHMARK.json at the repository root
// is its contract; README.md in this directory explains the tables.
//
// It is a module of its own; run.sh builds it and runs it from the
// repository root:
//
//	bash benchmark/run.sh                      all six workloads, seed 1
//	bash benchmark/run.sh -workload tiled_16 -seed 7 -seconds 10 -trace 0
//	bash benchmark/run.sh -workload run_paths -trace 1  per-layer metrics + benchmark/out/trace.json
//	bash benchmark/run.sh -out a.jsonl ...; bash benchmark/run.sh -compare a.jsonl b.jsonl
//	bash benchmark/run.sh -seed 1 -update-expected      regenerate benchmark/expected/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// prepareFns binds each workload name to its prepare phase.
var prepareFns = map[string]func(*env) (prepared, error){
	"compile_cold":     prepareCompileCold,
	"compile_variants": prepareCompileVariants,
	"run_paths":        prepareRunPaths,
	"tiled_16":         prepareTiled16,
	"serve_mixed":      prepareServeMixed,
	"serve_hot_key":    prepareServeHotKey,
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result with what identifies the run; -out appends one per
// workload and -compare reads them back.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Host     string  `json:"host"`
	// Invalid says why the run's numbers must not be used (the open-loop
	// generator ran later than the latencies it measured); empty otherwise.
	Invalid string   `json:"invalid,omitempty"`
	Errors  []string `json:"errors,omitempty"`
	// HostSteal is the share of the machine's busy CPU time during the
	// timed region that the hypervisor gave to other guests: above a few
	// percent the run was disturbed and its wall-clock figures read slow.
	HostSteal float64 `json:"host_steal,omitempty"`
	result
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	update   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var compare bool
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input, schedule and fault stream (1 and 2 have committed digests; 2 is the held-out seed)")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the timed region per workload, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer pass instead of the timed region and writes "+traceFile)
	fs.StringVar(&o.out, "out", "", "append one JSON record per workload to this file (input of -compare)")
	fs.BoolVar(&o.update, "update-expected", false, "recompute benchmark/expected/ for -seed (1 or 2) from three-way agreement")
	fs.BoolVar(&compare, "compare", false, "compare two -out files given as arguments: a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	} else if prepareFns[o.workload] == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	// One process, a pinned processor count, workloads one after another.
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	host := fmt.Sprintf("%s/%s %s cpus=%d GOMAXPROCS=%d", runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "host: %s\n", host)

	orc, err := newOracle(o.seed, o.update)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	tr := newTracer()
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	var last *record
	for _, name := range names {
		runtime.GC()
		rec := runWorkload(name, &o, orc, tr, stdout)
		rec.Host = host
		if o.out != "" {
			if err := appendRecord(o.out, rec); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 2
			}
		}
		all.Correct = all.Correct && rec.Correct
		all.Attempted += rec.Attempted
		all.Failed += rec.Failed
		for k, v := range rec.Metrics {
			all.Metrics[name+"."+k] = v
		}
		last = rec
	}
	if o.trace == 1 {
		if err := writeTrace(tr.spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(tr.spans), traceFile)
	}
	if o.update && all.Correct {
		if err := orc.writeExpected(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "expected: %d digests written to %s/%s\n", len(orc.fresh), expectedDir, expectedFile(o.seed))
	}
	final := all
	if len(names) == 1 {
		final = last.result
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// runWorkload runs one workload from set-up to checked result and prints
// its metrics. A failure anywhere makes the record incorrect; it never
// aborts the process, so the remaining workloads still run.
func runWorkload(name string, o *options, orc *oracle, tr *tracer, w io.Writer) *record {
	rec := &record{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	rec.Metrics = map[string]metricValue{}
	fmt.Fprintf(w, "\nworkload %s seed=%d seconds=%g trace=%d\n", name, o.seed, o.seconds, o.trace)
	broken := func(stage string, err error) *record {
		rec.Errors = append(rec.Errors, fmt.Sprintf("%s: %v", stage, err))
		rec.Correct, rec.Attempted, rec.Failed = false, max(rec.Attempted, 1), max(rec.Failed, 1)
		fmt.Fprintf(w, "  FAILED %s: %v\n", stage, err)
		return rec
	}

	d := time.Duration(o.seconds * float64(time.Second))
	minRepeats, maxRepeats := minSetupRepeats, maxSetupRepeats
	if o.trace == 1 {
		minRepeats, maxRepeats = 1, 1
		d = min(d, traceServeMax)
	}
	e := &env{seed: o.seed, duration: d, oracle: orc}

	// Set-up: everything before the timed region, i.e. the prepare phase
	// and the warm-up cycle. It runs several times, each on a fresh state
	// (a cheap set-up more often, so that its median is of more than a few
	// milliseconds of work), and counts with its median; the last state is
	// the one measured.
	var prep prepared
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < maxRepeats && (i < minRepeats || time.Since(setupStart) < setupBudget); i++ {
		if prep != nil {
			prep.close()
		}
		t0 := time.Now()
		p, err := prepareFns[name](e)
		if err != nil {
			return broken("prepare", err)
		}
		if prep != nil && p.fingerprint() != prep.fingerprint() {
			p.close()
			return broken("prepare", fmt.Errorf("not deterministic: kernel sizes %q, then %q", prep.fingerprint(), p.fingerprint()))
		}
		prep = p
		if err := prep.warmup(); err != nil {
			prep.close()
			return broken("warm-up", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer prep.close()
	setupS := median(setups)

	t0 := time.Now()
	totals, err := prep.check()
	if err != nil {
		return broken("correctness stage", err)
	}
	checkS := time.Since(t0).Seconds()

	if o.trace == 1 {
		m, lr, err := prep.traced(tr, d)
		if lr != nil {
			rec.Attempted, rec.Failed, rec.Errors = len(lr.latMs), lr.failed, lr.errs
		}
		if err != nil {
			return broken("traced pass", err)
		}
		if lr.wall > 0 && lr.executed > 0 {
			m["sim.uops_per_s"] = float64(lr.executed) / lr.wall.Seconds()
		}
		m["op_ms_p95"] = percentile(lr.latencies(), 0.95)
		for _, spec := range perLayerSpecs {
			rec.Metrics[spec.Name] = metricValue{m[spec.Name], spec.Unit}
		}
		rec.Correct = rec.Failed == 0 && rec.Attempted > 0
		// Layers this workload bypasses read 0; the table leaves them out
		// (the result line carries every metric).
		var active []metricSpec
		for _, spec := range perLayerSpecs {
			if m[spec.Name] != 0 {
				active = append(active, spec)
			}
		}
		printMetrics(w, active, rec.Metrics, nil)
		fmt.Fprintf(w, "  (%d further per-layer metrics read 0 on this workload)\n", len(perLayerSpecs)-len(active))
		if report := layerReport(tr.spans, name); report != "" {
			fmt.Fprintf(w, "  staged self time by layer:\n%s", indent(report, "    "))
		}
		printFailures(w, rec)
		return rec
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	busy0, steal0 := hostTicks()
	lr := prep.measure(d)
	busy1, steal1 := hostTicks()
	runtime.ReadMemStats(&ms1)
	rec.Attempted, rec.Failed, rec.Errors = len(lr.latMs), lr.failed, lr.errs
	if rec.Attempted == 0 {
		return broken("timed region", fmt.Errorf("no op completed"))
	}
	lat := lr.latencies()
	values := map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       lr.opsPerSec(),
		"op_ms_p50":       median(lat),
		"alloc_kb_per_op": float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(rec.Attempted),
		"uops_total":      float64(totals.Uops),
		"sim_makespan_us": totals.TimeNs / 1e3,
		"sim_energy_uj":   totals.EnergyPJ / 1e6,
	}
	for _, spec := range endToEndSpecs {
		rec.Metrics[spec.Name] = metricValue{values[spec.Name], spec.Unit}
	}
	rec.Correct = rec.Failed == 0
	// Latency is timed from the due time, so the generator's lateness is
	// inside every sample; once it reaches the tail it measures itself.
	p95 := percentile(lat, 0.95)
	if late, ok := lr.extra["loadgen.late_ms_p95"]; ok && late > p95 {
		rec.Invalid = fmt.Sprintf("the open-loop generator ran late: late_ms_p95 %.3f above op_ms_p95 %.3f", late, p95)
	}
	how := fmt.Sprintf("over all %d ops", len(lat))
	switch {
	case lr.itemOf != nil:
		how = fmt.Sprintf("over the cycle's %d items, each at its fastest of %d cycles", len(lat), rec.Attempted/len(lat))
	case lr.done != nil:
		how = fmt.Sprintf("over the %d ops of the fullest second", len(lat))
	}
	printMetrics(w, endToEndSpecs, rec.Metrics, map[string]string{
		"setup_s":   fmt.Sprintf("median of %d set-ups (prepare + warm-up cycle); correctness stage %.3f s not included", len(setups), checkS),
		"ops_per_s": lr.rateNote(),
		"op_ms_p50": how,
	})
	// Not end-to-end metrics, printed for the reader: the tail (a per-layer
	// metric of the traced run, see README), the rate with interference
	// left in, and the failures the result line carries.
	p95note := how
	if !supported(0.95, len(lat)) {
		p95note += "; fewer than the 200 samples a p95 needs: read it as the slowest items of the fixed mix"
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-7s wall (%s)\n", "op_ms_p95", p95, "ms", p95note)
	fmt.Fprintf(w, "  %-28s %14.6g %-7s wall (%d ops in %.3f s, interference included)\n", "raw ops_per_s", float64(rec.Attempted-rec.Failed)/lr.wall.Seconds(), "1/s", rec.Attempted, lr.wall.Seconds())
	fmt.Fprintf(w, "  %-28s %14.6g %-7s -    (%d failed of %d attempted)\n", "fail_share", float64(rec.Failed)/float64(rec.Attempted), "ratio", rec.Failed, rec.Attempted)
	for _, k := range sortedKeys(lr.extra) {
		fmt.Fprintf(w, "  %-28s %14.6g\n", k, lr.extra[k])
	}
	if ticks := (busy1 - busy0) + (steal1 - steal0); ticks > 0 {
		rec.HostSteal = (steal1 - steal0) / ticks
		fmt.Fprintf(w, "  %-28s %14.6g %-7s -    (of the virtual CPUs' busy time in the timed region, the host gave to others)\n", "host steal", rec.HostSteal, "ratio")
	}
	if rec.Invalid != "" {
		fmt.Fprintf(w, "  INVALID: %s\n", rec.Invalid)
	}
	printFailures(w, rec)
	return rec
}

// hostTicks reads the machine's cumulative busy (user, nice, system, irq,
// softirq) and stolen CPU time from /proc/stat, in clock ticks; zeros where
// there is no such file.
func hostTicks() (busy, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	at := func(i int) float64 {
		v, _ := strconv.ParseFloat(f[i], 64) // a malformed field counts as 0
		return v
	}
	return at(1) + at(2) + at(3) + at(6) + at(7), at(8)
}

func printMetrics(w io.Writer, specs []metricSpec, m map[string]metricValue, notes map[string]string) {
	for _, spec := range specs {
		clock := spec.Clock
		if clock == "" {
			clock = "-"
		}
		line := fmt.Sprintf("  %-28s %14.6g %-7s %-4s", spec.Name, m[spec.Name].Value, spec.Unit, clock)
		if note := notes[spec.Name]; note != "" {
			line += " (" + note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

func printFailures(w io.Writer, rec *record) {
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  FAILED op: %s\n", e)
	}
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(data, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func indent(s, prefix string) string {
	return prefix + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n"+prefix) + "\n"
}
