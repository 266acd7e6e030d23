package chopper

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"chopper/internal/dfg"
	"chopper/internal/dram"
	"chopper/internal/transpose"
)

const errAdderSrc = `
node main(a: u8, b: u8) returns (s: u8)
  let s = a + b;
tel`

// Every pipeline stage classes its failures with the matching sentinel, so
// callers can dispatch on errors.Is instead of message text.
func TestSentinelErrorStages(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts Options
		want error
		not  []error
	}{
		{
			name: "parse",
			src:  "node main(a: u8 returns", // truncated garbage
			want: ErrParse,
			not:  []error{ErrTypecheck, ErrNormalize, ErrCodegen, ErrInternal},
		},
		{
			name: "typecheck",
			src:  "node main(a: u8) returns (z: u16) let z = a; tel",
			want: ErrTypecheck,
			not:  []error{ErrParse, ErrNormalize, ErrCodegen},
		},
		{
			name: "normalize",
			src:  errAdderSrc,
			opts: Options{Entry: "nosuchnode"},
			want: ErrNormalize,
			not:  []error{ErrParse, ErrTypecheck, ErrCodegen},
		},
	}
	// The three source-level entry points share one front end, so each
	// classes these failures the way Compile does.
	drivers := []struct {
		name    string
		compile func(string, Options) (*Kernel, error)
	}{
		{"Compile", Compile},
		{"CompileBaseline", CompileBaseline},
		{"CompileHorizontal", CompileHorizontal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, d := range drivers {
				_, err := d.compile(tc.src, tc.opts)
				if err == nil {
					t.Fatalf("%s succeeded, want error", d.name)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("%s: error %v does not match %v", d.name, err, tc.want)
				}
				if got := ErrorClass(err); got != tc.name {
					t.Errorf("%s: ErrorClass = %q, want %q", d.name, got, tc.name)
				}
				for _, s := range tc.not {
					if errors.Is(err, s) {
						t.Errorf("%s: error %v unexpectedly matches %v", d.name, err, s)
					}
				}
			}
		})
	}
}

func TestSentinelErrorCodegen(t *testing.T) {
	// The baseline methodology rejects Harden at the codegen stage.
	_, err := CompileBaseline(errAdderSrc, Options{Harden: true})
	if err == nil {
		t.Fatal("CompileBaseline accepted Harden")
	}
	if !errors.Is(err, ErrCodegen) {
		t.Fatalf("error %v does not match ErrCodegen", err)
	}
}

// An option a pipeline cannot honour is rejected, never dropped: the
// baseline refuses Narrow in the class and form it refuses Harden, from
// every entry point that reaches it.
func TestBaselineRejectsWhatItCannotHonour(t *testing.T) {
	b := NewBuilder()
	b.Output("z", b.Add(b.Input("a", 8), b.Input("b", 8)))
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Harden: true}, "chopper: baseline: Harden is not supported by the hands-tuned methodology"},
		{Options{Narrow: NarrowSafe}, "chopper: baseline: Narrow is not supported by the hands-tuned methodology"},
		{Options{Narrow: NarrowAnnotated}, "chopper: baseline: Narrow is not supported by the hands-tuned methodology"},
	} {
		_, errSrc := CompileBaseline(errAdderSrc, tc.opts)
		_, _, errCached := CompileBaselineCached(nil, errAdderSrc, tc.opts)
		_, errBuilt := b.CompileBaseline(tc.opts)
		for _, err := range []error{errSrc, errCached, errBuilt} {
			if err == nil || err.Error() != tc.want || ErrorClass(err) != "codegen" {
				t.Errorf("%+v: error %v (class %q), want %q (class \"codegen\")", tc.opts, err, ErrorClass(err), tc.want)
			}
		}
	}
	// The CHOPPER and horizontal back ends honour both.
	if _, err := Compile(errAdderSrc, Options{Harden: true, Narrow: NarrowSafe}); err != nil {
		t.Errorf("Compile: %v", err)
	}
}

// A Builder's failures are graph-construction failures: classed
// ErrNormalize, the stage that reports them for source, by both of its
// compile methods.
func TestBuilderErrorsAreClassed(t *testing.T) {
	empty := NewBuilder()
	empty.Input("a", 8)
	dup := NewBuilder()
	dup.Output("z", dup.Add(dup.Input("a", 8), dup.Input("a", 8)))
	invalid := NewBuilder() // a zero Value handle passes the Builder's checks and fails Graph.Validate
	invalid.Input("a", 8)
	invalid.Output("z", invalid.Not(Value{}))
	for _, tc := range []struct {
		name string
		b    *Builder
		want string
	}{
		{"no outputs", empty, "chopper: normalize: builder: no outputs"},
		{"duplicate input", dup, `chopper: normalize: builder: duplicate input "a"`},
		{"invalid graph", invalid, "chopper: normalize: dfg: "},
	} {
		_, errC := tc.b.Compile(Options{})
		_, errB := tc.b.CompileBaseline(Options{})
		for _, err := range []error{errC, errB} {
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) || !errors.Is(err, ErrNormalize) || ErrorClass(err) != "normalize" {
				t.Errorf("%s: error %v (class %q), want prefix %q, class \"normalize\"", tc.name, err, ErrorClass(err), tc.want)
			}
		}
	}
}

// compileBuilt compiles a graph made directly — the route a Builder takes —
// through the CHOPPER pipeline.
func compileBuilt(g *dfg.Graph, opts Options) (*Kernel, error) {
	return kernelOf(compile(nil, pipeChopper, "", func() (*dfg.Graph, error) { return g, nil }, opts))
}

// Panics inside the pipeline must surface as ErrInternal errors, never as
// crashes escaping the public API: a nil built graph panics in the back end.
func TestCompileGraphNilRecovers(t *testing.T) {
	_, err := compileBuilt(nil, Options{})
	if err == nil {
		t.Fatal("compiling a nil graph succeeded")
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("error %v does not match ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "chopper: internal") {
		t.Fatalf("error %q missing internal prefix", err)
	}
}

// TestPanicInWorkerIsInternalAtAnyWorkerCount: a panic inside a pool
// worker is the same ErrInternal error at 1 worker and at 4 (at 4 it used
// to crash the process). The eight fault-free trials share one pass, whose
// word-aligned spans end at lane 639; a fault configuration that injects
// nothing (a stuck column past every lane) keeps one pass per trial, so at
// 4 workers the panics happen on pool goroutines and trial 0's wins.
func TestPanicInWorkerIsInternalAtAnyWorkerCount(t *testing.T) {
	k, err := Compile(errAdderSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k.Opts.Geometry.ReservedRows = k.Opts.Geometry.RowsPerSub // no data rows: every trial's subarray panics
	for _, tc := range []struct {
		fault FaultConfig
		want  string
	}{
		{FaultConfig{}, "chopper: internal: sim: bad subarray dims dRows=0 lanes=639"},
		{FaultConfig{StuckColumns: []StuckColumn{{Lane: 1 << 20}}}, "chopper: internal: sim: bad subarray dims dRows=0 lanes=64"},
	} {
		for _, workers := range []int{1, 4} {
			err := k.VerifyCtx(nil, 8, 1, workers, tc.fault)
			if !errors.Is(err, ErrInternal) || err.Error() != tc.want {
				t.Errorf("workers=%d fault=%+v: error %v, want ErrInternal %q", workers, tc.fault, err, tc.want)
			}
		}
	}
}

// TestRunTiledPanicIsInternal: RunTiledCtx recovers its panics into
// ErrInternal like every other entry point.
func TestRunTiledPanicIsInternal(t *testing.T) {
	k, err := Compile(errAdderSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k.Opts.Geometry.RowBytes = 0 // zero lanes per tile: the tile count divides by zero
	in := map[string][][]uint64{"a": {{1}}, "b": {{2}}}
	res, err := k.RunTiledCtx(nil, in, 1)
	if res != nil || !errors.Is(err, ErrInternal) {
		t.Fatalf("RunTiledCtx = %v, %v; want ErrInternal", res, err)
	}
}

func TestRunRejectsBadLanes(t *testing.T) {
	k, err := Compile(errAdderSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// lanes = -1 used to panic deep inside sim.NewSubarray and surface as
	// a recovered ErrInternal; options validation now rejects it up front
	// with the ErrOptions sentinel (and never a crash).
	_, err = k.Run(map[string][]uint64{"a": {1}, "b": {2}}, -1)
	if err == nil {
		t.Fatal("Run with lanes=-1 succeeded")
	}
	if !errors.Is(err, ErrOptions) {
		t.Fatalf("error %v does not match ErrOptions", err)
	}
}

// TestGeometryPastRowWidthIsOptionsError: a subarray with more data rows
// than an isa.Row can name is the caller's mistake, rejected before the
// pipeline runs.
func TestGeometryPastRowWidthIsOptionsError(t *testing.T) {
	geom := dram.DefaultGeometry()
	geom.RowsPerSub = 1<<15 + geom.ReservedRows + 1
	if _, err := Compile(errAdderSrc, Options{Geometry: geom}); !errors.Is(err, ErrOptions) {
		t.Fatalf("%d data rows: %v does not match ErrOptions", geom.DRows(), err)
	}
	geom.RowsPerSub--
	if _, err := Compile(errAdderSrc, Options{Geometry: geom}); err != nil {
		t.Fatalf("%d data rows: %v", geom.DRows(), err)
	}
}

// TestErrorClassMatrix pins ErrorClass over the full sentinel matrix —
// synthetic stage-classed errors for every sentinel, plus real errors
// produced by the API — so the server's status mapper and the CLI's exit
// logic stay in lockstep with the error taxonomy.
func TestErrorClassMatrix(t *testing.T) {
	synthetic := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{stage(ErrParse, "chopper: parse", errors.New("x")), "parse"},
		{stage(ErrTypecheck, "chopper: typecheck", errors.New("x")), "typecheck"},
		{stage(ErrNormalize, "chopper: normalize", errors.New("x")), "normalize"},
		{stage(ErrCodegen, "chopper: codegen", errors.New("x")), "codegen"},
		{stage(ErrVerify, "chopper: verify", errors.New("x")), "verify"},
		{stage(ErrInternal, "chopper: internal", errors.New("x")), "internal"},
		{optionsErrf("bad"), "options"},
		{ErrParse, "parse"},
		{ErrTypecheck, "typecheck"},
		{ErrNormalize, "normalize"},
		{ErrCodegen, "codegen"},
		{ErrVerify, "verify"},
		{ErrInternal, "internal"},
		{ErrOptions, "options"},
		{ErrBudget, "budget"},
		{ErrDeadline, "deadline"},
		{ErrCanceled, "canceled"},
		{&BudgetError{Dimension: DimMicroOps, Limit: 1, Count: 2}, "budget"},
		{errors.New("some I/O thing"), "unknown"},
	}
	for _, tc := range synthetic {
		if got := ErrorClass(tc.err); got != tc.want {
			t.Errorf("ErrorClass(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}

	// Real errors from the API must land in the same classes.
	real := []struct {
		want string
		err  func() error
	}{
		{"parse", func() error {
			_, err := Compile("node main(", Options{})
			return err
		}},
		{"typecheck", func() error {
			_, err := Compile("node main(a: u8) returns (z: u16) let z = a; tel", Options{})
			return err
		}},
		{"normalize", func() error {
			_, err := Compile(errAdderSrc, Options{Entry: "nope"})
			return err
		}},
		{"options", func() error {
			_, err := Compile(errAdderSrc, Options{Budget: Budget{MaxMicroOps: -1}})
			return err
		}},
		{"budget", func() error {
			_, err := Compile(errAdderSrc, Options{Budget: Budget{MaxNetGates: 1}})
			return err
		}},
		{"deadline", func() error {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			_, _, err := CompileCtxCached(ctx, errAdderSrc, Options{})
			return err
		}},
		{"canceled", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, _, err := CompileCtxCached(ctx, errAdderSrc, Options{})
			return err
		}},
		{"internal", func() error {
			_, err := compileBuilt(nil, Options{})
			return err
		}},
		{"verify", func() error {
			k, err := Compile(errAdderSrc, Options{})
			if err != nil {
				return err
			}
			return k.VerifyCtx(nil, 1, 5, 0, FaultConfig{TRAFlipRate: 1, MaxFaults: 1})
		}},
	}
	for _, tc := range real {
		if got := ErrorClass(tc.err()); got != tc.want {
			t.Errorf("real-world %s error classified as %q", tc.want, got)
		}
	}
}

func TestVerifyErrorClass(t *testing.T) {
	k, err := Compile(errAdderSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A certain single fault corrupts the unhardened adder, and the
	// resulting mismatch is classed ErrVerify.
	err = k.VerifyCtx(nil, 1, 5, 0, FaultConfig{TRAFlipRate: 1, MaxFaults: 1})
	const want = `chopper: verify: trial 0 lane 40: output "s" = 132, reference says 131`
	if err == nil || err.Error() != want {
		t.Fatalf("VerifyCtx under a guaranteed fault: error %v, want %s", err, want)
	}
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("error %v does not match ErrVerify", err)
	}
}

// TestReferenceEvalErrorClass: a failure of the reference evaluation itself
// is an ErrVerify from every sweep that compares against it — ReliabilityCtx
// used to return the evaluator's error unclassed.
func TestReferenceEvalErrorClass(t *testing.T) {
	k, err := Compile(errAdderSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The compiled program still runs; the reference no longer evaluates.
	g := *k.Graph
	g.Values = append([]dfg.Value(nil), g.Values...)
	g.Values[len(g.Values)-1].Kind = dfg.OpKind(99)
	k.Graph = &g

	verr := k.Verify(1, 5)
	_, rerr := k.ReliabilityCtx(nil, 1, 5, []FaultConfig{{}}, 0)
	for name, err := range map[string]error{"Verify": verr, "ReliabilityCtx": rerr} {
		if !errors.Is(err, ErrVerify) || !strings.Contains(err.Error(), "reference eval: dfg: unknown op 99") {
			t.Errorf("%s: got %v, want an ErrVerify-classed reference eval failure", name, err)
		}
	}
}

// TestRunRowsOperandErrorsAreDeterministic pins which operand a RunRows
// call with incomplete inputs names: the first, in k.Inputs order and
// lowest bit first, that is missing or too short — it used to be whichever
// the tag map's iteration order reached first — and the three message
// texts, each the caller's mistake (class options, as Run reports the same
// mistake). Only bits the program WRITEs need a bit-row: a narrowed kernel
// runs on operands that stop at its live bits.
func TestRunRowsOperandErrorsAreDeterministic(t *testing.T) {
	const lanes = 64
	k, err := Compile(equivSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	full := equivInputs(lanes, 1)
	cases := []struct {
		name string
		rows map[string][][]uint64
		want string
	}{
		{"nothing", map[string][][]uint64{}, `chopper: options: missing input operand "a"`},
		{"only a", map[string][][]uint64{"a": full["a"]}, `chopper: options: missing input operand "b"`},
		{"a and c", map[string][][]uint64{"a": full["a"], "c": full["c"]}, `chopper: options: missing input operand "b"`},
		{"short b and c", map[string][][]uint64{"a": full["a"], "b": full["b"][:5], "c": full["c"][:2]},
			`chopper: options: input "b" has 5 bit-rows, kernel needs bit 5`},
		{"short a, no b", map[string][][]uint64{"a": full["a"][:0], "c": full["c"]},
			`chopper: options: input "a" has 0 bit-rows, kernel needs bit 0`},
	}
	for i := 0; i < 100; i++ {
		for _, tc := range cases {
			if _, err := k.RunRows(tc.rows, lanes); err == nil || err.Error() != tc.want || ErrorClass(err) != "options" {
				t.Fatalf("iteration %d, %s: error %v (class %q), want %s (class options)", i, tc.name, err, ErrorClass(err), tc.want)
			}
		}
	}

	// A nil bit-row is a row of no words: the shape check rejects it before
	// anything executes (the simulator's WRITE used to be what failed).
	holed := map[string][][]uint64{"a": full["a"], "b": full["b"], "c": append([][]uint64(nil), full["c"]...)}
	holed["c"][3] = nil
	_, err = k.RunRows(holed, lanes)
	if want := `chopper: options: input "c" bit 3 has 0 words, 64 lanes need 1`; err == nil || err.Error() != want || ErrorClass(err) != "options" {
		t.Errorf("nil bit-row: error %v (class %q), want %s (class options)", err, ErrorClass(err), want)
	}

	// Under @range(a, 0, 15) the program never WRITEs a's high bits, so
	// four bit-rows are enough — and three are one too few.
	nk, err := Compile("@range(a, 0, 15)\nnode main(a: u8) returns (z: u8) let z = a + 1; tel", Options{Target: Ambit, Narrow: NarrowAnnotated})
	if err != nil {
		t.Fatal(err)
	}
	if _, tagged := nk.inputTag["a[4]"]; tagged {
		t.Fatal("narrowing kept a WRITE for a[4]; the tolerance case is vacuous")
	}
	a := make([]uint64, lanes)
	for l := range a {
		a[l] = uint64(l*37) & 15
	}
	res, err := nk.RunRows(map[string][][]uint64{"a": transpose.ToVertical(a, 4, lanes)}, lanes)
	if err != nil {
		t.Fatalf("narrowed kernel rejected an operand holding exactly its tagged bits: %v", err)
	}
	for l, z := range transpose.FromVertical(res.Rows["z"], 8, lanes) {
		if z != a[l]+1 {
			t.Fatalf("lane %d: z = %d, want %d", l, z, a[l]+1)
		}
	}
	want := `chopper: options: input "a" has 3 bit-rows, kernel needs bit 3`
	if _, err := nk.RunRows(map[string][][]uint64{"a": transpose.ToVertical(a, 3, lanes)}, lanes); err == nil || err.Error() != want || ErrorClass(err) != "options" {
		t.Errorf("narrowed kernel on three bit-rows: error %v (class %q), want %s (class options)", err, ErrorClass(err), want)
	}
}

// TestShortBitRowsAreTheCallers: a tagged bit-row shorter than its lanes
// need is RunRows' caller's mistake, named by operand, bit and words (it
// used to be zero-extended, computing the lanes past it from zeros), and a
// longer one is fine.
func TestShortBitRowsAreTheCallers(t *testing.T) {
	const lanes = 128
	k, err := Compile(errAdderSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, lanes)
	for l := range vals {
		vals[l] = uint64(l*29+7) & 0xff
	}
	full := map[string][][]uint64{"a": transpose.ToVertical(vals, 8, lanes), "b": transpose.ToVertical(vals, 8, lanes)}
	short := map[string][][]uint64{"a": make([][]uint64, 8), "b": full["b"]}
	long := map[string][][]uint64{"a": make([][]uint64, 8), "b": full["b"]}
	for bit, row := range full["a"] {
		short["a"][bit] = row[:1]
		long["a"][bit] = append(append([]uint64(nil), row...), ^uint64(0))
	}
	const want = `input "a" bit 0 has 1 words, 128 lanes need 2`
	if _, err := k.RunRows(short, lanes); err == nil || err.Error() != "chopper: options: "+want || ErrorClass(err) != "options" {
		t.Errorf("RunRows on 1-word bit-rows: error %v (class %q), want %s (class options)", err, ErrorClass(err), want)
	}
	ref, err := k.RunRows(full, lanes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.RunRows(long, lanes)
	if err != nil {
		t.Fatalf("RunRows of 3-word bit-rows: %v", err)
	}
	if !sameRows(got.Rows, ref.Rows) {
		t.Error("RunRows of 3-word bit-rows: outputs differ from the exact rows'")
	}
}

// TestRunShapeErrorsAreTheCallers pins what Run and RunWide say about a
// malformed call: an operand with the wrong number of values, a missing
// operand and an operand too wide for the one-value-per-lane form are the
// caller's mistakes — ErrOptions, with RunBatch's text minus the member
// prefix — and are raised before anything executes. Run used to let the
// transpose panic ("internal") on the first and report the second
// unclassed, and both ran the whole device pass before rejecting a
// > 64-bit output.
func TestRunShapeErrorsAreTheCallers(t *testing.T) {
	k, err := Compile("node main(a: u8, b: u8) returns (s: u8) let s = a + b; tel", Options{})
	if err != nil {
		t.Fatal(err)
	}
	wide := func(m map[string][]uint64) map[string][][]uint64 {
		out := make(map[string][][]uint64, len(m))
		for name, vals := range m {
			for _, v := range vals {
				out[name] = append(out[name], []uint64{v})
			}
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		inputs map[string][]uint64
		want   string
	}{
		{"two values for 64 lanes", map[string][]uint64{"a": {1, 2}, "b": {3, 4}},
			`chopper: options: input "a" has 2 values, want one per lane (64)`},
		{"missing operand", map[string][]uint64{"a": make([]uint64, 64)},
			`chopper: options: missing input "b"`},
	} {
		_, runErr := k.Run(tc.inputs, 64)
		_, wideErr := k.RunWide(wide(tc.inputs), 64)
		_, _, batchErr := k.RunBatch([]BatchRun{{Inputs: tc.inputs, Lanes: 64}})
		for verb, err := range map[string]error{"Run": runErr, "RunWide": wideErr, "RunBatch of one": batchErr} {
			if err == nil || err.Error() != tc.want || ErrorClass(err) != "options" {
				t.Errorf("%s, %s: error %v (class %q), want %s (class options)", tc.name, verb, err, ErrorClass(err), tc.want)
			}
		}
	}

	// A 65-bit output is rejected up front: a one-step budget would stop
	// the device pass first if it ran.
	wk, err := Compile("node main(a: u64) returns (z: u65) let z = u65(a) + 1; tel", Options{Budget: Budget{MaxSimSteps: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = wk.Run(map[string][]uint64{"a": make([]uint64, 64)}, 64)
	const want = `chopper: options: operand "z" is 65 bits wide; Run and RunBatch handle up to 64 (use RunWide or RunRowsCtx)`
	if err == nil || err.Error() != want {
		t.Errorf("65-bit output: error %v, want %s", err, want)
	}
	if _, err := wk.RunWide(map[string][][]uint64{"a": make([][]uint64, 64)}, 64); ErrorClass(err) != "budget" {
		t.Errorf("RunWide of the same kernel: error %v, want the budget stop of a pass that ran", err)
	}
}
