package chopper

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"chopper/internal/codegen"
	"chopper/internal/dfg"
	"chopper/internal/dsl"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/obs"
	"chopper/internal/typecheck"
	"chopper/internal/workloads"
)

// workloadGraph runs the front end on a Table-II workload.
func workloadGraph(t *testing.T, name string) (*dsl.Program, *dfg.Graph) {
	t.Helper()
	spec, ok := workloads.Get(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	prog, err := dsl.ParseAndExpand(spec.Src)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := typecheck.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := dfg.BuildNode(checked, prog.Entry().Name)
	if err != nil {
		t.Fatal(err)
	}
	return prog, graph
}

// compileOn runs the back end at OptFull on a workspace the test owns.
func compileOn(t *testing.T, ws *workspace, name string, target Target) *Kernel {
	t.Helper()
	prog, graph := workloadGraph(t, name)
	k, err := compileGraphAt(nil, ws, prog, graph, graph, Options{Target: target}.normalize(), OptFull)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return k
}

// sameKernel reports the first difference between two kernels' emitted
// programs and legalized nets.
func sameKernel(a, b *Kernel) error {
	if !reflect.DeepEqual(a.Prog(), b.Prog()) {
		return errors.New("programs differ")
	}
	if !reflect.DeepEqual(a.Net.Gates, b.Net.Gates) {
		return errors.New("legalized nets differ")
	}
	if !reflect.DeepEqual(a.Code.InputTag, b.Code.InputTag) || !reflect.DeepEqual(a.Code.OutputTag, b.Code.OutputTag) {
		return errors.New("host tags differ")
	}
	return nil
}

// TestCompileAllocGate holds the cold compile to its output: one compile
// may allocate 1.5x the program and the net it returns (the front end's
// trees, the name strings, the host-tag maps; DenseNet-64 reads 1.45x) —
// not an op buffer sized for the worst case at 64 bytes a slot, not a side
// table of expression types, and not the interning table, CSR arrays and
// gate slices a previous compile already grew.
func TestCompileAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 65k-gate workload kernel several times")
	}
	spec, _ := workloads.Get("DenseNet-64")
	var k *Kernel
	compile := func() {
		var err error
		if k, err = Compile(spec.Src, Options{Target: Ambit}); err != nil {
			t.Fatal(err)
		}
	}
	compile() // grow the workspace
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		compile()
	}
	runtime.ReadMemStats(&after)
	perCompile := (after.TotalAlloc - before.TotalAlloc) / runs

	kept := uint64(len(k.Prog().Ops))*32 + uint64(len(k.Net.Gates))*16
	t.Logf("%d B/compile; the kernel keeps %d B (%d ops, %d gates)", perCompile, kept, len(k.Prog().Ops), len(k.Net.Gates))
	if limit := kept * 3 / 2; perCompile > limit {
		t.Errorf("a cold compile allocates %d B, over 1.5x the %d B of program and net it returns", perCompile, kept)
	}
}

// TestCompileBaselineAllocGate holds a warm hands-tuned compile to twice the
// program it returns: the stream is written once at its exact length, and
// each operation signature's routine is synthesized once per compile, not
// once per operation.
func TestCompileBaselineAllocGate(t *testing.T) {
	spec, _ := workloads.Get("WTC-64")
	var k *Kernel
	compile := func() {
		var err error
		if k, err = CompileBaseline(spec.Src, Options{Target: Ambit}); err != nil {
			t.Fatal(err)
		}
	}
	compile()
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		compile()
	}
	runtime.ReadMemStats(&after)
	perCompile := (after.TotalAlloc - before.TotalAlloc) / runs

	prog := uint64(len(k.Prog().Ops)) * 32
	t.Logf("%d B/compile for a %d B program (%d ops)", perCompile, prog, len(k.Prog().Ops))
	if limit := 2 * prog; perCompile > limit {
		t.Errorf("a baseline compile allocates %d B, over 2x the %d B program it returns", perCompile, prog)
	}
}

// TestUsedWorkspaceMatchesFresh compiles a 175k-gate kernel and then a
// 576-gate one on the same workspace: the second must emit what a
// workspace that never saw the first one emits.
func TestUsedWorkspaceMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles WTC-512")
	}
	ws := new(workspace)
	compileOn(t, ws, "WTC-512", Ambit)
	small := compileOn(t, ws, "DiffGen-64", Ambit)
	fresh := compileOn(t, new(workspace), "DiffGen-64", Ambit)
	if err := sameKernel(small, fresh); err != nil {
		t.Errorf("DiffGen-64 on a used workspace vs a fresh one: %v", err)
	}
}

// TestWorkspaceReuseAfterFailedCompile abandons compiles part-way — a
// cancel at every guard checkpoint, a budget stop inside emission, a
// codegen error, a scheduler panic, a structurally broken program — so a
// half-built net, half-filled hashing buckets and a half-staged op
// stream go back to the free list. The list must stay bounded and the
// clean compile that follows must be byte-identical to the reference.
func TestWorkspaceReuseAfterFailedCompile(t *testing.T) {
	ref, err := Compile(guardMulSrc, Options{Target: Ambit})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		workspaces.Lock()
		kept := len(workspaces.free)
		workspaces.Unlock()
		if kept > runtime.GOMAXPROCS(0) {
			t.Fatalf("%s: free list holds %d workspaces, over GOMAXPROCS", what, kept)
		}
		clean, err := Compile(guardMulSrc, Options{Target: Ambit})
		if err != nil {
			t.Fatalf("%s: clean compile failed: %v", what, err)
		}
		if clean.Degradation != nil {
			t.Fatalf("%s: clean compile degraded: %+v", what, clean.Degradation)
		}
		if err := sameKernel(clean, ref); err != nil {
			t.Fatalf("%s: clean compile differs from the reference (workspace state leaked): %v", what, err)
		}
	}

	counter := &checkCtx{Context: context.Background(), live: 1 << 40}
	if _, _, err := CompileCtxCached(counter, guardMulSrc, Options{Target: Ambit}); err != nil {
		t.Fatal(err)
	}
	total := counter.checks.Load()
	if total < 12 {
		t.Fatalf("a full compile consults only %d checkpoints; the cancel sweep is vacuous", total)
	}
	for live := int64(0); live < total; live += 1 + total/12 {
		k, _, err := CompileCtxCached(&checkCtx{Context: context.Background(), live: live}, guardMulSrc, Options{Target: Ambit})
		if !errors.Is(err, ErrCanceled) || k != nil {
			t.Fatalf("cancel after %d checkpoints: kernel %v, error %v", live, k != nil, err)
		}
		check("cancel")
	}

	if _, err := Compile(guardMulSrc, Options{Target: Ambit, Budget: Budget{MaxMicroOps: 1000}}); !errors.Is(err, ErrBudget) {
		t.Fatalf("budget stop: error %v does not match ErrBudget", err)
	}
	check("budget stop")

	tiny := tinyGeom()
	tiny.RowsPerSub = tiny.ReservedRows + 3
	if _, err := Compile(guardMulSrc, Options{Target: Ambit, Geometry: tiny}); !errors.Is(err, ErrCodegen) {
		t.Fatalf("3-row subarray: error %v does not match ErrCodegen", err)
	}
	check("codegen error")

	obs.TestPanicHook = func(pressureAware bool) {
		if pressureAware {
			panic("obs: forced scheduler panic (test hook)")
		}
	}
	k, err := Compile(guardMulSrc, Options{Target: Ambit})
	obs.TestPanicHook = nil
	if err != nil || k.Degradation == nil {
		t.Fatalf("scheduler panic: kernel degraded %v, error %v", k != nil && k.Degradation != nil, err)
	}
	check("pass panic")

	codegen.TestBreakHook = func(_ obs.Variant, prog *isa.Program) { prog.Ops[len(prog.Ops)/2].Kind = isa.OpKind(99) }
	_, err = Compile(guardMulSrc, Options{Target: Ambit})
	codegen.TestBreakHook = nil
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("every level broken: error %v does not match ErrInternal", err)
	}
	check("broken program")
}

// TestWorkspaceFreeListBounds pins the two retention constants: the list
// never holds more than GOMAXPROCS workspaces, and one grown past the byte
// ceiling is dropped instead of kept.
func TestWorkspaceFreeListBounds(t *testing.T) {
	workspaces.Lock()
	saved := workspaces.free
	workspaces.free = nil
	workspaces.Unlock()
	defer func() {
		workspaces.Lock()
		workspaces.free = saved
		workspaces.Unlock()
	}()
	kept := func() int {
		workspaces.Lock()
		defer workspaces.Unlock()
		return len(workspaces.free)
	}

	huge := new(workspace)
	huge.logic.Builder(logic.BuilderOptions{}).Grow(workspaceMaxBytes / 16)
	if got := huge.logic.Bytes(); got <= workspaceMaxBytes {
		t.Fatalf("test workspace retains %d B, not over the %d B ceiling", got, workspaceMaxBytes)
	}
	putWorkspace(huge)
	if n := kept(); n != 0 {
		t.Fatalf("a workspace over the byte ceiling was kept (%d on the list)", n)
	}

	procs := runtime.GOMAXPROCS(0)
	for i := 0; i < procs+3; i++ {
		putWorkspace(new(workspace))
	}
	if n := kept(); n != procs {
		t.Fatalf("free list holds %d workspaces after %d returns, want GOMAXPROCS = %d", n, procs+3, procs)
	}
	getWorkspace()
	if n := kept(); n != procs-1 {
		t.Fatalf("getWorkspace left %d on the list, want %d", n, procs-1)
	}
}
