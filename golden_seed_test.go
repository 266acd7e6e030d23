package chopper

// The golden suite: every program the compiler emits on the cases below
// must be byte-for-byte what a frozen snapshot of the compiler from before
// its dense-index middle-end rewrite emitted for the same graph, across
// targets, optimization levels, hardening, budget truncation and the
// degradation ladder. testdata/golden_programs.sha256 holds one digest per
// case, recorded from the snapshot's results in a commit where both
// compilers ran side by side and agreed; the budget cases are the guard
// dimension, limit and count they trip. What the programs compute is
// proved separately, for every input (internal/prove).
//
// A change that moves program bytes on purpose regenerates the file with
// go test -run TestGoldenSeed -update . and says so.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"chopper/internal/obs"
	"chopper/internal/workloads"
)

const goldenPrograms = "testdata/golden_programs.sha256"

const goldenProgramsHeader = `# Golden program digests (golden_seed_test.go): SHA-256 of each case's program
# text, row/slot accounting, host tags and legalized net; budget cases are
# dimension, limit and count. Regenerate: go test -run TestGoldenSeed -update .
`

// goldenWorkloads is the compared set: a Table II subset, one workload per
// paper domain.
var goldenWorkloads = []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"}

var goldenTargets = []Target{Ambit, ELP2IM, SIMDRAM}

// goldenFile is one digest file: case name -> recorded value.
type goldenFile struct {
	path string
	vals map[string]string
}

func loadGolden(t *testing.T, path string) goldenFile {
	t.Helper()
	g := goldenFile{path: path, vals: map[string]string{}}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) && *update {
		return g
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		g.vals[name] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return g
}

// write rewrites the file: the header's comment lines, then every case in
// name order.
func (g goldenFile) write(t *testing.T, header string) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(header)
	for _, name := range sortedKeys(g.vals) {
		fmt.Fprintf(&sb, "%s %s\n", name, g.vals[name])
	}
	if err := os.WriteFile(g.path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// check compares one case's value with the file, or records it under -update.
func (g goldenFile) check(t *testing.T, name, got string) {
	t.Helper()
	if *update {
		g.vals[name] = got
		return
	}
	want, ok := g.vals[name]
	if !ok {
		t.Fatalf("%s has no entry %q; regenerate with -update", g.path, name)
	}
	if got != want {
		t.Fatalf("%s: got %s, %s records %s", name, got, g.path, want)
	}
}

// goldenDigest hashes every fact the golden suite pins: the program text,
// its row/slot accounting, the host ABI tags in sorted order, and the
// legalized net's gates and interface (each rendered with fmt.Sprint).
func goldenDigest(k *Kernel) string {
	h := sha256.New()
	prog, n := k.Prog(), k.Net
	fmt.Fprintf(h, "%s\nrows %d slots %d\n", prog.Format(), prog.DRowsUsed, prog.SpillSlots)
	hashHostABI(h, k.Code.InputTag, k.Code.OutputTag, k.Code.ConstPattern)
	fmt.Fprintf(h, "%s\n%s\n", fmt.Sprint(n.Gates), fmt.Sprint(n.Inputs, n.InputNames, n.Outputs, n.OutputNames))
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSeedEquivalence pins the emitted program on every workload ×
// target × optimization level of the paper's breakdown ladder.
func TestGoldenSeedEquivalence(t *testing.T) {
	g := loadGolden(t, goldenPrograms)
	for _, wl := range goldenWorkloads {
		spec, ok := workloads.Get(wl)
		if !ok {
			t.Fatalf("unknown workload %q", wl)
		}
		for _, arch := range goldenTargets {
			for _, opt := range allOpts {
				name := fmt.Sprintf("%s/%s/%s", wl, arch, opt)
				t.Run(name, func(t *testing.T) {
					k, err := Compile(spec.Src, Options{Target: arch}.WithOpt(opt))
					if err != nil {
						t.Fatal(err)
					}
					g.check(t, "plain/"+name, goldenDigest(k))
				})
			}
		}
	}
	if *update {
		g.write(t, goldenProgramsHeader)
	}
}

// TestGoldenSeedEquivalenceHarden repeats it with TMR hardening on, at both
// ends of the opt ladder.
func TestGoldenSeedEquivalenceHarden(t *testing.T) {
	g := loadGolden(t, goldenPrograms)
	for _, wl := range []string{"DiffGen-64", "SW-64"} {
		spec, _ := workloads.Get(wl)
		for _, arch := range goldenTargets {
			for _, opt := range []OptLevel{OptBitslice, OptFull} {
				name := fmt.Sprintf("%s/%s/%s", wl, arch, opt)
				t.Run(name, func(t *testing.T) {
					k, err := Compile(spec.Src, Options{Target: arch, Harden: true}.WithOpt(opt))
					if err != nil {
						t.Fatal(err)
					}
					g.check(t, "harden/"+name, goldenDigest(k))
				})
			}
		}
	}
	if *update {
		g.write(t, goldenProgramsHeader)
	}
}

// TestGoldenSeedBudgets pins budget-truncated compiles: each must trip the
// recorded guard dimension at the recorded count.
func TestGoldenSeedBudgets(t *testing.T) {
	g := loadGolden(t, goldenPrograms)
	spec, _ := workloads.Get("SW-64")
	cases := []struct {
		name   string
		budget Budget
	}{
		{"micro-ops", Budget{MaxMicroOps: 100}},
		{"net-gates", Budget{MaxNetGates: 100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(spec.Src, Options{Target: Ambit, Budget: tc.budget})
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("want *BudgetError, got %v", err)
			}
			g.check(t, "budget/"+tc.name, fmt.Sprintf("%s %d %d", be.Dimension, be.Limit, be.Count))
		})
	}
	if *update {
		g.write(t, goldenProgramsHeader)
	}
}

// TestGoldenSeedDegradation forces the scheduled OBS passes to panic so
// the ladder lands on OptBitslice, and pins the degraded program, which
// must be the bitslice-level program.
func TestGoldenSeedDegradation(t *testing.T) {
	obs.TestPanicHook = func(pressureAware bool) {
		if pressureAware {
			panic("obs: forced test panic")
		}
	}
	defer func() { obs.TestPanicHook = nil }()

	g := loadGolden(t, goldenPrograms)
	spec, _ := workloads.Get("DiffGen-64")
	for _, arch := range goldenTargets {
		t.Run(arch.String(), func(t *testing.T) {
			k, err := Compile(spec.Src, Options{Target: arch})
			if err != nil {
				t.Fatal(err)
			}
			if k.Degradation == nil || k.Degradation.Effective != OptBitslice {
				t.Fatalf("expected degradation to OptBitslice, got %+v", k.Degradation)
			}
			g.check(t, "degraded/"+arch.String(), goldenDigest(k))
		})
	}
	if *update {
		g.write(t, goldenProgramsHeader)
	}
}
