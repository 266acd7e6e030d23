package chopper

// End-to-end command-line toolchain tests: build the real binaries and
// pipe a program through chopperc and choppersim, including the raw
// assembly path. Guarded by -short since they shell out to the Go tool.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline test shells out to the Go tool")
	}
	dir := t.TempDir()
	chopperc := buildTool(t, dir, "chopperc")
	choppersim := buildTool(t, dir, "choppersim")

	src := filepath.Join(dir, "k.chop")
	if err := os.WriteFile(src, []byte(
		"node main(a: u8, b: u8) returns (z: u8) let z = min(a, b) + 1; tel\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// chopperc: stats dump mentions the instruction mix.
	out, err := exec.Command(chopperc, "-target", "simdram", "-dump", "stats", src).CombinedOutput()
	if err != nil {
		t.Fatalf("chopperc stats: %v\n%s", err, out)
	}
	for _, want := range []string{"SIMDRAM", "instructions:", "AAP", "AP"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}

	// chopperc -> assembly -> choppersim -asm round trip.
	asm, err := exec.Command(chopperc, src).Output()
	if err != nil {
		t.Fatalf("chopperc asm: %v", err)
	}
	pud := filepath.Join(dir, "k.pud")
	if err := os.WriteFile(pud, asm, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(choppersim, "-asm", "-lanes", "8", pud).CombinedOutput()
	if err != nil {
		t.Fatalf("choppersim -asm: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "executed") {
		t.Errorf("asm run output: %s", out)
	}
	// Text naming a row the subarray lacks is rejected, at the op that names
	// it, before anything runs.
	badAsm := filepath.Join(dir, "bad.pud")
	if err := os.WriteFile(badAsm, []byte("WRITE -> D0 (tag 1)\nREAD D0 (tag 1)\nAAP D0 -> -\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(choppersim, "-asm", "-lanes", "8", badAsm).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "op 2 (AAP D0 -> -): missing destination row") || strings.Contains(string(out), "READ tag") {
		t.Errorf("choppersim -asm on a row the subarray lacks: %v\n%s", err, out)
	}

	// choppersim with explicit per-lane inputs: min(9,4)+1 = 5.
	out, err = exec.Command(choppersim, "-lanes", "2", "-show", "2",
		"-in", "a=9,200", "-in", "b=4,7", src).CombinedOutput()
	if err != nil {
		t.Fatalf("choppersim: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "[5 8]") {
		t.Errorf("expected z=[5 8] in output:\n%s", out)
	}

	// Baseline and horizontal modes compile from the CLI too.
	if out, err := exec.Command(chopperc, "-baseline", "-dump", "stats", src).CombinedOutput(); err != nil {
		t.Fatalf("chopperc -baseline: %v\n%s", err, out)
	}
	bw := filepath.Join(dir, "bw.chop")
	if err := os.WriteFile(bw, []byte(
		"node main(a: u8, b: u8) returns (z: u8) let z = a & ~b; tel\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(chopperc, "-horizontal", "-dump", "stats", bw).CombinedOutput(); err != nil {
		t.Fatalf("chopperc -horizontal: %v\n%s", err, out)
	}

	// Errors surface with positions and nonzero exit.
	bad := filepath.Join(dir, "bad.chop")
	if err := os.WriteFile(bad, []byte("node main(a: u8) returns (z: u8) let z = q; tel\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(chopperc, bad).CombinedOutput()
	if err == nil {
		t.Error("chopperc accepted an invalid program")
	}
	if !strings.Contains(string(out), "undeclared") {
		t.Errorf("error output: %s", out)
	}

	// -show beyond -lanes is clamped, not an index panic.
	out, err = exec.Command(choppersim, "-lanes", "4", "-show", "8", src).CombinedOutput()
	if err != nil {
		t.Fatalf("choppersim -show 8 -lanes 4: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "panic") {
		t.Errorf("clamping failed:\n%s", out)
	}

	// Unknown -target / -opt exit with a one-line error listing the
	// valid values instead of silently defaulting.
	out, err = exec.Command(choppersim, "-target", "hbmpim", src).CombinedOutput()
	if err == nil {
		t.Error("choppersim accepted an unknown -target")
	}
	if !strings.Contains(string(out), "ambit") || !strings.Contains(string(out), "simdram") {
		t.Errorf("unknown -target error does not list valid values:\n%s", out)
	}
	out, err = exec.Command(choppersim, "-opt", "turbo", src).CombinedOutput()
	if err == nil {
		t.Error("choppersim accepted an unknown -opt")
	}
	if !strings.Contains(string(out), "rename") {
		t.Errorf("unknown -opt error does not list valid values:\n%s", out)
	}

	// One parser reads target and level names for every tool: chopperc takes
	// them in any case, as choppersim and chopperd do, and names the valid
	// values when it refuses one.
	if out, err := exec.Command(chopperc, "-opt", "RENAME", "-target", "Ambit", "-dump", "stats", src).CombinedOutput(); err != nil {
		t.Errorf("chopperc -opt RENAME -target Ambit: %v\n%s", err, out)
	}
	out, err = exec.Command(chopperc, "-target", "foo", src).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "ambit, elp2im, simdram") {
		t.Errorf("chopperc -target foo: %v, want an error naming the three targets:\n%s", err, out)
	}
	out, err = exec.Command(chopperc, "-opt", "turbo", src).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "bitslice, schedule, reuse, rename") {
		t.Errorf("chopperc -opt turbo: %v, want an error naming the four levels:\n%s", err, out)
	}

	// An option the chosen pipeline cannot honour is an error, not a line
	// claiming a pass "fell back" that never ran.
	out, err = exec.Command(choppersim, "-baseline", "-narrow", "safe", src).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
		!strings.Contains(string(out), "Narrow is not supported by the hands-tuned methodology") ||
		strings.Contains(string(out), "fell back") {
		t.Errorf("choppersim -baseline -narrow safe: %v, want exit status 1 and the rejection:\n%s", err, out)
	}
	if out, err := exec.Command(choppersim, "-baseline", src).CombinedOutput(); err != nil {
		t.Errorf("choppersim -baseline: %v\n%s", err, out)
	}

	// The retired benchmark modes are gone, not hidden: the flag package
	// rejects -bench as undefined (exit status 2).
	out, err = exec.Command(choppersim, "-bench", src).CombinedOutput()
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "not defined") {
		t.Errorf("choppersim -bench: %v, want exit status 2 for an undefined flag:\n%s", err, out)
	}

	// chopperbench rejects experiment and format names it does not know
	// (it used to print nothing and exit 0) and still runs the ones it does.
	chopperbench := buildTool(t, dir, "chopperbench")
	for _, args := range [][]string{{"-exp", "fig13"}, {"-exp", "table1", "-format", "xml"}} {
		out, err = exec.Command(chopperbench, args...).CombinedOutput()
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "valid:") {
			t.Errorf("chopperbench %v: %v, want exit status 2 and the valid values:\n%s", args, err, out)
		}
	}
	out, err = exec.Command(chopperbench, "-exp", "table1").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "Table I") {
		t.Errorf("chopperbench -exp table1: %v\n%s", err, out)
	}
}
