package chopper

// The hands-tuned baseline's golden suite: every program CompileBaseline
// emits on a Table-II kernel × target × subarray size must be byte-for-byte
// the one recorded in testdata/golden_baseline.sha256. The larger kernels
// spill whole values at both sizes, so spilled operands and results are
// pinned as well as resident ones. Each program's translated clean runs are
// held to its interpreted run too: a baseline program has no net, so
// internal/prove's table, which holds the CHOPPER programs' translated runs
// to their proved nets, cannot cover it.
//
// A change that moves baseline program bytes on purpose regenerates the file
// with go test -run TestBaselineGoldenPrograms -update . and says so.

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"testing"

	"chopper/internal/dram"
	"chopper/internal/guard"
	"chopper/internal/sim"
	"chopper/internal/workloads"
)

const goldenBaseline = "testdata/golden_baseline.sha256"

const goldenBaselineHeader = `# Golden hands-tuned baseline digests (golden_baseline_test.go): SHA-256 of
# each program's op fields, row/slot accounting, host tags, constant patterns
# and baseline stats. Regenerate: go test -run TestBaselineGoldenPrograms -update .
`

// TestBaselineGoldenPrograms pins the baseline program of every Table-II
// kernel on every target at 1024 and 512 rows per subarray, and requires
// sim.Translate to accept it and its translated runs to agree with the
// interpreter; -short checks the 64-wide kernels only, and so do the runs
// in -race builds.
func TestBaselineGoldenPrograms(t *testing.T) {
	g := loadGolden(t, goldenBaseline)
	short := testing.Short() && !*update
	for _, spec := range workloads.All() {
		if short && spec.Config != 64 {
			continue
		}
		for _, arch := range goldenTargets {
			for _, rows := range []int{1024, 512} {
				name := fmt.Sprintf("%s/%s/rows%d", spec.Name, arch, rows)
				t.Run(name, func(t *testing.T) {
					opts := Options{Target: arch, Geometry: dram.DefaultGeometry().WithRowsPerSub(rows)}
					k, err := CompileBaseline(spec.Src, opts)
					if err != nil {
						t.Fatal(err)
					}
					g.check(t, name, baselineDigest(k))
					if raceDetector && spec.Config != 64 {
						return
					}
					if err := cleanRunsAgree(k, []int{1, 63, 65, 128, 1024}); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
	if *update {
		g.write(t, goldenBaselineHeader)
	}
}

// cleanRunsAgree runs k's program over random inputs at the largest of
// laneCounts on the interpreter, and translated at each of laneCounts
// over the first lanes of the same inputs, and compares the rows each
// translated run's READs delivered with the interpreted run's on the same
// lanes. (Lanes never mix: every row operation is bitwise.)
func cleanRunsAgree(k *Kernel, laneCounts []int) error {
	p, err := k.tilePlan()
	if err != nil {
		return err
	}
	var ref, got hostRows
	wide := slices.Max(laneCounts)
	inRef, outRef := ref.bind(p, wide)
	rng := rand.New(rand.NewSource(int64(len(k.prog.Ops))))
	for _, row := range inRef {
		for w := range row {
			row[w] = rng.Uint64()
		}
		row[len(row)-1] &= laneMaskFor(wide)
	}
	cfg := sim.MachineConfig{Geom: k.Opts.Geometry, Arch: k.Opts.Target, Lanes: wide}
	m := sim.NewMachine(cfg)
	if err := m.RunFunctionalCtx(nil, sim.Decode(k.prog), ref.hostIO(), guard.Budget{}); err != nil {
		return fmt.Errorf("interpreted: %w", err)
	}
	t := k.translatedProg()
	for _, lanes := range laneCounts {
		inGot, outGot := got.bind(p, lanes)
		for r, row := range inGot {
			copy(row, inRef[r])
			row[len(row)-1] &= laneMaskFor(lanes)
		}
		cfg.Lanes = lanes
		m.Reconfigure(cfg)
		if !m.Translatable(t, k.Opts.Budget) {
			return fmt.Errorf("lanes %d: a clean run under budget %+v does not take the translation", lanes, k.Opts.Budget)
		}
		if err := m.RunTranslatedCtx(nil, t, got.hostIO()); err != nil {
			return fmt.Errorf("lanes %d: translated: %w", lanes, err)
		}
		for r, row := range outGot {
			for w, v := range row {
				want := outRef[r][w]
				if w == len(row)-1 {
					want &= laneMaskFor(lanes)
				}
				if v != want {
					return fmt.Errorf("lanes %d: output row %d word %d: translated %#x, interpreted %#x", lanes, r, w, v, want)
				}
			}
		}
	}
	return nil
}

// baselineDigest hashes a baseline kernel: every op's fields in stream
// order (fixed-width little-endian rather than the assembly text, so the
// largest programs hash in milliseconds), the program's row and slot
// accounting, its host tags and constant patterns, and the generator's
// stats.
func baselineDigest(k *Kernel) string {
	h := sha256.New()
	prog := k.Prog()
	const opBytes = 2 + 4*4 + 4 + 8
	buf := make([]byte, 0, 1024*opBytes)
	for i := range prog.Ops {
		op := &prog.Ops[i]
		buf = append(buf, byte(op.Kind), op.NDst)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Src))
		for _, d := range op.Dst {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Tag))
		buf = binary.LittleEndian.AppendUint64(buf, op.Imm)
		if len(buf)+opBytes > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	fmt.Fprintf(h, "rows %d slots %d\n", prog.DRowsUsed, prog.SpillSlots)
	res := k.Baseline
	hashHostABI(h, res.InputTag, res.OutputTag, res.ConstPattern)
	fmt.Fprintf(h, "%+v\n", res.Stats)
	return hex.EncodeToString(h.Sum(nil))
}

// hashHostABI writes a program's host tags, each map in name order, then
// its constant patterns in tag order.
func hashHostABI(h hash.Hash, inputTag, outputTag map[string]int, consts map[int]uint64) {
	for _, tags := range []map[string]int{inputTag, outputTag} {
		for _, name := range sortedKeys(tags) {
			fmt.Fprintf(h, "%s=%d\n", name, tags[name])
		}
	}
	for _, tag := range sortedKeys(consts) {
		fmt.Fprintf(h, "const %d=%#x\n", tag, consts[tag])
	}
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
