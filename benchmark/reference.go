package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"chopper"
	"chopper/internal/dfg"
	"chopper/internal/pool"
)

// The reference an output is checked against is never the compiler under
// test alone. On the committed seeds (1 and 2) it is a SHA-256 digest in
// expected/, which -update-expected writes only when three independently
// written evaluators agree lane for lane: the CHOPPER pipeline, the
// hands-tuned SIMDRAM methodology (internal/baseline) and the dataflow
// interpreter (dfg.Graph.Eval). On any other seed that three-way agreement
// is computed at run time.

//go:embed expected/*.sha256
var expectedFS embed.FS

// expectedDir is where -update-expected writes, relative to the
// repository root the benchmark is run from.
const expectedDir = "benchmark/expected"

func expectedFile(seed int64) string { return fmt.Sprintf("seed%d.sha256", seed) }

// committedSeed reports whether expected/ carries digests for the seed.
func committedSeed(seed int64) bool { return seed == 1 || seed == 2 }

// refCase is one (kernel source, operand set) pair and, once established,
// the outputs every run of that kernel on those operands must produce —
// whatever pipeline, option set or entry point produced them.
type refCase struct {
	key   string // digest key, e.g. "DenseNet-16 lanes=128"
	src   string
	lanes int
	in    wide // drawn by bind, once the operand list is known
	want  wide
	// pending holds a warm-up op's outputs until the correctness stage
	// establishes want from them.
	pending wide
}

// The check methods compare a result with the established reference. In
// the warm-up cycle, which runs before the correctness stage, there is no
// reference yet and they pass.

func (c *refCase) checkWide(got wide) error {
	if c.want == nil {
		return nil
	}
	return diffWide(got, c.want)
}

func (c *refCase) checkLanes(name string, got [][]uint64, off int) error {
	if c.want == nil {
		return nil
	}
	return diffLanes(name, got, c.want[name], off)
}

func (c *refCase) checkNarrow(got map[string][]uint64, off, n int) error {
	if c.want == nil {
		return nil
	}
	return diffNarrow(got, c.want, off, n)
}

// oracle establishes reference outputs for refCases.
type oracle struct {
	seed    int64
	update  bool
	digests map[string]string // committed digests; nil when the seed has none

	mu       sync.Mutex
	fresh    map[string]string          // digests computed this run (update mode)
	baseline map[string]*chopper.Kernel // baseline-pipeline kernels by source
}

func newOracle(seed int64, update bool) (*oracle, error) {
	o := &oracle{seed: seed, update: update, fresh: map[string]string{}, baseline: map[string]*chopper.Kernel{}}
	if update && !committedSeed(seed) {
		return nil, fmt.Errorf("-update-expected: expected/ holds seeds 1 and 2 only, not %d", seed)
	}
	if committedSeed(seed) && !update {
		data, err := expectedFS.ReadFile("expected/" + expectedFile(seed))
		if err != nil {
			return nil, err
		}
		o.digests = parseDigests(data)
	}
	return o, nil
}

// parseDigests reads sha256sum-style lines: "<hex>  <key>".
func parseDigests(data []byte) map[string]string {
	m := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		sum, key, ok := strings.Cut(sc.Text(), "  ")
		if ok {
			m[key] = sum
		}
	}
	return m
}

func (o *oracle) newCase(name, src string, lanes int) *refCase {
	return &refCase{key: fmt.Sprintf("%s lanes=%d", name, lanes), src: src, lanes: lanes}
}

// bind draws the case's operands, from the run seed and the key alone, for
// the operand list a compile of the source reported.
func (o *oracle) bind(c *refCase, inputs []chopper.IOSpec) {
	if c.in == nil {
		c.in = genWide(streamRand(o.seed, "inputs "+c.key), inputs, c.lanes)
	}
}

// refJob is one reference waiting to be established: the outputs got that
// the CHOPPER-compiled kernel k produced on c.in.
type refJob struct {
	c   *refCase
	k   *chopper.Kernel
	got wide
}

// establishAll establishes independent references side by side: on a
// held-out seed each costs a baseline compile and a lane-by-lane
// interpretation, which is most of a run's correctness stage.
func (o *oracle) establishAll(jobs []refJob) error {
	return pool.Run(maxProcs, len(jobs), func(i int) error {
		return o.establish(jobs[i].c, jobs[i].k, jobs[i].got)
	})
}

// establish fixes c.want from got, the outputs a CHOPPER-compiled kernel k
// produced on c.in: against the committed digest when the seed has one,
// otherwise (and under -update-expected) against the baseline pipeline and
// the dataflow interpreter. Later results are compared with c.want by
// value, so hardened, narrowed, recovered, batched and tiled outputs all
// answer to the same reference.
func (o *oracle) establish(c *refCase, k *chopper.Kernel, got wide) error {
	if c.want != nil {
		return nil
	}
	sum := digestWide(k.Outputs, got, c.lanes)
	if o.digests != nil {
		want, ok := o.digests[c.key]
		if !ok {
			return fmt.Errorf("%s: no committed digest for seed %d (run -update-expected)", c.key, o.seed)
		}
		if sum != want {
			return fmt.Errorf("%s: output digest %s, expected/%s says %s", c.key, sum, expectedFile(o.seed), want)
		}
		c.want = got
		return nil
	}
	if err := o.threeWay(c, k, got); err != nil {
		return err
	}
	c.want = got
	o.mu.Lock()
	o.fresh[c.key] = sum
	o.mu.Unlock()
	return nil
}

// threeWay checks the CHOPPER outputs against the two other evaluators.
func (o *oracle) threeWay(c *refCase, k *chopper.Kernel, got wide) error {
	o.mu.Lock()
	kb := o.baseline[c.src]
	o.mu.Unlock()
	if kb == nil {
		var err error
		if kb, err = chopper.CompileBaseline(c.src, chopper.Options{Target: chopper.Ambit}); err != nil {
			return fmt.Errorf("%s: baseline compile: %w", c.key, err)
		}
		o.mu.Lock()
		o.baseline[c.src] = kb
		o.mu.Unlock()
	}
	base, err := kb.RunWide(c.in, c.lanes)
	if err != nil {
		return fmt.Errorf("%s: baseline run: %w", c.key, err)
	}
	if err := diffWide(got, base); err != nil {
		return fmt.Errorf("%s: CHOPPER vs baseline pipeline: %w", c.key, err)
	}
	eval, err := evalLanes(k.Graph, k.Outputs, c.in, c.lanes)
	if err != nil {
		return fmt.Errorf("%s: dfg.Eval: %w", c.key, err)
	}
	if err := diffWide(got, eval); err != nil {
		return fmt.Errorf("%s: CHOPPER vs dfg.Eval: %w", c.key, err)
	}
	return nil
}

// evalLanes interprets the dataflow graph lane by lane (big.Int
// arithmetic).
func evalLanes(g *dfg.Graph, outputs []chopper.IOSpec, in wide, lanes int) (wide, error) {
	out := make(wide, len(outputs))
	for _, o := range outputs {
		out[o.Name] = make([][]uint64, lanes)
	}
	args := make(map[string]*big.Int, len(in))
	for l := 0; l < lanes; l++ {
		for name, vals := range in {
			args[name] = limbsToBig(vals[l])
		}
		res, err := g.Eval(args)
		if err != nil {
			return nil, fmt.Errorf("lane %d: %w", l, err)
		}
		for _, o := range outputs {
			out[o.Name][l] = bigToLimbs(res[o.Name], (o.Width+63)/64)
		}
	}
	return out, nil
}

func limbsToBig(limbs []uint64) *big.Int {
	v := new(big.Int)
	for i := len(limbs) - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(limbs[i]))
	}
	return v
}

func bigToLimbs(v *big.Int, n int) []uint64 {
	limbs := make([]uint64, n)
	t := new(big.Int).Set(v)
	mask := new(big.Int).SetUint64(^uint64(0))
	low := new(big.Int)
	for i := range limbs {
		limbs[i] = low.And(t, mask).Uint64()
		t.Rsh(t, 64)
	}
	return limbs
}

// digestWide hashes outputs in kernel order: operand name, width, lane
// count, then every lane's limbs little-endian.
func digestWide(outputs []chopper.IOSpec, w wide, lanes int) string {
	h := sha256.New()
	var buf [8]byte
	for _, o := range outputs {
		fmt.Fprintf(h, "%s/%d/%d\n", o.Name, o.Width, lanes)
		for _, limbs := range w[o.Name][:lanes] {
			for _, x := range limbs {
				binary.LittleEndian.PutUint64(buf[:], x)
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// diffWide returns nil when got equals want lane for lane, else the first
// difference.
func diffWide(got, want wide) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	for name, wv := range want {
		if err := diffLanes(name, got[name], wv, 0); err != nil {
			return err
		}
	}
	return nil
}

// diffLanes compares got against lanes [off, off+len(got)) of want.
func diffLanes(name string, got, want [][]uint64, off int) error {
	if off+len(got) > len(want) {
		return fmt.Errorf("output %q: %d lanes at offset %d, reference has %d", name, len(got), off, len(want))
	}
	for l, g := range got {
		w := want[off+l]
		if len(g) != len(w) {
			return fmt.Errorf("output %q lane %d: %d limbs, want %d", name, off+l, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				return fmt.Errorf("output %q lane %d: %#x, want %#x", name, off+l, g, w)
			}
		}
	}
	return nil
}

// diffNarrow compares one-value-per-lane outputs (Kernel.Run, RunBatch and
// the service's layout), which must carry exactly n lanes, against lanes
// [off, off+n) of want.
func diffNarrow(got map[string][]uint64, want wide, off, n int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	for name, wv := range want {
		gv := got[name]
		if len(gv) != n || off+n > len(wv) {
			return fmt.Errorf("output %q: %d lanes, want %d (reference has %d from offset %d)", name, len(gv), n, len(wv), off)
		}
		for l, g := range gv {
			if w := wv[off+l]; len(w) != 1 || g != w[0] {
				return fmt.Errorf("output %q lane %d: %#x, want %#x", name, off+l, g, w)
			}
		}
	}
	return nil
}

// writeExpected merges this run's digests into expected/seed<n>.sha256.
func (o *oracle) writeExpected() error {
	path := filepath.Join(expectedDir, expectedFile(o.seed))
	merged := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		merged = parseDigests(data)
	} else if !os.IsNotExist(err) {
		return err
	}
	for k, v := range o.fresh {
		merged[k] = v
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s  %s\n", merged[k], k)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
