package workloads

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"chopper/internal/dfg"
	"chopper/internal/dsl"
	"chopper/internal/typecheck"
)

func graphOf(t *testing.T, src string) *dfg.Graph {
	t.Helper()
	prog, err := dsl.ParseAndExpand(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ch, err := typecheck.Check(prog)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	g, err := dfg.BuildNode(ch, ch.Prog.Entry().Name)
	if err != nil {
		t.Fatalf("dfg: %v", err)
	}
	return g
}

func TestAllSixteenSpecsWellFormed(t *testing.T) {
	specs := All()
	if len(specs) != 16 {
		t.Fatalf("got %d specs, want 16", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate spec %s", s.Name)
		}
		seen[s.Name] = true
		if s.TotalLanes <= 0 || s.HostCost.Bytes <= 0 || s.HostCost.Ops <= 0 {
			t.Errorf("%s: bad scale %+v", s.Name, s)
		}
		if !strings.Contains(s.Src, "node main") {
			t.Errorf("%s: no main node", s.Name)
		}
		g := graphOf(t, s.Src) // parses, checks, normalizes
		if g.OpCount() == 0 {
			t.Errorf("%s: empty kernel", s.Name)
		}
		if LoC(s.Src) <= 0 {
			t.Errorf("%s: zero LoC", s.Name)
		}
	}
}

func TestGetByName(t *testing.T) {
	s, ok := Get("DiffGen-128")
	if !ok || s.Config != 128 || s.Domain != "DiffGen" {
		t.Fatalf("Get: %+v ok=%v", s, ok)
	}
	if _, ok := Get("nope-1"); ok {
		t.Error("bogus name resolved")
	}
}

func TestSpecsDeterministic(t *testing.T) {
	a := Build("SW", 128)
	b := Build("SW", 128)
	if a.Src != b.Src {
		t.Error("workload generation is not deterministic")
	}
}

// goldenWTC independently computes the unbalanced wavelet-tree encoding
// of one character.
func goldenWTC(c uint64, sigma int) []uint64 {
	levels := 0
	for 1<<levels < sigma {
		levels++
	}
	r := 2 * sigma
	cuts := make([]int, levels)
	span := r
	for l := 0; l < levels; l++ {
		cuts[l] = span * 5 / 8
		if cuts[l] < 1 {
			cuts[l] = 1
		}
		span -= cuts[l]
		if span < 2 {
			span = 2
		}
	}
	bits := make([]uint64, levels)
	lo := uint64(0)
	for l := 0; l < levels; l++ {
		med := (lo + uint64(cuts[l])) & 1023
		if c >= med {
			bits[l] = 1
			lo = med
		}
	}
	return bits
}

func TestWTCSemantics(t *testing.T) {
	for _, sigma := range []int{64, 256} {
		s := Build("WTC", sigma)
		g := graphOf(t, s.Src)
		chars := sigma / 2
		levels := 0
		for 1<<levels < sigma {
			levels++
		}
		rng := rand.New(rand.NewSource(int64(sigma)))
		in := make(map[string]*big.Int, chars)
		vals := make([]uint64, chars)
		for i := 0; i < chars; i++ {
			vals[i] = uint64(rng.Intn(2 * sigma))
			in["c__"+itoa(i)] = new(big.Int).SetUint64(vals[i])
		}
		out, err := g.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < chars; i++ {
			want := goldenWTC(vals[i], sigma)
			for l, wb := range want {
				name := "b__" + itoa(i*levels+l)
				if out[name].Uint64() != wb {
					t.Fatalf("sigma=%d char %d level %d: got %v want %d (c=%d)", sigma, i, l, out[name], wb, vals[i])
				}
			}
		}
	}
}

func keyB(l int) string { return "b" + itoa(l) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestSWSemantics(t *testing.T) {
	s := Build("SW", 64)
	g := graphOf(t, s.Src)
	// Extract the constants from the generated source for the golden.
	var cHex, mHex string
	for _, line := range strings.Split(s.Src, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "t = s + 0x") {
			cHex = line[len("t = s + 0x"):strings.Index(line, ":")]
		}
		if strings.HasPrefix(line, "dev = absdiff(sp, 0x") {
			mHex = line[len("dev = absdiff(sp, 0x"):strings.LastIndex(line, ":")]
		}
	}
	cVal, ok1 := new(big.Int).SetString(cHex, 16)
	mVal, ok2 := new(big.Int).SetString(mHex, 16)
	if !ok1 || !ok2 {
		t.Fatalf("could not extract constants %q %q", cHex, mHex)
	}
	mask := new(big.Int).Lsh(big.NewInt(1), 64)
	mask.Sub(mask, big.NewInt(1))

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := int64(rng.Intn(120))
		sv := new(big.Int).SetUint64(rng.Uint64())
		out, err := g.Eval(map[string]*big.Int{"n": big.NewInt(n), "s": sv})
		if err != nil {
			t.Fatal(err)
		}
		sp := new(big.Int).Set(sv)
		if n < 50 {
			sp.Add(sv, cVal)
			sp.And(sp, mask)
		}
		dev := new(big.Int).Sub(sp, mVal)
		dev.Abs(dev)
		if out["sp"].Cmp(sp) != 0 {
			t.Fatalf("trial %d: sp=%v want %v", trial, out["sp"], sp)
		}
		if out["dev"].Cmp(dev) != 0 {
			t.Fatalf("trial %d: dev=%v want %v", trial, out["dev"], dev)
		}
	}
}

func TestDiffGenSemantics(t *testing.T) {
	s := Build("DiffGen", 64)
	g := graphOf(t, s.Src)
	rng2 := rand.New(rand.NewSource(3))
	in := make(map[string]*big.Int, 64)
	vals := make([]uint64, 64)
	for a := 0; a < 64; a++ {
		vals[a] = uint64(rng2.Intn(16))
		in["v__"+itoa(a)] = new(big.Int).SetUint64(vals[a])
	}
	out, err := g.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	thr := [2]uint64{3, 10}
	for a := 0; a < 64; a++ {
		for j := 0; j < 2; j++ {
			want := uint64(0)
			if vals[a] >= thr[j] {
				want = 1
			}
			name := "e__" + itoa(2*a+j)
			if out[name].Uint64() != want {
				t.Fatalf("attr %d level %d: got %v want %d (v=%d)", a, j, out[name], want, vals[a])
			}
		}
	}
}

func TestDenseNetFeatureReuse(t *testing.T) {
	s := Build("DenseNet", 32)
	g := graphOf(t, s.Src)
	out, err := g.Eval(map[string]*big.Int{"x0": big.NewInt(0xB)})
	if err != nil {
		t.Fatal(err)
	}
	if out["y"].BitLen() > 4 {
		t.Errorf("feature wider than u4: %v", out["y"])
	}
	// Each layer's input list must include early features (the reuse
	// property): layer 30 must consume feature 0.
	found := false
	for _, k := range denseInputs(30) {
		if k == 0 {
			found = true
		}
	}
	if !found {
		t.Error("dense connectivity lost: layer 30 ignores feature 0")
	}
}

func TestLoC(t *testing.T) {
	if got := LoC("// c\n\nnode f\nlet\n"); got != 2 {
		t.Errorf("LoC = %d, want 2", got)
	}
}

// goldenDenseNet independently evaluates the dense block, reconstructing
// the generator's deterministic weights.
func goldenDenseNet(x0 uint64, layers int) uint64 {
	r := &rng{s: 0x9E3779B97F4A7C15}
	feats := make([]uint64, layers+1)
	feats[0] = x0 & 0xF
	for l := 1; l <= layers; l++ {
		var acc uint64
		for _, k := range denseInputs(l) {
			w := uint64(r.intn(16))
			v := (feats[k] ^ w) & 0xF
			pc := uint64(0)
			for ; v != 0; v &= v - 1 {
				pc++
			}
			acc = (acc + pc) & 0xFF
		}
		feats[l] = (acc >> 3) & 0xF
	}
	return feats[layers]
}

func TestDenseNetSemantics(t *testing.T) {
	for _, layers := range []int{16, 32} {
		s := Build("DenseNet", layers)
		g := graphOf(t, s.Src)
		for x0 := uint64(0); x0 < 16; x0++ {
			out, err := g.Eval(map[string]*big.Int{"x0": new(big.Int).SetUint64(x0)})
			if err != nil {
				t.Fatal(err)
			}
			want := goldenDenseNet(x0, layers)
			if out["y"].Uint64() != want {
				t.Fatalf("layers=%d x0=%d: got %v want %d", layers, x0, out["y"], want)
			}
		}
	}
}
