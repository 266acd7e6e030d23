package logic

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"chopper/internal/isa"
)

// Op codes of a structural-hashing program (see buildHashProgram).
const (
	hpNot = iota
	hpAnd
	hpOr
	hpXor
	hpMaj
	hpConst
	hpOps
)

// hpArity is the number of operand fields each op code reads.
var hpArity = [hpOps]int{hpNot: 1, hpAnd: 2, hpOr: 2, hpXor: 2, hpMaj: 3}

// buildHashProgram resets b to opts and builds prog on it. prog[0]
// declares 1+prog[0] inputs; then each op is a code byte (mod hpOps)
// followed, per operand, by two little-endian bytes naming an earlier node
// — an input or an op's result — by its index in nodes, modulo the
// nodes so far. Const reads the low bit of its code byte's high nibble.
// It returns the nodes appended to nodes[:0], inputs first.
func buildHashProgram(b *Builder, opts BuilderOptions, prog []byte, nodes []NodeID) []NodeID {
	b.Reset(opts)
	nodes = nodes[:0]
	if len(prog) == 0 {
		return nodes
	}
	for i := 0; i <= int(prog[0]); i++ {
		nodes = append(nodes, b.Input(""))
	}
	for p := prog[1:]; len(p) > 0; {
		code := p[0]
		op := int(code) % hpOps
		if len(p) < 1+2*hpArity[op] {
			break
		}
		var a [3]NodeID
		for i := 0; i < hpArity[op]; i++ {
			a[i] = nodes[int(binary.LittleEndian.Uint16(p[1+2*i:]))%len(nodes)]
		}
		p = p[1+2*hpArity[op]:]
		var id NodeID
		switch op {
		case hpNot:
			id = b.Not(a[0])
		case hpAnd:
			id = b.And(a[0], a[1])
		case hpOr:
			id = b.Or(a[0], a[1])
		case hpXor:
			id = b.Xor(a[0], a[1])
		case hpMaj:
			id = b.Maj(a[0], a[1], a[2])
		case hpConst:
			id = b.Const(code>>4&1 == 1)
		}
		nodes = append(nodes, id)
	}
	return nodes
}

// hubProgram declares 150 inputs and files 10,000 MAJ gates under the
// newest one, far past its bucket, then requests the first 500 again.
func hubProgram() []byte {
	const hub = 149
	prog := []byte{hub}
	op := func(code byte, args ...int) {
		prog = append(prog, code)
		for _, a := range args {
			prog = binary.LittleEndian.AppendUint16(prog, uint16(a))
		}
	}
	n := 0
	for x := 0; x < hub && n < 10000; x++ {
		for y := x + 1; y < hub && n < 10000; y++ {
			op(hpMaj, x, y, hub)
			n++
		}
	}
	for y := 1; y <= 500; y++ {
		op(hpMaj, hub, y, 0)
	}
	op(hpAnd, 3, hub)
	op(hpNot, hub)
	op(hpXor, hub, 3)
	return prog
}

// FuzzStructuralHash builds random gate sequences on a builder, with
// folding on and off, for no target and for Ambit's and SIMDRAM's gate
// sets, and checks the builder against a plain map[Gate]NodeID:
//
//   - no gate appears twice in the net, and every operand precedes it;
//   - with folding off the requested gate is known, so each op's id and
//     the whole gate slice must equal what the map interns;
//   - with folding on, each op's node must compute its op on 64 random
//     lanes (a wrong hit returns some other gate's function);
//   - the same program on the same builder after a Reset gives the same
//     ids and gates.
func FuzzStructuralHash(f *testing.F) {
	f.Add([]byte{3, hpAnd, 0, 0, 1, 0, hpAnd, 1, 0, 0, 0, hpNot, 4, 0, hpNot, 4, 0, hpMaj, 0, 0, 1, 0, 2, 0})
	f.Add([]byte{1, hpConst, hpConst | 0x10, hpAnd, 2, 0, 0, 0, hpOr, 3, 0, 1, 0, hpMaj, 0, 0, 1, 0, 2, 0, hpMaj, 2, 0, 1, 0, 0, 0})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		prog := make([]byte, 200+400*i)
		r.Read(prog)
		prog[0] %= 8
		for j := 1; j < len(prog); j++ {
			prog[j] %= 64 // operand bytes mostly name nearby nodes
		}
		f.Add(prog)
	}
	f.Add(hubProgram())

	targets := []*GateSet{nil, ptr(NativeGates(isa.Ambit)), ptr(NativeGates(isa.SIMDRAM))}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<17 {
			return
		}
		var b Builder
		for _, fold := range []bool{false, true} {
			for _, target := range targets {
				opts := BuilderOptions{Fold: fold, Target: target}
				nodes := buildHashProgram(&b, opts, prog, nil)
				checkHashed(t, opts, prog, nodes, b.net.Gates)
				gates := append([]Gate(nil), b.net.Gates...)
				again := buildHashProgram(&b, opts, prog, nil)
				if !slices.Equal(nodes, again) || !slices.Equal(gates, b.net.Gates) {
					t.Fatalf("fold=%v target=%v: rebuilding after a Reset gave different nodes or gates", fold, target)
				}
			}
		}
	})
}

func ptr[T any](v T) *T { return &v }

// checkHashed checks one build of prog (see FuzzStructuralHash).
func checkHashed(t *testing.T, opts BuilderOptions, prog []byte, nodes []NodeID, gates []Gate) {
	t.Helper()
	seen := make(map[Gate]NodeID, len(gates))
	for id, g := range gates {
		if g.Kind == GInput {
			continue
		}
		for a := 0; a < g.Kind.Arity(); a++ {
			if g.Args[a] < 0 || g.Args[a] >= NodeID(id) {
				t.Fatalf("gate %d %v has operand %d", id, g.Kind, g.Args[a])
			}
		}
		if prev, dup := seen[g]; dup {
			t.Fatalf("gate %d duplicates gate %d: %+v", id, prev, g)
		}
		seen[g] = NodeID(id)
	}
	if len(prog) == 0 {
		return
	}
	inputs := int(prog[0]) + 1

	// With folding off, intern each requested gate into a map of our own.
	if !opts.Fold {
		ref := make(map[Gate]NodeID)
		var refGates []Gate
		for range inputs {
			refGates = append(refGates, Gate{Kind: GInput, Args: noArgs})
		}
		forEachOp(prog, nodes, func(j int, code byte, a [3]NodeID) {
			g := Gate{Args: noArgs}
			switch int(code) % hpOps {
			case hpNot:
				g.Kind, g.Args[0] = GNot, a[0]
			case hpAnd, hpOr, hpXor:
				g.Kind = [...]GateKind{hpAnd: GAnd, hpOr: GOr, hpXor: GXor}[int(code)%hpOps]
				g.Args[0], g.Args[1] = min(a[0], a[1]), max(a[0], a[1])
			case hpMaj:
				g.Kind, g.Args = GMaj, a
				slices.Sort(g.Args[:])
			case hpConst:
				g.Kind = GConst0
				if code>>4&1 == 1 {
					g.Kind = GConst1
				}
			}
			want, ok := ref[g]
			if !ok {
				want = NodeID(len(refGates))
				ref[g] = want
				refGates = append(refGates, g)
			}
			if nodes[inputs+j] != want {
				t.Fatalf("op %d (%+v): builder gave node %d, the map %d", j, g, nodes[inputs+j], want)
			}
		})
		if !slices.Equal(refGates, gates) {
			t.Fatalf("builder built %d gates, the map %d, or they differ", len(gates), len(refGates))
		}
		return
	}

	// With folding on, evaluate the net on 64 random lanes.
	r := rand.New(rand.NewSource(int64(len(prog))))
	words := make([]uint64, len(gates))
	for id, g := range gates {
		x, y, z := words[max(g.Args[0], 0)], words[max(g.Args[1], 0)], words[max(g.Args[2], 0)]
		switch g.Kind {
		case GInput:
			words[id] = r.Uint64()
		case GConst1:
			words[id] = ^uint64(0)
		case GNot:
			words[id] = ^x
		case GAnd:
			words[id] = x & y
		case GOr:
			words[id] = x | y
		case GXor:
			words[id] = x ^ y
		case GMaj:
			words[id] = x&y | x&z | y&z
		}
	}
	forEachOp(prog, nodes, func(j int, code byte, a [3]NodeID) {
		x, y, z := words[max(a[0], 0)], words[max(a[1], 0)], words[max(a[2], 0)]
		var want uint64
		switch int(code) % hpOps {
		case hpNot:
			want = ^x
		case hpAnd:
			want = x & y
		case hpOr:
			want = x | y
		case hpXor:
			want = x ^ y
		case hpMaj:
			want = x&y | x&z | y&z
		case hpConst:
			want = -uint64(code >> 4 & 1)
		}
		if got := words[nodes[inputs+j]]; got != want {
			t.Fatalf("op %d (code %d on %v): node %d computes %#x, want %#x", j, code, a, nodes[inputs+j], got, want)
		}
	})
}

// forEachOp decodes prog's ops the way buildHashProgram does, calling fn
// with each op's index, code byte and operand nodes (None when unused).
func forEachOp(prog []byte, nodes []NodeID, fn func(j int, code byte, a [3]NodeID)) {
	n := int(prog[0]) + 1
	j := 0
	for p := prog[1:]; len(p) > 0; j++ {
		code := p[0]
		op := int(code) % hpOps
		if len(p) < 1+2*hpArity[op] {
			return
		}
		a := noArgs
		for i := 0; i < hpArity[op]; i++ {
			a[i] = nodes[int(binary.LittleEndian.Uint16(p[1+2*i:]))%(n+j)]
		}
		p = p[1+2*hpArity[op]:]
		fn(j, code, a)
	}
}

// TestStructuralHashWarmRebuildAllocs rebuilds the high-fanout net of
// hubProgram on a warm builder: the buckets, and the overflow the hub's
// 10,000 gates need, must be reused without allocating.
func TestStructuralHashWarmRebuildAllocs(t *testing.T) {
	prog := hubProgram()
	opts := BuilderOptions{Fold: true}
	var b Builder
	nodes := buildHashProgram(&b, opts, prog, nil)
	if len(b.over) < 9000 {
		t.Fatalf("the hub net put %d gates in the overflow; the test does not reach it", len(b.over))
	}
	if n := testing.AllocsPerRun(5, func() { nodes = buildHashProgram(&b, opts, prog, nodes) }); n != 0 {
		t.Fatalf("a warm rebuild of the hub net allocates %.1f times, want 0", n)
	}
}
