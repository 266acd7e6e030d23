package dfg

// The lane-batched reference evaluator. Graph.Eval interprets one lane at a
// time on big.Int and stays the authoritative statement of the semantics;
// LanePlan evaluates the same graph value by value across every lane of a
// trial at once, on little-endian uint64 limbs in one arena, so checking a
// kernel costs about what running it does. The two must agree on every
// value of every lane — FuzzLaneEval and TestLaneEvalMatchesEval hold them
// together — including where Eval's results are wider than the value's
// declared width (the unmasked pass-through ops; docs/INTERNALS.md lists
// the quirks as the contract).

import (
	"fmt"
	"math/big"
	"math/bits"
)

// laneValue is one graph value as the evaluator sees it.
type laneValue struct {
	kind    OpKind
	fast    bool   // result and every operand are one limb: the uint64 loop applies
	a, b, c int32  // operand value ids, -1 where the kind has none
	width   int    // declared result width
	sw      int    // width the sign is read at: Args[0]'s declared width (Sra*, signed compares)
	n       int    // limbs per lane
	off     int    // arena offset, in limbs per lane
	amt     uint64 // constant shift amount (Shl, Shr, Sra)
	imm     int    // offset of the pre-masked immediate in LanePlan.consts (OpConst)
}

// LanePlan is a Graph prepared for lane-batched evaluation. It is immutable
// once built and safe to share; the mutable state lives in a LaneScratch.
type LanePlan struct {
	g      *Graph
	vals   []laneValue
	consts []uint64
	stride int // arena limbs per lane: the sum of every value's limb count
	tmp    int // scratch limbs the multi-limb signed ops need per operand
	outs   map[string]ValueID
}

// LaneScratch is the evaluator's reusable memory: the arena holding every
// value of every lane, and the multi-limb ops' temporaries. The zero value
// is ready; one scratch serves any plan and any lane count, growing to the
// largest it has seen.
type LaneScratch struct {
	arena []uint64
	tmp   []uint64
	lanes int
}

// LaneVals is one value across the lanes of the last evaluation: lane l's
// little-endian limbs are V[l*N : (l+1)*N]. N follows what Eval can
// produce, which for the unmasked ops may exceed the declared width.
type LaneVals struct {
	V []uint64
	N int
}

// Lane returns lane l's limbs.
func (lv LaneVals) Lane(l int) []uint64 { return lv.V[l*lv.N : (l+1)*lv.N] }

// known reports whether Eval has a case for k.
func (k OpKind) known() bool { return k >= 0 && int(k) < len(opNames) }

func limbsFor(bits int) int {
	if bits <= 64 {
		return 1
	}
	return (bits + 63) / 64
}

// NewLanePlan prepares g, which must satisfy Validate. An op kind Eval does
// not know is reported by EvalLanes too, when evaluation reaches it.
func NewLanePlan(g *Graph) *LanePlan {
	p := &LanePlan{g: g, vals: make([]laneValue, len(g.Values)), outs: make(map[string]ValueID, len(g.Outputs))}
	// bound[i] is an upper bound on the bit length of value i as Eval
	// computes it: the declared width where Eval masks, the operands'
	// bound where it passes a result through unmasked.
	bound := make([]int, len(g.Values))
	for i := range g.Values {
		v := &g.Values[i]
		lv := &p.vals[i]
		*lv = laneValue{kind: v.Kind, a: -1, b: -1, c: -1, width: v.Width}
		if !v.Kind.known() {
			bound[i] = 1
			lv.n, lv.off = 1, p.stride
			p.stride++
			continue
		}
		ids := [3]*int32{&lv.a, &lv.b, &lv.c}
		for j, a := range v.Args {
			*ids[j] = int32(a)
		}
		argBound := func(j int) int { return bound[v.Args[j]] }
		switch v.Kind {
		case OpAnd, OpOr, OpXor, OpMin, OpMax, OpAbsDiff:
			bound[i] = max(argBound(0), argBound(1))
		case OpMux:
			bound[i] = max(argBound(1), argBound(2))
		case OpShr, OpShrV, OpModU:
			bound[i] = argBound(0)
		case OpDivU:
			bound[i] = max(v.Width, argBound(0))
		case OpEq, OpNe, OpLtU, OpGtU, OpLeU, OpGeU, OpLtS, OpLeS, OpGtS, OpGeS:
			bound[i] = 1
		case OpPopCount:
			bound[i] = bits.Len(uint(argBound(0)))
		default:
			bound[i] = v.Width
		}
		lv.n, lv.off = limbsFor(bound[i]), p.stride
		p.stride += lv.n

		lv.fast = lv.n == 1
		for _, a := range v.Args {
			lv.fast = lv.fast && p.vals[a].n == 1
		}
		switch v.Kind {
		case OpConst:
			lv.imm = len(p.consts)
			p.consts = append(p.consts, BigLimbs(maskTo(v.Imm, v.Width), lv.n)...)
		case OpShl, OpShr:
			lv.amt = uint64(v.Imm.Int64()) // Eval's uint(Imm.Int64())
		case OpSra, OpSraV, OpLtS, OpLeS, OpGtS, OpGeS:
			lv.sw = g.Values[v.Args[0]].Width
			signed := v.Args
			if v.Kind == OpSra || v.Kind == OpSraV {
				signed = v.Args[:1]
			}
			need := lv.sw
			for _, a := range signed {
				// The int64 loop sign-extends from bit sw-1, which is only
				// Eval's toSigned when nothing lies above that bit.
				lv.fast = lv.fast && lv.sw <= 64 && bound[a] <= lv.sw
				need = max(need, 64*p.vals[a].n)
			}
			p.tmp = max(p.tmp, need/64+1)
			if v.Kind == OpSra {
				switch amt := v.Imm.Int64(); {
				case amt < 0:
					lv.amt = ^uint64(0) // Eval shifts by uint(amt): everything out
				case amt > int64(lv.sw):
					lv.amt = uint64(lv.sw)
				default:
					lv.amt = uint64(amt)
				}
			}
		}
	}
	for i, name := range g.OutputNames {
		p.outs[name] = g.Outputs[i] // a repeated name keeps its last value, as Eval's map does
	}
	return p
}

// BigLimbs writes a non-negative v into n little-endian limbs.
func BigLimbs(v *big.Int, n int) []uint64 {
	out := make([]uint64, n)
	t := new(big.Int).Set(v)
	for i := range out {
		out[i] = t.Uint64()
		t.Rsh(t, 64)
	}
	return out
}

// LimbsBig is the value of the little-endian limbs x.
func LimbsBig(x []uint64) *big.Int {
	v := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(x[i]))
	}
	return v
}

// Output returns the named graph output across the lanes s last evaluated
// p on; false when the graph has no such output.
func (p *LanePlan) Output(s *LaneScratch, name string) (LaneVals, bool) {
	id, ok := p.outs[name]
	if !ok {
		return LaneVals{}, false
	}
	return p.value(s, id), true
}

// value returns any graph value across the lanes s last evaluated p on.
func (p *LanePlan) value(s *LaneScratch, id ValueID) LaneVals {
	v := &p.vals[id]
	return LaneVals{V: s.arena[v.off*s.lanes : (v.off+v.n)*s.lanes], N: v.n}
}

func lowMask(width int) uint64 {
	if r := width % 64; r != 0 {
		return uint64(1)<<uint(r) - 1
	}
	return ^uint64(0)
}

// maskTop clears the bits of x at and above `width`; x holds exactly the
// limbs width needs.
func maskTop(x []uint64, width int) { x[len(x)-1] &= lowMask(width) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// signExt reinterprets the low w bits (1 <= w <= 64) of x as two's complement.
func signExt(x uint64, w int) int64 {
	s := uint(64 - w)
	return int64(x<<s) >> s
}

// limb reads limb i of x, zero beyond its length.
func limb(x []uint64, i int) uint64 {
	if i >= 0 && i < len(x) {
		return x[i]
	}
	return 0
}

func isZero(x []uint64) bool {
	for _, w := range x {
		if w != 0 {
			return false
		}
	}
	return true
}

// cmpLimbs compares two unsigned values of any limb counts, top limb first.
func cmpLimbs(a, b []uint64) int {
	for i := max(len(a), len(b)) - 1; i >= 0; i-- {
		if x, y := limb(a, i), limb(b, i); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// copyExt writes src into dst zero-extended (or truncated) to dst's length.
func copyExt(dst, src []uint64) {
	n := copy(dst, src)
	clear(dst[n:])
}

// subLimbs sets dst = a - b modulo 2^(64*len(dst)).
func subLimbs(dst, a, b []uint64) {
	var borrow uint64
	for i := range dst {
		dst[i], borrow = bits.Sub64(limb(a, i), limb(b, i), borrow)
	}
}

// shlLimbs sets dst to the low len(dst) limbs of a << amt.
func shlLimbs(dst, a []uint64, amt uint64) {
	if amt >= uint64(64*len(dst)) {
		clear(dst)
		return
	}
	ls, bs := int(amt/64), uint(amt%64)
	for i := range dst {
		w := limb(a, i-ls) << bs
		if bs != 0 {
			w |= limb(a, i-ls-1) >> (64 - bs)
		}
		dst[i] = w
	}
}

// shrLimbs sets dst to a >> amt, filling with `fill` (all-zeros or all-ones
// limbs) above a's top limb.
func shrLimbs(dst, a []uint64, amt uint64, fill uint64) {
	at := func(i int) uint64 {
		if i < len(a) {
			return a[i]
		}
		return fill
	}
	if amt >= uint64(64*len(a)) {
		for i := range dst {
			dst[i] = fill
		}
		return
	}
	ls, bs := int(amt/64), uint(amt%64)
	for i := range dst {
		w := at(i+ls) >> bs
		if bs != 0 {
			w |= at(i+ls+1) << (64 - bs)
		}
		dst[i] = w
	}
}

// toSignedLimbs writes Eval's toSigned(x, w) — x minus 2^w when bit w-1 is
// set, for an x that may reach above bit w — into dst as two's complement;
// dst has room for one bit more than max(w, x's bit length).
func toSignedLimbs(dst, x []uint64, w int) {
	copyExt(dst, x)
	if limb(x, (w-1)/64)>>(uint(w-1)%64)&1 == 0 {
		return
	}
	borrow := uint64(0)
	dst[w/64], borrow = bits.Sub64(dst[w/64], uint64(1)<<(uint(w)%64), 0)
	for i := w/64 + 1; i < len(dst); i++ {
		dst[i], borrow = bits.Sub64(dst[i], 0, borrow)
	}
}

// cmpSignedLimbs compares equal-length two's-complement values.
func cmpSignedLimbs(a, b []uint64) int {
	top := len(a) - 1
	if sa, sb := int64(a[top]) < 0, int64(b[top]) < 0; sa != sb {
		if sa {
			return -1
		}
		return 1
	}
	return cmpLimbs(a, b)
}

// shiftAmount is Eval's guard on a computed shift amount: the amount when
// it is below limit, and false otherwise (which includes every amount that
// does not fit an int64).
func shiftAmount(amt []uint64, limit int) (uint64, bool) {
	if amt[0] >= uint64(limit) || !isZero(amt[1:]) {
		return 0, false
	}
	return amt[0], true
}

// EvalLanes evaluates the plan on `lanes` lanes. inputs maps each graph input
// name to its operands, one little-endian limb slice per lane; limbs beyond
// a slice read as zero and bits above the input's width are dropped, as
// Eval's mask does. Results stay in s until its next EvalLanes.
func (p *LanePlan) EvalLanes(s *LaneScratch, inputs map[string][][]uint64, lanes int) error {
	if lanes <= 0 {
		return fmt.Errorf("dfg: lanes must be positive, have %d", lanes)
	}
	if need := p.stride * lanes; cap(s.arena) < need {
		s.arena = make([]uint64, need)
	} else {
		s.arena = s.arena[:need]
	}
	if need := 2 * p.tmp; cap(s.tmp) < need {
		s.tmp = make([]uint64, need)
	}
	s.lanes = lanes
	for i := range p.vals {
		v := &p.vals[i]
		dst := s.arena[v.off*lanes : (v.off+v.n)*lanes]
		switch {
		case v.kind == OpInput:
			name := p.g.Values[i].Name
			in, ok := inputs[name]
			if !ok {
				return fmt.Errorf("dfg: missing input %q", name)
			}
			if len(in) < lanes {
				return fmt.Errorf("dfg: input %q has %d lanes, want %d", name, len(in), lanes)
			}
			for l := 0; l < lanes; l++ {
				d := dst[l*v.n : (l+1)*v.n]
				copyExt(d, in[l])
				maskTop(d, v.width)
			}
		case v.kind == OpConst:
			c := p.consts[v.imm : v.imm+v.n]
			for l := 0; l < lanes; l++ {
				copy(dst[l*v.n:], c)
			}
		case !v.kind.known():
			return fmt.Errorf("dfg: unknown op %d", int(v.kind))
		case v.fast:
			p.evalFast(s, v, dst)
		default:
			p.evalWide(s, v, dst)
		}
	}
	return nil
}

// arg returns operand id's lanes (nil for an absent operand).
func (p *LanePlan) arg(s *LaneScratch, id int32) []uint64 {
	if id < 0 {
		return nil
	}
	v := &p.vals[id]
	return s.arena[v.off*s.lanes : (v.off+v.n)*s.lanes]
}

// evalFast is the one-limb path: every operand and the result are a
// uint64 per lane, so each op is one loop over the lanes.
func (p *LanePlan) evalFast(s *LaneScratch, v *laneValue, dst []uint64) {
	a, b, c := p.arg(s, v.a), p.arg(s, v.b), p.arg(s, v.c)
	a = a[:len(dst)]
	if b != nil {
		b = b[:len(dst)]
	}
	mask := lowMask(v.width)
	switch v.kind {
	case OpAdd:
		for l := range dst {
			dst[l] = (a[l] + b[l]) & mask
		}
	case OpSub:
		for l := range dst {
			dst[l] = (a[l] - b[l]) & mask
		}
	case OpMul:
		for l := range dst {
			dst[l] = (a[l] * b[l]) & mask
		}
	case OpAnd:
		for l := range dst {
			dst[l] = a[l] & b[l]
		}
	case OpOr:
		for l := range dst {
			dst[l] = a[l] | b[l]
		}
	case OpXor:
		for l := range dst {
			dst[l] = a[l] ^ b[l]
		}
	case OpNot:
		for l := range dst {
			dst[l] = ^a[l] & mask
		}
	case OpNeg:
		for l := range dst {
			dst[l] = -a[l] & mask
		}
	case OpShl:
		for l := range dst {
			dst[l] = a[l] << v.amt & mask
		}
	case OpShr:
		for l := range dst {
			dst[l] = a[l] >> v.amt
		}
	case OpEq:
		for l := range dst {
			dst[l] = b2u(a[l] == b[l])
		}
	case OpNe:
		for l := range dst {
			dst[l] = b2u(a[l] != b[l])
		}
	case OpLtU:
		for l := range dst {
			dst[l] = b2u(a[l] < b[l])
		}
	case OpGtU:
		for l := range dst {
			dst[l] = b2u(a[l] > b[l])
		}
	case OpLeU:
		for l := range dst {
			dst[l] = b2u(a[l] <= b[l])
		}
	case OpGeU:
		for l := range dst {
			dst[l] = b2u(a[l] >= b[l])
		}
	case OpMux:
		c = c[:len(dst)]
		for l := range dst {
			if a[l] != 0 {
				dst[l] = b[l]
			} else {
				dst[l] = c[l]
			}
		}
	case OpMin:
		for l := range dst {
			dst[l] = min(a[l], b[l])
		}
	case OpMax:
		for l := range dst {
			dst[l] = max(a[l], b[l])
		}
	case OpAbsDiff:
		for l := range dst {
			if a[l] >= b[l] {
				dst[l] = a[l] - b[l]
			} else {
				dst[l] = b[l] - a[l]
			}
		}
	case OpPopCount:
		for l := range dst {
			dst[l] = uint64(bits.OnesCount64(a[l]))
		}
	case OpResize:
		for l := range dst {
			dst[l] = a[l] & mask
		}
	case OpLtS:
		for l := range dst {
			dst[l] = b2u(signExt(a[l], v.sw) < signExt(b[l], v.sw))
		}
	case OpLeS:
		for l := range dst {
			dst[l] = b2u(signExt(a[l], v.sw) <= signExt(b[l], v.sw))
		}
	case OpGtS:
		for l := range dst {
			dst[l] = b2u(signExt(a[l], v.sw) > signExt(b[l], v.sw))
		}
	case OpGeS:
		for l := range dst {
			dst[l] = b2u(signExt(a[l], v.sw) >= signExt(b[l], v.sw))
		}
	case OpShlV:
		for l := range dst {
			dst[l] = 0
			if b[l] < uint64(v.width) {
				dst[l] = a[l] << b[l] & mask
			}
		}
	case OpShrV:
		for l := range dst {
			dst[l] = 0
			if b[l] < uint64(v.width) {
				dst[l] = a[l] >> b[l]
			}
		}
	case OpDivU:
		for l := range dst {
			if b[l] == 0 {
				dst[l] = mask
			} else {
				dst[l] = a[l] / b[l]
			}
		}
	case OpModU:
		for l := range dst {
			if b[l] == 0 {
				dst[l] = a[l]
			} else {
				dst[l] = a[l] % b[l]
			}
		}
	case OpSra:
		for l := range dst {
			dst[l] = uint64(signExt(a[l], v.sw)>>v.amt) & mask
		}
	case OpSraV:
		for l := range dst {
			dst[l] = uint64(signExt(a[l], v.sw)>>min(b[l], uint64(v.sw))) & mask
		}
	}
}

// evalWide is the general path: operands of any limb counts, read
// zero-extended, one lane at a time.
func (p *LanePlan) evalWide(s *LaneScratch, v *laneValue, dst []uint64) {
	lanes := s.lanes
	as, bs, cs := p.arg(s, v.a), p.arg(s, v.b), p.arg(s, v.c)
	var na, nb, nc int
	if v.a >= 0 {
		na = p.vals[v.a].n
	}
	if v.b >= 0 {
		nb = p.vals[v.b].n
	}
	if v.c >= 0 {
		nc = p.vals[v.c].n
	}
	n := v.n
	for l := 0; l < lanes; l++ {
		d := dst[l*n : (l+1)*n]
		a, b, c := as[l*na:(l+1)*na], bs[l*nb:(l+1)*nb], cs[l*nc:(l+1)*nc]
		switch v.kind {
		case OpAdd:
			var carry uint64
			for i := range d {
				d[i], carry = bits.Add64(limb(a, i), limb(b, i), carry)
			}
			maskTop(d, v.width)
		case OpSub:
			subLimbs(d, a, b)
			maskTop(d, v.width)
		case OpNeg:
			subLimbs(d, nil, a)
			maskTop(d, v.width)
		case OpMul:
			clear(d)
			for i := 0; i < len(a) && i < n; i++ {
				if a[i] == 0 {
					continue
				}
				var carry uint64
				for j := 0; i+j < n && (j < len(b) || carry != 0); j++ {
					hi, lo := bits.Mul64(a[i], limb(b, j))
					var cy uint64
					lo, cy = bits.Add64(lo, d[i+j], 0)
					hi += cy
					lo, cy = bits.Add64(lo, carry, 0)
					hi += cy
					d[i+j], carry = lo, hi
				}
			}
			maskTop(d, v.width)
		case OpAnd:
			for i := range d {
				d[i] = limb(a, i) & limb(b, i)
			}
		case OpOr:
			for i := range d {
				d[i] = limb(a, i) | limb(b, i)
			}
		case OpXor:
			for i := range d {
				d[i] = limb(a, i) ^ limb(b, i)
			}
		case OpNot:
			for i := range d {
				d[i] = ^limb(a, i)
			}
			maskTop(d, v.width)
		case OpShl:
			shlLimbs(d, a, v.amt)
			maskTop(d, v.width)
		case OpShr:
			shrLimbs(d, a, v.amt, 0)
		case OpEq:
			d[0] = b2u(cmpLimbs(a, b) == 0)
		case OpNe:
			d[0] = b2u(cmpLimbs(a, b) != 0)
		case OpLtU:
			d[0] = b2u(cmpLimbs(a, b) < 0)
		case OpGtU:
			d[0] = b2u(cmpLimbs(a, b) > 0)
		case OpLeU:
			d[0] = b2u(cmpLimbs(a, b) <= 0)
		case OpGeU:
			d[0] = b2u(cmpLimbs(a, b) >= 0)
		case OpMux:
			if !isZero(a) {
				copyExt(d, b)
			} else {
				copyExt(d, c)
			}
		case OpMin:
			if cmpLimbs(a, b) <= 0 {
				copyExt(d, a)
			} else {
				copyExt(d, b)
			}
		case OpMax:
			if cmpLimbs(a, b) >= 0 {
				copyExt(d, a)
			} else {
				copyExt(d, b)
			}
		case OpAbsDiff:
			if cmpLimbs(a, b) >= 0 {
				subLimbs(d, a, b)
			} else {
				subLimbs(d, b, a)
			}
		case OpPopCount:
			d[0] = 0
			for _, w := range a {
				d[0] += uint64(bits.OnesCount64(w))
			}
		case OpResize:
			copyExt(d, a)
			maskTop(d, v.width)
		case OpShlV:
			if amt, ok := shiftAmount(b, v.width); ok {
				shlLimbs(d, a, amt)
				maskTop(d, v.width)
			} else {
				clear(d)
			}
		case OpShrV:
			if amt, ok := shiftAmount(b, v.width); ok {
				shrLimbs(d, a, amt, 0)
			} else {
				clear(d)
			}
		case OpSra, OpSraV:
			amt := v.amt
			if v.kind == OpSraV {
				// Eval clamps to sw whatever exceeds it, int64 or not.
				var ok bool
				if amt, ok = shiftAmount(b, v.sw); !ok {
					amt = uint64(v.sw)
				}
			}
			sa := s.tmp[:max(v.sw, 64*na)/64+1]
			toSignedLimbs(sa, a, v.sw)
			shrLimbs(d, sa, amt, uint64(int64(sa[len(sa)-1])>>63))
			maskTop(d, v.width)
		case OpLtS, OpLeS, OpGtS, OpGeS:
			m := max(v.sw, 64*na, 64*nb)/64 + 1
			sa, sb := s.tmp[:m], s.tmp[m:2*m]
			toSignedLimbs(sa, a, v.sw)
			toSignedLimbs(sb, b, v.sw)
			cmp := cmpSignedLimbs(sa, sb)
			switch v.kind {
			case OpLtS:
				d[0] = b2u(cmp < 0)
			case OpLeS:
				d[0] = b2u(cmp <= 0)
			case OpGtS:
				d[0] = b2u(cmp > 0)
			case OpGeS:
				d[0] = b2u(cmp >= 0)
			}
		case OpDivU, OpModU:
			// Wider than one limb, division goes through big.Int lane by
			// lane: no Table-II kernel divides that wide.
			switch {
			case !isZero(b):
				x, y := LimbsBig(a), LimbsBig(b)
				if v.kind == OpDivU {
					x.Div(x, y)
				} else {
					x.Mod(x, y)
				}
				copy(d, BigLimbs(x, n))
			case v.kind == OpModU:
				copyExt(d, a)
			default:
				ones := d[:limbsFor(v.width)]
				for i := range ones {
					ones[i] = ^uint64(0)
				}
				maskTop(ones, v.width)
				clear(d[len(ones):])
			}
		}
	}
}
