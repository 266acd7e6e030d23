package logic

import "strconv"

// Word is a multi-bit value as a vector of net nodes, least-significant bit
// first. Words are what the bit-slicing pass manipulates: every arithmetic
// operation of the dataflow graph becomes a gate-level construction over
// Words.
type Word []NodeID

// InputWord declares a fresh w-bit input named base ("base[0]".."base[w-1]").
func (b *Builder) InputWord(base string, w int) Word {
	word := make(Word, w)
	for i := range word {
		word[i] = b.Input(bitName(base, i))
	}
	return word
}

// ConstWord builds a w-bit constant word from the low bits of v.
func (b *Builder) ConstWord(v uint64, w int) Word {
	word := make(Word, w)
	for i := range word {
		word[i] = b.Const(v>>uint(i)&1 == 1)
	}
	return word
}

// OutputWord registers every bit of word as outputs "base[i]".
func (b *Builder) OutputWord(base string, word Word) {
	for i, id := range word {
		b.Output(bitName(base, i), id)
	}
}

// bitName is the port name "base[i]" of bit i of a word.
func bitName(base string, i int) string {
	return base + "[" + strconv.Itoa(i) + "]"
}

// Extend returns word widened (zero- or sign-extended) or truncated to w bits.
func (b *Builder) Extend(x Word, w int, signed bool) Word {
	if len(x) == w {
		return x
	}
	out := make(Word, w)
	n := copy(out, x)
	fill := b.Const(false)
	if signed && len(x) > 0 {
		fill = x[len(x)-1]
	}
	for i := n; i < w; i++ {
		out[i] = fill
	}
	return out[:w]
}

// fullAdder returns (sum, carry) of three bits using the canonical
// XOR/MAJ decomposition; legalization maps these onto each architecture's
// native gate set later.
func (b *Builder) fullAdder(x, y, c NodeID) (sum, carry NodeID) {
	carry = b.Maj(x, y, c)
	sum = b.Xor(b.Xor(x, y), c)
	return sum, carry
}

// AddCarry returns x + y + cin as a word of max(len(x),len(y)) bits plus the
// carry-out bit. Operands of different widths are zero-extended.
func (b *Builder) AddCarry(x, y Word, cin NodeID) (Word, NodeID) {
	w := len(x)
	if len(y) > w {
		w = len(y)
	}
	x = b.Extend(x, w, false)
	y = b.Extend(y, w, false)
	out := make(Word, w)
	c := cin
	for i := 0; i < w; i++ {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out, c
}

// Add returns x + y modulo 2^w.
func (b *Builder) Add(x, y Word) Word {
	s, _ := b.AddCarry(x, y, b.Const(false))
	return s
}

// Sub returns x - y modulo 2^w (two's complement: x + ~y + 1).
func (b *Builder) Sub(x, y Word) Word {
	s, _ := b.SubBorrow(x, y)
	return s
}

// SubBorrow returns x - y and the final carry (1 = no borrow, i.e. x >= y
// for unsigned operands).
func (b *Builder) SubBorrow(x, y Word) (Word, NodeID) {
	w := len(x)
	if len(y) > w {
		w = len(y)
	}
	x = b.Extend(x, w, false)
	y = b.Extend(y, w, false)
	ny := make(Word, w)
	for i := range ny {
		ny[i] = b.Not(y[i])
	}
	return b.AddCarry(x, ny, b.Const(true))
}

// Neg returns -x (two's complement).
func (b *Builder) Neg(x Word) Word {
	zero := b.ConstWord(0, len(x))
	return b.Sub(zero, x)
}

// BitwiseAnd / BitwiseOr / BitwiseXor / BitwiseNot apply per-bit ops; widths
// must match after zero extension to the wider operand.
func (b *Builder) BitwiseAnd(x, y Word) Word { return b.bitwise2(x, y, b.And) }
func (b *Builder) BitwiseOr(x, y Word) Word  { return b.bitwise2(x, y, b.Or) }
func (b *Builder) BitwiseXor(x, y Word) Word { return b.bitwise2(x, y, b.Xor) }

func (b *Builder) bitwise2(x, y Word, f func(NodeID, NodeID) NodeID) Word {
	w := len(x)
	if len(y) > w {
		w = len(y)
	}
	x = b.Extend(x, w, false)
	y = b.Extend(y, w, false)
	out := make(Word, w)
	for i := range out {
		out[i] = f(x[i], y[i])
	}
	return out
}

// BitwiseNot returns ~x.
func (b *Builder) BitwiseNot(x Word) Word {
	out := make(Word, len(x))
	for i := range out {
		out[i] = b.Not(x[i])
	}
	return out
}

// ShiftLeft returns x << k (constant shift: pure rewiring, no gates).
func (b *Builder) ShiftLeft(x Word, k int) Word {
	out := make(Word, len(x))
	zero := b.Const(false)
	for i := range out {
		if i-k >= 0 && i-k < len(x) {
			out[i] = x[i-k]
		} else {
			out[i] = zero
		}
	}
	return out
}

// ShiftRight returns x >> k, logical (constant shift).
func (b *Builder) ShiftRight(x Word, k int, signed bool) Word {
	out := make(Word, len(x))
	fill := b.Const(false)
	if signed && len(x) > 0 {
		fill = x[len(x)-1]
	}
	for i := range out {
		if i+k < len(x) {
			out[i] = x[i+k]
		} else {
			out[i] = fill
		}
	}
	return out
}

// ShiftLeftDyn returns x << amt for a computed amount: a barrel shifter of
// log2(w) mux stages. Amounts >= len(x) yield zero.
func (b *Builder) ShiftLeftDyn(x, amt Word) Word {
	return b.barrel(x, amt, func(cur Word, k int) Word { return b.ShiftLeft(cur, k) }, b.Const(false))
}

// ShiftRightDyn returns x >> amt (logical) for a computed amount.
// Amounts >= len(x) yield zero.
func (b *Builder) ShiftRightDyn(x, amt Word) Word {
	return b.barrel(x, amt, func(cur Word, k int) Word { return b.ShiftRight(cur, k, false) }, b.Const(false))
}

// ShiftRightArithDyn returns x >> amt with sign fill for a computed
// amount; amounts >= len(x) yield all sign bits.
func (b *Builder) ShiftRightArithDyn(x, amt Word) Word {
	sign := b.Const(false)
	if len(x) > 0 {
		sign = x[len(x)-1]
	}
	return b.barrel(x, amt, func(cur Word, k int) Word { return b.ShiftRight(cur, k, true) }, sign)
}

// barrel applies the shared barrel-shifter structure: stage k muxes a
// fixed shift by 2^k under amt's bit k; amount bits addressing shifts of
// the full width or more select the fill value everywhere.
func (b *Builder) barrel(x, amt Word, step func(Word, int) Word, fill NodeID) Word {
	w := len(x)
	cur := x
	for k := 0; k < len(amt) && 1<<uint(k) < w; k++ {
		shifted := step(cur, 1<<uint(k))
		out := make(Word, w)
		for i := range out {
			out[i] = b.Mux(amt[k], shifted[i], cur[i])
		}
		cur = out
	}
	// Any set amount bit at or beyond the width selects the fill.
	over := b.Const(false)
	for k := 0; k < len(amt); k++ {
		if 1<<uint(k) >= w {
			over = b.Or(over, amt[k])
		}
	}
	out := make(Word, w)
	for i := range out {
		out[i] = b.Mux(over, fill, cur[i])
	}
	return out
}

// MuxWord returns c ? t : f per bit.
func (b *Builder) MuxWord(c NodeID, t, f Word) Word {
	w := len(t)
	if len(f) > w {
		w = len(f)
	}
	t = b.Extend(t, w, false)
	f = b.Extend(f, w, false)
	out := make(Word, w)
	for i := range out {
		out[i] = b.Mux(c, t[i], f[i])
	}
	return out
}

// Eq returns the single bit (x == y).
func (b *Builder) Eq(x, y Word) NodeID {
	w := len(x)
	if len(y) > w {
		w = len(y)
	}
	x = b.Extend(x, w, false)
	y = b.Extend(y, w, false)
	acc := b.Const(true)
	for i := 0; i < w; i++ {
		acc = b.And(acc, b.Not(b.Xor(x[i], y[i])))
	}
	return acc
}

// Ne returns the single bit (x != y).
func (b *Builder) Ne(x, y Word) NodeID { return b.Not(b.Eq(x, y)) }

// LtU returns the single bit (x < y), unsigned: the borrow of x - y.
func (b *Builder) LtU(x, y Word) NodeID {
	_, carry := b.SubBorrow(x, y)
	return b.Not(carry)
}

// GeU returns x >= y unsigned.
func (b *Builder) GeU(x, y Word) NodeID {
	_, carry := b.SubBorrow(x, y)
	return carry
}

// GtU returns x > y unsigned.
func (b *Builder) GtU(x, y Word) NodeID { return b.LtU(y, x) }

// LeU returns x <= y unsigned.
func (b *Builder) LeU(x, y Word) NodeID { return b.GeU(y, x) }

// LtS returns x < y for two's-complement signed words of equal width.
func (b *Builder) LtS(x, y Word) NodeID {
	w := len(x)
	if len(y) > w {
		w = len(y)
	}
	x = b.Extend(x, w, true)
	y = b.Extend(y, w, true)
	diff, carry := b.SubBorrow(x, y)
	// Signed less-than: sign(diff) XOR overflow.
	sx := x[w-1]
	sy := y[w-1]
	sd := diff[w-1]
	_ = carry
	// Overflow when operand signs differ and result sign != sign(x).
	ovf := b.And(b.Xor(sx, sy), b.Xor(sx, sd))
	return b.Xor(sd, ovf)
}

// Mul returns x * y truncated to w bits (shift-and-add; w defaults to
// len(x)+len(y) if w <= 0).
func (b *Builder) Mul(x, y Word, w int) Word {
	if w <= 0 {
		w = len(x) + len(y)
	}
	acc := b.ConstWord(0, w)
	for i := 0; i < len(y) && i < w; i++ {
		// partial = (x << i) & y[i]
		part := make(Word, w)
		zero := b.Const(false)
		for j := range part {
			if j-i >= 0 && j-i < len(x) {
				part[j] = b.And(x[j-i], y[i])
			} else {
				part[j] = zero
			}
		}
		acc = b.Add(acc, part)
	}
	return acc
}

// DivMod returns (x / y, x %% y) for unsigned words of equal width, as a
// restoring long divider: w iterations of shift-compare-subtract. Division
// by zero follows the RISC-V convention: quotient all-ones, remainder x.
func (b *Builder) DivMod(x, y Word) (q, r Word) {
	w := len(x)
	if len(y) > w {
		w = len(y)
	}
	x = b.Extend(x, w, false)
	y = b.Extend(y, w, false)
	q = make(Word, w)
	r = b.ConstWord(0, w)
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | x[i]
		shifted := make(Word, w)
		shifted[0] = x[i]
		copy(shifted[1:], r[:w-1])
		diff, ge := b.SubBorrow(shifted, y) // ge=1 means shifted >= y
		r = b.MuxWord(ge, diff, shifted)
		q[i] = ge
	}
	return q, r
}

// PopCount returns the number of set bits of x as a word of ceil(log2(w))+1
// bits, built as a balanced adder tree.
func (b *Builder) PopCount(x Word) Word {
	if len(x) == 0 {
		return b.ConstWord(0, 1)
	}
	// Start with 1-bit words; pairwise add until one word remains.
	words := make([]Word, len(x))
	for i, bit := range x {
		words[i] = Word{bit}
	}
	for len(words) > 1 {
		var next []Word
		for i := 0; i+1 < len(words); i += 2 {
			a, c := words[i], words[i+1]
			w := len(a)
			if len(c) > w {
				w = len(c)
			}
			s, carry := b.AddCarry(b.Extend(a, w, false), b.Extend(c, w, false), b.Const(false))
			s = append(s, carry)
			next = append(next, s)
		}
		if len(words)%2 == 1 {
			next = append(next, words[len(words)-1])
		}
		words = next
	}
	return words[0]
}

// AbsDiff returns |x - y| for unsigned words, synthesized as a single
// subtraction followed by a conditional negation (flip by the borrow and
// re-increment). This form keeps only one difference word live — half the
// buffering of the naive mux of both differences, which matters on PUD
// where every live bitslice is a DRAM row.
func (b *Builder) AbsDiff(x, y Word) Word {
	d, carry := b.SubBorrow(x, y) // carry=1 means x >= y (d is correct)
	nb := b.Not(carry)            // 1 means y > x: negate d
	flip := make(Word, len(d))
	for i := range d {
		flip[i] = b.Xor(d[i], nb)
	}
	// |x-y| = (d ^ broadcast(nb)) + nb  (two's-complement negate when nb).
	sum, _ := b.AddCarry(flip, b.ConstWord(0, len(d)), nb)
	return sum
}

// Min / Max over unsigned words.
func (b *Builder) MinU(x, y Word) Word { return b.MuxWord(b.LtU(x, y), x, y) }
func (b *Builder) MaxU(x, y Word) Word { return b.MuxWord(b.LtU(x, y), y, x) }
