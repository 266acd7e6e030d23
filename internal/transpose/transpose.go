// Package transpose implements the host-side data transposition that
// Bit-serial SIMD PUD architectures require: converting operands from the
// conventional horizontal layout (one element per memory word) into the
// vertical, bit-serial layout (bit i of every lane gathered into one DRAM
// row) and back. The CHOPPER front-end emits this code for the host
// processor; the PUD program then consumes the transposed rows via WRITE
// micro-ops.
//
// The core primitive is the classic 64x64 bit-matrix transpose
// (Hacker's Delight, 7-3), applied blockwise over the lane dimension by one
// scatter and one gather block kernel that run only the stages an
// operand's live bit-rows need (SIMDRAM accounts transposition per object
// at the object's own element width; so does this).
package transpose

import (
	"fmt"
	"math/bits"
)

// Words returns the number of 64-bit words needed to hold `lanes` bits.
func Words(lanes int) int { return (lanes + 63) / 64 }

// Transpose64 transposes a 64x64 bit matrix in place: bit j of word i moves
// to bit i of word j.
func Transpose64(m *[64]uint64) {
	j := 32
	mask := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (m[k] ^ (m[k+j] << j)) & (mask << j)
			m[k] ^= t
			m[k+j] ^= t >> j
		}
		j >>= 1
		mask ^= mask << j
	}
}

// narrowMax is the crossover of the block kernels: the most live bit-rows
// (k = hi - lo of a limb, the operand's own width when it fits one) a
// 64-lane block moves without the full 64x64 butterfly. A block of
// k <= narrowMax rows is packed 64/W lanes to a word (W = k rounded up to a
// power of two) and transposed by the log2(W) butterfly stages that remain,
// on W words instead of 64: the stages at and above W only move whole
// lanes, which the packing (scatter) or unpacking (gather) shift does for
// free. k == 1 degenerates to one shift-and-mask per lane (W = 1, no stage
// at all). Above narrowMax W would be 64 — nothing packs, no stage is saved
// — and Transpose64 runs as it always did.
//
// BenchmarkGatherWidth / BenchmarkScatterWidth, us per 1024-lane tile
// (2 vCPU Xeon @ 2.1 GHz, best of 5 x 20000): Transpose64 for every width
// took 9.1-11.1 us to gather and 8.3-8.9 us to scatter, flat in the width;
// these kernels take
//
//	width     1    4    8   10   16   32   64
//	gather  2.8  2.9  3.1  3.9  3.8  5.5  9.2
//	scatter 1.4  2.0  2.6  3.0  3.2  4.7  7.6
//
// With the crossover at 16 instead, width 32 takes the Transpose64 path at
// 9.8 / 7.5 us: the packed form still wins at its widest, so 32 it is.
const narrowMax = 32

// swapMask[s] selects the bit positions whose index has bit s clear: the
// columns stage s of the transpose swaps upward.
var swapMask = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
}

// butterfly runs transpose stages w-1..0 on the first 1<<w words of m: for
// every s < w, bit s of a bit's word index trades places with bit s of its
// position in the word (the six stages of Transpose64 are w == 6; stages
// commute, so running only the low ones is well defined).
func butterfly(m *[64]uint64, w int) {
	for s := w - 1; s >= 0; s-- {
		j := 1 << uint(s)
		mask := swapMask[s] << uint(j)
		for k := 0; k < 1<<uint(w); k = (k + j + 1) &^ j {
			t := (m[k] ^ m[k+j]<<uint(j)) & mask
			m[k] ^= t
			m[k+j] ^= t >> uint(j)
		}
	}
}

// scatterBlock is the one horizontal-to-vertical block kernel: block[i] is
// one limb of lane i, i < n <= 64, and row b of dst receives, in word
// `word`, bit b of every lane — bit i from lane i, bits n..63 zero. Limb
// bits at or above len(dst) (at most 64) are ignored. block is scratch.
func scatterBlock(dst [][]uint64, word int, block *[64]uint64, n int) {
	k := len(dst)
	switch {
	case k == 1:
		var r uint64
		for i, v := range block[:n] {
			r |= (v & 1) << uint(i)
		}
		dst[0][word] = r
		return
	case k > narrowMax:
		clear(block[n:])
		Transpose64(block)
	default:
		w := bits.Len(uint(k - 1))
		low := 1<<uint(w) - 1
		keep := uint64(1)<<uint(k) - 1
		var packed [64]uint64
		for i, v := range block[:n] {
			packed[i&low] |= (v & keep) << uint(i&^low)
		}
		butterfly(&packed, w)
		block = &packed
	}
	for b, row := range dst {
		row[word] = block[b]
	}
}

// gatherBlock is the one vertical-to-horizontal block kernel, the inverse
// of scatterBlock: out[i*stride], i < n <= 64, receives the limb whose bit
// b is bit i of rows[b][word]. A row shorter than word+1 words reads as
// zero, as do the limb's bits at and above len(rows) (at most 64); every
// block starts from zeroed scratch, so nothing carries over from the
// previous block.
func gatherBlock(out []uint64, stride int, rows [][]uint64, word, n int) {
	var m [64]uint64
	for b, row := range rows {
		if word < len(row) {
			m[b] = row[word]
		}
	}
	w := 6
	if k := len(rows); k > narrowMax {
		Transpose64(&m)
	} else {
		w = bits.Len(uint(max(k, 1) - 1))
		butterfly(&m, w)
	}
	// Lane i's limb is the 1<<w-bit field of word i mod 1<<w that starts at
	// bit i rounded down to a multiple of 1<<w: the whole word when w == 6,
	// bit i of the one row when w == 0.
	low := 1<<uint(w) - 1
	field := uint64(1)<<uint(low+1) - 1
	for i := 0; i < n; i++ {
		out[i*stride] = m[i&low] >> uint(i&^low) & field
	}
}

// gather runs gatherBlock over every 64-lane block of `lanes` lanes: lane l
// lands in out[first+l*stride].
func gather(out []uint64, first, stride int, rows [][]uint64, lanes int) {
	for base := 0; base < lanes; base += 64 {
		gatherBlock(out[first+base*stride:], stride, rows, base/64, min(lanes-base, 64))
	}
}

// newRows allocates `width` bit-rows of Words(lanes) words on one backing
// array, each row's capacity clipped to its own words.
func newRows(width, lanes int) [][]uint64 {
	if width <= 0 {
		panic("transpose: non-positive width")
	}
	w := Words(lanes)
	rows := make([][]uint64, width)
	backing := make([]uint64, width*w)
	for b := range rows {
		rows[b], backing = backing[:w:w], backing[w:]
	}
	return rows
}

// ToVertical converts `lanes` elements of `width` bits (width <= 64, one
// element per entry of elems, low bits significant) into `width` bit-rows of
// Words(lanes) words each: row b, bit l == bit b of element l.
//
// len(elems) must be at least lanes; extra entries are ignored. Bits of an
// element at positions >= width are ignored.
func ToVertical(elems []uint64, width, lanes int) [][]uint64 {
	rows := newRows(width, lanes)
	ToVerticalInto(rows, 0, elems, width, lanes)
	return rows
}

// ToVerticalInto is ToVertical writing into caller-allocated rows at a
// word offset: bit b of element l lands in bit l%64 of dst[b][off+l/64].
// It is the zero-copy primitive batched execution uses to pack several
// requests' operands into one shared arena — each request transposes
// directly into its own word-aligned lane span. dst must have at least
// `width` rows of at least off+Words(lanes) words; words outside the
// span are left untouched, and the span's tail word is masked to `lanes`
// bits exactly as ToVertical masks its own tail.
func ToVerticalInto(dst [][]uint64, off int, elems []uint64, width, lanes int) {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("transpose: width %d out of range (1..64)", width))
	}
	if len(elems) < lanes {
		panic(fmt.Sprintf("transpose: %d elements for %d lanes", len(elems), lanes))
	}
	if len(dst) < width {
		panic(fmt.Sprintf("transpose: %d destination rows for width %d", len(dst), width))
	}
	w := Words(lanes)
	for b := 0; b < width; b++ {
		if len(dst[b]) < off+w {
			panic(fmt.Sprintf("transpose: destination row %d has %d words, need %d", b, len(dst[b]), off+w))
		}
	}
	var block [64]uint64
	for base := 0; base < lanes; base += 64 {
		n := min(lanes-base, 64)
		copy(block[:n], elems[base:])
		scatterBlock(dst[:width], off+base/64, &block, n)
	}
}

// PasteRows copies vertical rows already in bit-row layout into dst at a
// word offset, masking each row's tail word to `lanes` bits. It is the
// paste half of batched packing for operands that arrive pre-transposed
// (wide verify inputs). src rows shorter than Words(lanes) read as zero.
func PasteRows(dst [][]uint64, off int, src [][]uint64, lanes int) {
	w := Words(lanes)
	mask := ^uint64(0)
	if r := lanes % 64; r != 0 {
		mask = (uint64(1) << uint(r)) - 1
	}
	if len(dst) < len(src) {
		panic(fmt.Sprintf("transpose: %d destination rows for %d source rows", len(dst), len(src)))
	}
	for b := range src {
		if len(dst[b]) < off+w {
			panic(fmt.Sprintf("transpose: destination row %d has %d words, need %d", b, len(dst[b]), off+w))
		}
		for i := 0; i < w; i++ {
			var v uint64
			if i < len(src[b]) {
				v = src[b][i]
			}
			if i == w-1 {
				v &= mask
			}
			dst[b][off+i] = v
		}
	}
}

// FromVertical is the inverse of ToVertical: it gathers bit l of every row
// back into element l. Rows beyond len(rows), and words beyond a row's
// length, read as zero, so a narrower result can be widened for free.
func FromVertical(rows [][]uint64, width, lanes int) []uint64 {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("transpose: width %d out of range (1..64)", width))
	}
	elems := make([]uint64, lanes)
	gather(elems, 0, 1, rows[:min(width, len(rows))], lanes)
	return elems
}

// ToVerticalWide converts wide elements (each a little-endian slice of
// 64-bit limbs) into `width` bit-rows. width may exceed 64; limbs beyond
// an element's length read as zero.
func ToVerticalWide(elems [][]uint64, width, lanes int) [][]uint64 {
	rows := newRows(width, lanes)
	ToVerticalWideInto(rows, 0, elems, width, lanes)
	return rows
}

// ToVerticalWideInto is ToVerticalWide writing into caller-allocated rows
// at a word offset (see ToVerticalInto): dst must hold at least `width`
// rows of at least off+Words(lanes) words, and every word of the span is
// overwritten (lanes beyond `lanes` in the tail word read as zero), so dst
// may be a recycled buffer.
func ToVerticalWideInto(dst [][]uint64, off int, elems [][]uint64, width, lanes int) {
	if width <= 0 {
		panic("transpose: non-positive width")
	}
	if len(elems) < lanes {
		panic(fmt.Sprintf("transpose: %d elements for %d lanes", len(elems), lanes))
	}
	if len(dst) < width {
		panic(fmt.Sprintf("transpose: %d destination rows for width %d", len(dst), width))
	}
	var block [64]uint64
	for lo := 0; lo < width; lo += 64 {
		limb := lo / 64
		for base := 0; base < lanes; base += 64 {
			n := min(lanes-base, 64)
			for i, e := range elems[base : base+n] {
				block[i] = 0
				if limb < len(e) {
					block[i] = e[limb]
				}
			}
			scatterBlock(dst[lo:min(lo+64, width)], off+base/64, &block, n)
		}
	}
}

// FromVerticalWide gathers bit-rows back into wide elements of
// ceil(width/64) limbs each. The elements share one backing array; each
// one's capacity is clipped to its own limbs, so appending to one lane
// reallocates it instead of running into its neighbour.
func FromVerticalWide(rows [][]uint64, width, lanes int) [][]uint64 {
	if width <= 0 {
		panic("transpose: non-positive width")
	}
	elems := make([][]uint64, lanes)
	FromVerticalWideInto(elems, make([]uint64, lanes*((width+63)/64)), rows, width, lanes)
	return elems
}

// FromVerticalWideInto is FromVerticalWide gathering into caller-allocated
// storage: element l becomes dst[l], carved (capacity-clipped) out of
// backing, which must hold lanes*ceil(width/64) limbs; every limb is
// overwritten. The tiled runner gathers each tile straight into its lane
// range of the final output through it. Rows beyond len(rows), and words
// beyond a row's length, read as zero.
func FromVerticalWideInto(dst [][]uint64, backing []uint64, rows [][]uint64, width, lanes int) {
	if width <= 0 {
		panic("transpose: non-positive width")
	}
	limbs := (width + 63) / 64
	if len(dst) < lanes || len(backing) < lanes*limbs {
		panic(fmt.Sprintf("transpose: %d destination elements on %d limbs for %d lanes of %d limbs", len(dst), len(backing), lanes, limbs))
	}
	for l := 0; l < lanes; l++ {
		dst[l] = backing[l*limbs : (l+1)*limbs : (l+1)*limbs]
	}
	live := min(width, len(rows))
	for limb := 0; limb < limbs; limb++ {
		lo := min(limb*64, live)
		gather(backing, limb, limbs, rows[lo:min(lo+64, live)], lanes)
	}
}
