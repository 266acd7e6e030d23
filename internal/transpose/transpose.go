// Package transpose implements the host-side data transposition that
// Bit-serial SIMD PUD architectures require: converting operands from the
// conventional horizontal layout (one element per memory word) into the
// vertical, bit-serial layout (bit i of every lane gathered into one DRAM
// row) and back. The CHOPPER front-end emits this code for the host
// processor; the PUD program then consumes the transposed rows via WRITE
// micro-ops.
//
// The core primitive is the classic 64x64 bit-matrix transpose
// (Hacker's Delight, 7-3), applied blockwise over the lane dimension.
package transpose

import "fmt"

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

// ToVertical converts `lanes` elements of `width` bits (width <= 64, one
// element per entry of elems, low bits significant) into `width` bit-rows of
// Words(lanes) words each: row b, bit l == bit b of element l.
//
// len(elems) must be at least lanes; extra entries are ignored. Bits of an
// element at positions >= width are ignored.
func ToVertical(elems []uint64, width, lanes int) [][]uint64 {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("transpose: width %d out of range (1..64)", width))
	}
	if len(elems) < lanes {
		panic(fmt.Sprintf("transpose: %d elements for %d lanes", len(elems), lanes))
	}
	w := Words(lanes)
	rows := make([][]uint64, width)
	backing := make([]uint64, width*w)
	for b := range rows {
		rows[b], backing = backing[:w], backing[w:]
	}
	var block [64]uint64
	for base := 0; base < lanes; base += 64 {
		n := lanes - base
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			block[i] = elems[base+i]
		}
		for i := n; i < 64; i++ {
			block[i] = 0
		}
		Transpose64(&block)
		word := base / 64
		if n == 64 {
			for b := 0; b < width; b++ {
				rows[b][word] = block[b]
			}
		} else {
			tailMask := (uint64(1) << uint(n)) - 1
			for b := 0; b < width; b++ {
				rows[b][word] = block[b] & tailMask
			}
		}
	}
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
		n := lanes - base
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			block[i] = elems[base+i]
		}
		for i := n; i < 64; i++ {
			block[i] = 0
		}
		Transpose64(&block)
		word := off + base/64
		if n == 64 {
			for b := 0; b < width; b++ {
				dst[b][word] = block[b]
			}
		} else {
			tailMask := (uint64(1) << uint(n)) - 1
			for b := 0; b < width; b++ {
				dst[b][word] = block[b] & tailMask
			}
		}
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
// back into element l. Rows beyond len(rows) read as zero, so a narrower
// result can be widened for free.
func FromVertical(rows [][]uint64, width, lanes int) []uint64 {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("transpose: width %d out of range (1..64)", width))
	}
	elems := make([]uint64, lanes)
	var block [64]uint64
	for base := 0; base < lanes; base += 64 {
		n := lanes - base
		if n > 64 {
			n = 64
		}
		word := base / 64
		for b := 0; b < width && b < len(rows); b++ {
			if word < len(rows[b]) {
				block[b] = rows[b][word]
			} else {
				block[b] = 0
			}
		}
		for b := width; b < 64; b++ {
			block[b] = 0
		}
		if width <= len(rows) {
			for b := width; b < 64 && b < len(rows); b++ {
				block[b] = 0
			}
		}
		Transpose64(&block)
		for i := 0; i < n; i++ {
			elems[base+i] = block[i]
		}
	}
	return elems
}

// ToVerticalWide converts wide elements (each a little-endian slice of
// 64-bit limbs) into `width` bit-rows. width may exceed 64; limbs beyond
// an element's length read as zero.
func ToVerticalWide(elems [][]uint64, width, lanes int) [][]uint64 {
	if width <= 0 {
		panic("transpose: non-positive width")
	}
	w := Words(lanes)
	rows := make([][]uint64, width)
	backing := make([]uint64, width*w)
	for b := range rows {
		rows[b], backing = backing[:w:w], backing[w:]
	}
	ToVerticalWideInto(rows, elems, width, lanes)
	return rows
}

// ToVerticalWideInto is ToVerticalWide writing into caller-allocated rows:
// dst must hold at least `width` rows of at least Words(lanes) words, and
// every one of those words is overwritten (lanes beyond `lanes` in the tail
// word read as zero), so dst may be a recycled buffer.
func ToVerticalWideInto(dst [][]uint64, elems [][]uint64, width, lanes int) {
	if width <= 0 {
		panic("transpose: non-positive width")
	}
	if len(elems) < lanes {
		panic(fmt.Sprintf("transpose: %d elements for %d lanes", len(elems), lanes))
	}
	if len(dst) < width {
		panic(fmt.Sprintf("transpose: %d destination rows for width %d", len(dst), width))
	}
	limbs := (width + 63) / 64
	var block [64]uint64
	for limb := 0; limb < limbs; limb++ {
		lo := limb * 64
		hi := lo + 64
		if hi > width {
			hi = width
		}
		for base := 0; base < lanes; base += 64 {
			n := lanes - base
			if n > 64 {
				n = 64
			}
			for i := 0; i < n; i++ {
				block[i] = 0
				if e := elems[base+i]; limb < len(e) {
					block[i] = e[limb]
				}
			}
			for i := n; i < 64; i++ {
				block[i] = 0
			}
			Transpose64(&block)
			word := base / 64
			for b := lo; b < hi; b++ {
				dst[b][word] = block[b-lo]
			}
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
		dst[l], backing = backing[:limbs:limbs], backing[limbs:]
	}
	var block [64]uint64
	for limb := 0; limb < limbs; limb++ {
		lo := limb * 64
		hi := lo + 64
		if hi > width {
			hi = width
		}
		for base := 0; base < lanes; base += 64 {
			n := lanes - base
			if n > 64 {
				n = 64
			}
			word := base / 64
			for b := 0; b < 64; b++ {
				block[b] = 0
			}
			for b := lo; b < hi && b < len(rows); b++ {
				if word < len(rows[b]) {
					block[b-lo] = rows[b][word]
				}
			}
			Transpose64(&block)
			for i := 0; i < n; i++ {
				dst[base+i][limb] = block[i]
			}
		}
	}
}
