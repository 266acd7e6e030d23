package transpose

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTranspose64Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m, orig [64]uint64
	for i := range m {
		m[i] = rng.Uint64()
	}
	orig = m
	Transpose64(&m)
	Transpose64(&m)
	if m != orig {
		t.Fatal("double transpose is not identity")
	}
}

func TestTranspose64Bits(t *testing.T) {
	var m [64]uint64
	m[3] = 1 << 17 // bit (row 3, col 17)
	Transpose64(&m)
	for i := range m {
		want := uint64(0)
		if i == 17 {
			want = 1 << 3
		}
		if m[i] != want {
			t.Fatalf("row %d = %#x, want %#x", i, m[i], want)
		}
	}
}

func TestRoundTripVarious(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ width, lanes int }{
		{1, 1}, {1, 64}, {8, 64}, {8, 100}, {16, 256}, {64, 64}, {13, 70}, {64, 1}, {32, 65},
	} {
		mask := ^uint64(0)
		if tc.width < 64 {
			mask = (uint64(1) << uint(tc.width)) - 1
		}
		elems := make([]uint64, tc.lanes)
		for i := range elems {
			elems[i] = rng.Uint64() & mask
		}
		rows := ToVertical(elems, tc.width, tc.lanes)
		if len(rows) != tc.width {
			t.Fatalf("w=%d l=%d: got %d rows", tc.width, tc.lanes, len(rows))
		}
		if len(rows[0]) != Words(tc.lanes) {
			t.Fatalf("w=%d l=%d: row has %d words, want %d", tc.width, tc.lanes, len(rows[0]), Words(tc.lanes))
		}
		back := FromVertical(rows, tc.width, tc.lanes)
		for i := range elems {
			if back[i] != elems[i] {
				t.Fatalf("w=%d l=%d lane %d: %#x != %#x", tc.width, tc.lanes, i, back[i], elems[i])
			}
		}
	}
}

func TestVerticalBitPlacement(t *testing.T) {
	// Element 5 = 0b10 (8-bit): bit 1 of lane 5 must be set in row 1.
	elems := make([]uint64, 64)
	elems[5] = 0b10
	rows := ToVertical(elems, 8, 64)
	if rows[0][0] != 0 {
		t.Errorf("row 0 = %#x, want 0", rows[0][0])
	}
	if rows[1][0] != 1<<5 {
		t.Errorf("row 1 = %#x, want %#x", rows[1][0], uint64(1)<<5)
	}
}

func TestHighBitsIgnored(t *testing.T) {
	elems := []uint64{0xFF}
	rows := ToVertical(elems, 4, 1)
	back := FromVertical(rows, 4, 1)
	if back[0] != 0xF {
		t.Errorf("width-4 round trip of 0xFF = %#x, want 0xF", back[0])
	}
}

func TestWideRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ width, lanes int }{
		{64, 64}, {128, 64}, {100, 70}, {512, 30}, {864, 10}, {65, 1},
	} {
		limbs := (tc.width + 63) / 64
		elems := make([][]uint64, tc.lanes)
		for i := range elems {
			elems[i] = make([]uint64, limbs)
			for j := range elems[i] {
				elems[i][j] = rng.Uint64()
			}
			// Mask the top limb to the width.
			if r := tc.width % 64; r != 0 {
				elems[i][limbs-1] &= (uint64(1) << uint(r)) - 1
			}
		}
		rows := ToVerticalWide(elems, tc.width, tc.lanes)
		if len(rows) != tc.width {
			t.Fatalf("w=%d: %d rows", tc.width, len(rows))
		}
		back := FromVerticalWide(rows, tc.width, tc.lanes)
		for i := range elems {
			for j := range elems[i] {
				if back[i][j] != elems[i][j] {
					t.Fatalf("w=%d lane %d limb %d: %#x != %#x", tc.width, i, j, back[i][j], elems[i][j])
				}
			}
		}
	}
}

func TestWideMatchesNarrowFor64(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lanes := 128
	elems := make([]uint64, lanes)
	wide := make([][]uint64, lanes)
	for i := range elems {
		elems[i] = rng.Uint64()
		wide[i] = []uint64{elems[i]}
	}
	r1 := ToVertical(elems, 64, lanes)
	r2 := ToVerticalWide(wide, 64, lanes)
	for b := 0; b < 64; b++ {
		for w := range r1[b] {
			if r1[b][w] != r2[b][w] {
				t.Fatalf("row %d word %d differ", b, w)
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(5))}
	prop := func(seed int64, wRaw, lRaw uint16) bool {
		width := int(wRaw)%64 + 1
		lanes := int(lRaw)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		mask := ^uint64(0)
		if width < 64 {
			mask = (uint64(1) << uint(width)) - 1
		}
		elems := make([]uint64, lanes)
		for i := range elems {
			elems[i] = rng.Uint64() & mask
		}
		back := FromVertical(ToVertical(elems, width, lanes), width, lanes)
		for i := range elems {
			if back[i] != elems[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	for name, f := range map[string]func(){
		"width0":  func() { ToVertical(nil, 0, 0) },
		"width65": func() { ToVertical(nil, 65, 0) },
		"short":   func() { ToVertical(make([]uint64, 3), 8, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestToVerticalIntoMatchesToVertical packs several lane groups into one
// shared arena and checks every span equals a standalone ToVertical of
// the same elements, with untouched words preserved.
func TestToVerticalIntoMatchesToVertical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const width = 11
	groups := []int{64, 1, 63, 65, 128, 7}
	total := 0
	offs := make([]int, len(groups))
	for i, lanes := range groups {
		offs[i] = total
		total += Words(lanes)
	}
	dst := make([][]uint64, width)
	for b := range dst {
		dst[b] = make([]uint64, total)
		for i := range dst[b] {
			dst[b][i] = ^uint64(0) // sentinel: must be overwritten span-exactly
		}
	}
	elems := make([][]uint64, len(groups))
	for gi, lanes := range groups {
		elems[gi] = make([]uint64, lanes)
		for i := range elems[gi] {
			elems[gi][i] = rng.Uint64()
		}
		ToVerticalInto(dst, offs[gi], elems[gi], width, lanes)
	}
	for gi, lanes := range groups {
		want := ToVertical(elems[gi], width, lanes)
		w := Words(lanes)
		for b := 0; b < width; b++ {
			for i := 0; i < w; i++ {
				if got := dst[b][offs[gi]+i]; got != want[b][i] {
					t.Fatalf("group %d row %d word %d: got %#x want %#x", gi, b, i, got, want[b][i])
				}
			}
		}
	}
}

// TestPasteRowsMasksTail pastes pre-transposed rows and checks the tail
// word is masked to the lane count and short source rows read as zero.
func TestPasteRowsMasksTail(t *testing.T) {
	src := [][]uint64{{^uint64(0), ^uint64(0)}, {0x123456789abcdef0}}
	dst := [][]uint64{make([]uint64, 5), make([]uint64, 5)}
	for b := range dst {
		for i := range dst[b] {
			dst[b][i] = 0xdead
		}
	}
	PasteRows(dst, 2, src, 70) // 2 words, tail masked to 6 bits
	if dst[0][2] != ^uint64(0) || dst[0][3] != (1<<6)-1 {
		t.Fatalf("row 0 spans wrong: %#x %#x", dst[0][2], dst[0][3])
	}
	if dst[1][2] != 0x123456789abcdef0 || dst[1][3] != 0 {
		t.Fatalf("row 1 spans wrong: %#x %#x (short source must read 0)", dst[1][2], dst[1][3])
	}
	for b := range dst {
		if dst[b][0] != 0xdead || dst[b][1] != 0xdead || dst[b][4] != 0xdead {
			t.Fatalf("row %d: words outside the span were touched", b)
		}
	}
}

// TestFromVerticalOfPastedSpan checks the round trip through a shared
// arena: elements transposed into a span come back exactly.
func TestFromVerticalOfPastedSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const width, lanes, off = 13, 65, 3
	elems := make([]uint64, lanes)
	mask := uint64(1)<<width - 1
	for i := range elems {
		elems[i] = rng.Uint64() & mask
	}
	dst := make([][]uint64, width)
	for b := range dst {
		dst[b] = make([]uint64, off+Words(lanes)+2)
	}
	ToVerticalInto(dst, off, elems, width, lanes)
	sub := make([][]uint64, width)
	for b := range sub {
		sub[b] = dst[b][off : off+Words(lanes)]
	}
	got := FromVertical(sub, width, lanes)
	for i := range elems {
		if got[i] != elems[i] {
			t.Fatalf("lane %d: got %#x want %#x", i, got[i], elems[i])
		}
	}
}

// randWide returns `lanes` random elements of `width` bits (top limb masked).
func randWide(rng *rand.Rand, width, lanes int) [][]uint64 {
	limbs := (width + 63) / 64
	elems := make([][]uint64, lanes)
	for i := range elems {
		elems[i] = make([]uint64, limbs)
		for j := range elems[i] {
			elems[i][j] = rng.Uint64()
		}
		if r := width % 64; r != 0 {
			elems[i][limbs-1] &= (uint64(1) << uint(r)) - 1
		}
	}
	return elems
}

// FromVerticalWide carves every lane's limbs out of one backing array; the
// capacity of each lane must end at its own limbs, or appending to one lane
// would overwrite the next.
func TestFromVerticalWideLanesDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ width, lanes int }{{8, 5}, {64, 70}, {100, 3}} {
		elems := randWide(rng, tc.width, tc.lanes)
		back := FromVerticalWide(ToVerticalWide(elems, tc.width, tc.lanes), tc.width, tc.lanes)
		for l := range back {
			if len(back[l]) != cap(back[l]) {
				t.Fatalf("w=%d lane %d: cap %d beyond len %d reaches into the next lane", tc.width, l, cap(back[l]), len(back[l]))
			}
		}
		for l := 0; l+1 < tc.lanes; l++ {
			back[l] = append(back[l], ^uint64(0))
			for j, want := range elems[l+1] {
				if back[l+1][j] != want {
					t.Fatalf("w=%d: appending to lane %d clobbered lane %d limb %d", tc.width, l, l+1, j)
				}
			}
		}
	}
}

// The same holds for the bit-rows ToVerticalWide returns.
func TestToVerticalWideRowsDoNotAlias(t *testing.T) {
	elems := randWide(rand.New(rand.NewSource(12)), 9, 130)
	rows := ToVerticalWide(elems, 9, 130)
	want := rows[1][0]
	rows[0] = append(rows[0], ^uint64(0))
	if rows[1][0] != want {
		t.Fatal("appending to row 0 clobbered row 1")
	}
}

// The Into variants overwrite every word they own, so a recycled, dirty
// destination gives exactly what the allocating variants give — including
// a partial last word and elements shorter than the width.
func TestWideIntoVariantsMatchOnDirtyBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct{ width, lanes int }{{1, 1}, {16, 64}, {64, 1000}, {65, 70}, {200, 129}} {
		elems := randWide(rng, tc.width, tc.lanes)
		elems[0] = elems[0][:len(elems[0])-1] // a short element reads as zero above
		want := ToVerticalWide(elems, tc.width, tc.lanes)

		w := Words(tc.lanes)
		rows := make([][]uint64, tc.width+1) // one row more than the width
		for b := range rows {
			rows[b] = make([]uint64, w)
			for i := range rows[b] {
				rows[b][i] = ^uint64(0)
			}
		}
		ToVerticalWideInto(rows, 0, elems, tc.width, tc.lanes)
		for b := 0; b < tc.width; b++ {
			for i := range want[b] {
				if rows[b][i] != want[b][i] {
					t.Fatalf("w=%d lanes=%d: row %d word %d = %#x, want %#x", tc.width, tc.lanes, b, i, rows[b][i], want[b][i])
				}
			}
		}
		for i := range rows[tc.width] {
			if rows[tc.width][i] != ^uint64(0) {
				t.Fatalf("w=%d: row beyond the width was written", tc.width)
			}
		}

		limbs := (tc.width + 63) / 64
		backing := make([]uint64, tc.lanes*limbs+1)
		for i := range backing {
			backing[i] = ^uint64(0)
		}
		got := make([][]uint64, tc.lanes)
		FromVerticalWideInto(got, backing, want, tc.width, tc.lanes)
		ref := FromVerticalWide(want, tc.width, tc.lanes)
		for l := range ref {
			if len(got[l]) != limbs || cap(got[l]) != limbs {
				t.Fatalf("w=%d lane %d: len %d cap %d, want both %d", tc.width, l, len(got[l]), cap(got[l]), limbs)
			}
			for j := range ref[l] {
				if got[l][j] != ref[l][j] {
					t.Fatalf("w=%d lane %d limb %d = %#x, want %#x", tc.width, l, j, got[l][j], ref[l][j])
				}
			}
		}
		if backing[tc.lanes*limbs] != ^uint64(0) {
			t.Fatalf("w=%d: limb beyond the lanes was written", tc.width)
		}
	}
}

func TestWideIntoVariantsPanicOnShortDestinations(t *testing.T) {
	elems := randWide(rand.New(rand.NewSource(14)), 8, 4)
	rows := ToVerticalWide(elems, 8, 4)
	for name, f := range map[string]func(){
		"to: rows":      func() { ToVerticalWideInto(rows[:7], 0, elems, 8, 4) },
		"to: elements":  func() { ToVerticalWideInto(rows, 0, elems[:3], 8, 4) },
		"from: lanes":   func() { FromVerticalWideInto(make([][]uint64, 3), make([]uint64, 4), rows, 8, 4) },
		"from: backing": func() { FromVerticalWideInto(make([][]uint64, 4), make([]uint64, 3), rows, 8, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// FromVertical's "rows beyond len(rows) read as zero" must hold past the
// first 64-lane block: the gather used to transpose in place in a block it
// re-zeroed only below len(rows), so lane 64 of a 4-row result widened to 8
// bits came back with the previous block's bits in its high nibble.
func TestFromVerticalWidensPastFirstBlock(t *testing.T) {
	const lanes = 128
	elems := make([]uint64, lanes)
	for i := range elems {
		elems[i] = uint64(i*5+3) & 0xF
	}
	back := FromVertical(ToVertical(elems, 4, lanes), 8, lanes)
	for i, want := range elems {
		if back[i] != want {
			t.Fatalf("lane %d = %#x, want %#x", i, back[i], want)
		}
	}
}

// refScatter and refGather are the transposes the way every entry point
// used to do them — one full Transpose64 per 64-lane block of every limb,
// whatever the operand's width — kept as the reference the width-following
// block kernels are checked against. They honor the same read-as-zero
// contracts: short or nil elements, short or nil or missing rows.
func refScatter(elems [][]uint64, width, lanes int) [][]uint64 {
	rows := make([][]uint64, width)
	for b := range rows {
		rows[b] = make([]uint64, Words(lanes))
	}
	for b0 := 0; b0 < width; b0 += 64 {
		for base := 0; base < lanes; base += 64 {
			var block [64]uint64
			for i := 0; i < 64 && base+i < lanes; i++ {
				if e := elems[base+i]; b0/64 < len(e) {
					block[i] = e[b0/64]
				}
			}
			Transpose64(&block)
			for b := b0; b < b0+64 && b < width; b++ {
				rows[b][base/64] = block[b-b0]
			}
		}
	}
	return rows
}

func refGather(rows [][]uint64, width, lanes int) [][]uint64 {
	limbs := (width + 63) / 64
	elems := make([][]uint64, lanes)
	for l := range elems {
		elems[l] = make([]uint64, limbs)
	}
	for b0 := 0; b0 < width; b0 += 64 {
		for base := 0; base < lanes; base += 64 {
			var block [64]uint64
			for b := b0; b < b0+64 && b < width && b < len(rows); b++ {
				if base/64 < len(rows[b]) {
					block[b-b0] = rows[b][base/64]
				}
			}
			Transpose64(&block)
			for i := 0; i < 64 && base+i < lanes; i++ {
				elems[base+i][b0/64] = block[i]
			}
		}
	}
	return elems
}

func dirtyRows(n, words int) [][]uint64 {
	rows := make([][]uint64, n)
	for b := range rows {
		rows[b] = make([]uint64, words)
		for i := range rows[b] {
			rows[b][i] = 0xdeadbeefdeadbeef
		}
	}
	return rows
}

func rowsEqual(t *testing.T, what string, width, lanes int, got, want [][]uint64) {
	t.Helper()
	for b := range want {
		for i := range want[b] {
			if got[b][i] != want[b][i] {
				t.Fatalf("%s w=%d lanes=%d: row %d word %d = %#x, want %#x", what, width, lanes, b, i, got[b][i], want[b][i])
			}
		}
	}
}

// TestEntryPointsMatchTranspose64Reference drives every entry point over
// widths 1..130 x lanes {1, 63, 64, 65, 128, 1000} against the
// Transpose64-only reference: unmasked element bits above the width,
// elements with short and nil limb slices, dirty destination buffers, rows
// that are short, nil or missing, garbage in the rows' tail lanes.
func TestEntryPointsMatchTranspose64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for width := 1; width <= 130; width++ {
		for _, lanes := range []int{1, 63, 64, 65, 128, 1000} {
			limbs := (width + 63) / 64
			words := Words(lanes)
			tailMask := ^uint64(0)
			if r := lanes % 64; r != 0 {
				tailMask = uint64(1)<<uint(r) - 1
			}

			// Scatter. Elements carry garbage above the width; a few are
			// short by a limb or nil and read as zero there.
			elems := make([][]uint64, lanes)
			for l := range elems {
				elems[l] = make([]uint64, limbs)
				for j := range elems[l] {
					elems[l][j] = rng.Uint64()
				}
				switch rng.Intn(8) {
				case 0:
					elems[l] = elems[l][:limbs-1]
				case 1:
					elems[l] = nil
				}
			}
			want := refScatter(elems, width, lanes)
			for b := range want {
				if want[b][words-1]&^tailMask != 0 {
					t.Fatalf("reference leaves tail lanes set (w=%d lanes=%d)", width, lanes)
				}
			}
			rowsEqual(t, "ToVerticalWide", width, lanes, ToVerticalWide(elems, width, lanes), want)
			dst := dirtyRows(width, words)
			ToVerticalWideInto(dst, 0, elems, width, lanes)
			rowsEqual(t, "ToVerticalWideInto", width, lanes, dst, want)

			if width <= 64 {
				flat := make([]uint64, lanes)
				for l, e := range elems {
					if len(e) > 0 {
						flat[l] = e[0]
					}
				}
				rowsEqual(t, "ToVertical", width, lanes, ToVertical(flat, width, lanes), want)
				const off = 2
				dst := dirtyRows(width, off+words+1)
				ToVerticalInto(dst, off, flat, width, lanes)
				for b := range dst {
					if dst[b][0] != 0xdeadbeefdeadbeef || dst[b][1] != 0xdeadbeefdeadbeef || dst[b][off+words] != 0xdeadbeefdeadbeef {
						t.Fatalf("ToVerticalInto w=%d lanes=%d: row %d written outside its span", width, lanes, b)
					}
					dst[b] = dst[b][off : off+words]
				}
				rowsEqual(t, "ToVerticalInto", width, lanes, dst, want)
			}

			// Gather. Rows are random in every bit, tail lanes included;
			// some are short by a word or nil, and the slice may stop
			// before the width: all of that reads as zero.
			rows := make([][]uint64, width-rng.Intn(2)*rng.Intn(width))
			for b := range rows {
				rows[b] = make([]uint64, words)
				for i := range rows[b] {
					rows[b][i] = rng.Uint64()
				}
				switch rng.Intn(8) {
				case 0:
					rows[b] = rows[b][:words-1]
				case 1:
					rows[b] = nil
				}
			}
			wantElems := refGather(rows, width, lanes)
			rowsEqual(t, "FromVerticalWide", width, lanes, FromVerticalWide(rows, width, lanes), wantElems)
			backing := make([]uint64, lanes*limbs)
			for i := range backing {
				backing[i] = 0xdeadbeefdeadbeef
			}
			got := make([][]uint64, lanes)
			FromVerticalWideInto(got, backing, rows, width, lanes)
			rowsEqual(t, "FromVerticalWideInto", width, lanes, got, wantElems)
			if width <= 64 {
				flat := FromVertical(rows, width, lanes)
				for l := range wantElems {
					if flat[l] != wantElems[l][0] {
						t.Fatalf("FromVertical w=%d lanes=%d: lane %d = %#x, want %#x", width, lanes, l, flat[l], wantElems[l][0])
					}
				}
			}
		}
	}
}
