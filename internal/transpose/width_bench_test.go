package transpose

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchWidths are the operand widths the width sub-benchmarks run at: the
// one-bit outputs of WTC-64 and DiffGen-64, their 4- and 10-bit inputs, the
// 8- and 16-bit service operands, and a full limb (SW-64).
var benchWidths = []int{1, 4, 8, 10, 16, 32, 64}

// benchLanes is one tiled_16 tile: 1024 lanes, 16 blocks.
const benchLanes = 1024

// BenchmarkGatherWidth gathers one tile of `width`-bit elements out of
// their bit-rows per iteration, through the entry point the tiled runner
// uses.
func BenchmarkGatherWidth(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			rows := ToVerticalWide(randWide(rand.New(rand.NewSource(1)), width, benchLanes), width, benchLanes)
			dst := make([][]uint64, benchLanes)
			backing := make([]uint64, benchLanes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FromVerticalWideInto(dst, backing, rows, width, benchLanes)
			}
		})
	}
}

// BenchmarkScatterWidth is the opposite direction: one tile of elements
// into recycled bit-rows per iteration.
func BenchmarkScatterWidth(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			elems := randWide(rand.New(rand.NewSource(1)), width, benchLanes)
			rows := ToVerticalWide(elems, width, benchLanes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ToVerticalWideInto(rows, 0, elems, width, benchLanes)
			}
		})
	}
}
