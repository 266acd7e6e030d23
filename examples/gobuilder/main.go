// Go-builder: construct a kernel programmatically (no DSL source) and run
// it over a dataset larger than one subarray, tiled across banks — the
// integration path a dataflow framework would use (paper Section VI-C).
//
// The kernel is a saturating brightness adjustment over 8-bit pixels:
// out = min(255, pixel + gain) when enabled, else pixel.
//
// Run with: go run ./examples/gobuilder
package main

import (
	"context"
	"fmt"
	"log"

	chopper "chopper"
	"chopper/internal/dram"
)

func main() {
	b := chopper.NewBuilder()
	pix := b.Input("pix", 8)
	en := b.Input("en", 1)

	gain := b.Const(48, 8)
	wide := b.Add(b.Resize(pix, 9), b.Resize(gain, 9)) // 9-bit headroom
	sat := b.Mux(b.Gt(wide, b.Const(255, 9)), b.Const(255, 9), wide)
	b.Output("out", b.Mux(en, b.Resize(sat, 8), pix))

	// A small simulated device keeps the demo quick: 64-lane subarrays.
	geom := dram.Geometry{Banks: 8, SubarraysPB: 8, RowsPerSub: 256, RowBytes: 8, ReservedRows: 18}
	k, err := b.Compile(chopper.Options{Target: chopper.SIMDRAM, Geometry: geom})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d micro-ops, %d D rows\n", len(k.Prog().Ops), k.Prog().DRowsUsed)

	// A 1000-pixel "image": a ramp, with every third pixel's adjustment
	// disabled.
	lanes := 1000
	pixels := make([][]uint64, lanes)
	enables := make([][]uint64, lanes)
	for i := range pixels {
		pixels[i] = []uint64{uint64(i) % 256}
		enables[i] = []uint64{uint64(1 - i%3%2)} // pattern of 1,0,1,1,0,1...
	}

	res, err := k.RunTiledCtx(context.Background(), map[string][][]uint64{"pix": pixels, "en": enables}, lanes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processed %d pixels across %d tiles in %.1f us (simulated)\n",
		lanes, res.Tiles, res.TimeNs/1000)

	fmt.Println("\npixel  enable  ->  out")
	for _, i := range []int{0, 1, 2, 200, 230, 254, 255, 999} {
		fmt.Printf("%5d  %6d  -> %4d\n", pixels[i][0], enables[i][0], res.Outputs["out"][i][0])
	}
}
