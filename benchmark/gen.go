package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"chopper"
)

// Every generated input, schedule and fault stream derives from the run's
// -seed through streamSeed, keyed by what the stream is for. A stream
// therefore does not depend on the order streams are drawn in, and the
// program under test only ever sees the generated values.

// streamSeed mixes the run seed with a stream name (FNV-1a, then the
// splitmix64 finalizer so neighbouring seeds decorrelate).
func streamSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	z := uint64(seed)*0x9e3779b97f4a7c15 + h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func streamRand(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, stream)))
}

// wide is an operand set in the library's wide layout: per operand, one
// little-endian limb slice per lane.
type wide = map[string][][]uint64

// genWide draws width-masked random operands for every input, one value
// per lane. Limbs of one operand share a backing array, so a 16 384-lane
// operand is two allocations, not 16 385.
func genWide(rng *rand.Rand, inputs []chopper.IOSpec, lanes int) wide {
	out := make(wide, len(inputs))
	for _, in := range inputs {
		limbs := (in.Width + 63) / 64
		backing := make([]uint64, lanes*limbs)
		vals := make([][]uint64, lanes)
		for l := range vals {
			v := backing[l*limbs : (l+1)*limbs : (l+1)*limbs]
			for i := range v {
				v[i] = rng.Uint64()
			}
			if r := in.Width % 64; r != 0 {
				v[limbs-1] &= uint64(1)<<uint(r) - 1
			}
			vals[l] = v
		}
		out[in.Name] = vals
	}
	return out
}

// narrowSlice returns lanes [lo, hi) of a wide operand set whose operands
// are all at most 64 bits, one value per lane (the Kernel.Run layout).
func narrowSlice(w wide, lo, hi int) map[string][]uint64 {
	out := make(map[string][]uint64, len(w))
	for name, vals := range w {
		v := make([]uint64, hi-lo)
		for l := range v {
			v[l] = vals[lo+l][0]
		}
		out[name] = v
	}
	return out
}

// genSchedule draws the arrival schedule of an open loop: a Poisson
// process at ratePerSec over d, conditioned on its expected count, which
// is that many independent uniform arrival times, sorted. Every run thus
// offers the same number of requests, with seeded Poisson gaps, and the
// schedule is fixed before the run starts, so a slow system is offered
// exactly the load a fast one is.
func genSchedule(rng *rand.Rand, ratePerSec float64, d time.Duration) []time.Duration {
	due := make([]time.Duration, int(math.Round(ratePerSec*d.Seconds())))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}
