package baseline

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"chopper/internal/codegen"
	"chopper/internal/dfg"
	"chopper/internal/isa"
)

// routineKinds is every operation kind Generate expands through a routine
// (shifts by a constant and resizes are rewired row by row instead).
var routineKinds = []dfg.OpKind{
	dfg.OpAdd, dfg.OpSub, dfg.OpMul, dfg.OpAnd, dfg.OpOr, dfg.OpXor, dfg.OpNot, dfg.OpNeg,
	dfg.OpEq, dfg.OpNe, dfg.OpLtU, dfg.OpGtU, dfg.OpLeU, dfg.OpGeU, dfg.OpMux, dfg.OpMin,
	dfg.OpMax, dfg.OpAbsDiff, dfg.OpPopCount, dfg.OpLtS, dfg.OpLeS, dfg.OpGtS, dfg.OpGeS,
	dfg.OpShlV, dfg.OpShrV, dfg.OpDivU, dfg.OpModU, dfg.OpSra, dfg.OpSraV,
}

// routineShape gives an operation of kind at width w its operand widths,
// result width and Imm, shaped as the type checker shapes them; aux picks
// what the kind leaves open (a popcount's result width, a variable shift's
// amount width, an Sra's constant shift).
func routineShape(kind dfg.OpKind, w, aux int) (argW []int, width int, imm *big.Int) {
	switch kind {
	case dfg.OpNot, dfg.OpNeg:
		return []int{w}, w, nil
	case dfg.OpSra:
		return []int{w}, w, big.NewInt(int64(aux % (w + 1)))
	case dfg.OpPopCount:
		return []int{w}, 1 + aux%16, nil
	case dfg.OpMux:
		return []int{1, w, w}, w, nil
	case dfg.OpShlV, dfg.OpShrV, dfg.OpSraV:
		return []int{w, 1 + aux%5}, w, nil
	case dfg.OpEq, dfg.OpNe, dfg.OpLtU, dfg.OpGtU, dfg.OpLeU, dfg.OpGeU,
		dfg.OpLtS, dfg.OpLeS, dfg.OpGtS, dfg.OpGeS:
		return []int{w, w}, 1, nil
	}
	return []int{w, w}, w, nil
}

// FuzzRoutineRelocation holds a routine synthesized on placeholders and
// relocated to a binding against codegen run directly on that binding, the
// way every instance was generated before routines were shared. A case is
// one operation of any routine kind at width 1–16 (k, w, aux) under a drawn
// binding: each operand and the result on distinct rows, or spilled to
// arbitrary slots (spill: bit i is operand i, bit 3 the result); a repeated
// operand as in a + a (alias bit 0: the last two operands are one value); a
// result where an operand of its width lives (alias bit 1); any slot base;
// and a scratch pool of 8–48 rows, so routines also spill their own
// temporaries. Relocated and direct must agree on the ops, the next free
// slot and the stats, or fail with the same error text.
func FuzzRoutineRelocation(f *testing.F) {
	// k, w, aux, spill, alias, arch, scratch, slot base, seed
	f.Add(uint8(0), uint8(7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(24), uint16(0), int64(1))   // add8, resident
	f.Add(uint8(14), uint8(7), uint8(0), uint8(1), uint8(1), uint8(0), uint8(0), uint16(40), int64(2))  // mux(c, a, a), c spilled
	f.Add(uint8(27), uint8(11), uint8(5), uint8(8), uint8(2), uint8(1), uint8(8), uint16(7), int64(3))  // sra12 by 5 into its operand's rows
	f.Add(uint8(2), uint8(15), uint8(0), uint8(3), uint8(0), uint8(0), uint8(0), uint16(100), int64(4)) // mul16 in 8 rows, operands spilled
	f.Add(uint8(25), uint8(9), uint8(0), uint8(15), uint8(0), uint8(2), uint8(1), uint16(0), int64(5))  // divu10, all spilled above the base
	f.Add(uint8(18), uint8(15), uint8(4), uint8(8), uint8(0), uint8(2), uint8(40), uint16(3), int64(6)) // popcount16 into 5 spilled bits
	f.Add(uint8(19), uint8(15), uint8(0), uint8(0), uint8(1), uint8(1), uint8(4), uint16(9), int64(7))  // lts(a, a)
	f.Add(uint8(28), uint8(7), uint8(2), uint8(2), uint8(0), uint8(0), uint8(2), uint16(55), int64(8))  // srav8 by a spilled 3-bit amount
	f.Add(uint8(17), uint8(15), uint8(0), uint8(0), uint8(2), uint8(2), uint8(0), uint16(0), int64(9))  // absdiff16 over its first operand
	f.Add(uint8(1), uint8(0), uint8(0), uint8(9), uint8(3), uint8(1), uint8(0), uint16(1), int64(10))   // sub1: a - a into a's slot
	f.Fuzz(func(t *testing.T, k, w, aux, spill, alias, arch, scr uint8, slotBase uint16, seed int64) {
		kind := routineKinds[int(k)%len(routineKinds)]
		argW, width, imm := routineShape(kind, 1+int(w)%16, int(aux))
		rng := rand.New(rand.NewSource(seed))

		// One value per operand, then the result.
		widths := append(slices.Clone(argW), width)
		bits := 0
		for _, vw := range widths {
			bits += vw
		}
		poolRows := bits + rng.Intn(256)
		free := rng.Perm(poolRows)
		vals := make([][]codegen.ExtLoc, len(widths))
		for i, vw := range widths {
			loc := make([]codegen.ExtLoc, vw)
			for b := range loc {
				if spill>>i&1 != 0 {
					loc[b] = codegen.ExtLoc{Slot: rng.Intn(4096), Spilled: true}
				} else {
					loc[b] = codegen.ExtLoc{Row: isa.Row(free[0])}
					free = free[1:]
				}
			}
			vals[i] = loc
		}
		if last := len(argW) - 1; alias&1 != 0 && last > 0 && argW[last] == argW[last-1] {
			vals[last] = vals[last-1]
		}
		if alias&2 != 0 {
			for i, aw := range argW {
				if aw == width {
					vals[len(argW)] = vals[i]
					break
				}
			}
		}
		var bind []codegen.ExtLoc
		for _, loc := range vals {
			bind = append(bind, loc...)
		}

		a := isa.AllArchs[int(arch)%len(isa.AllArchs)]
		scratch := 8 + int(scr)%41
		v := &dfg.Value{Kind: kind, Width: width, Imm: imm, Args: make([]dfg.ValueID, len(argW))}
		name := fmt.Sprintf("%s %v→%d on %v in %d scratch rows", kind, argW, width, a, scratch)
		var ws opScratch
		want, wantErr := synth(&ws, 1, v, argW, bind, a, scratch, poolRows, int(slotBase))
		r, err := newRoutine(&ws, 1, v, argW, bind, a, scratch)
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: routine error %v, direct error %v", name, err, wantErr)
			}
			return
		}
		got, next := r.relocate(nil, bind, poolRows, int(slotBase))
		if !slices.Equal(got, want.Prog.Ops) {
			i := 0
			for i < len(got) && i < len(want.Prog.Ops) && got[i] == want.Prog.Ops[i] {
				i++
			}
			t.Fatalf("%s: the relocated routine (%d ops) departs from the direct one (%d ops) at op %d", name, len(got), len(want.Prog.Ops), i)
		}
		if next != want.NextSlot || r.stats != want.Stats {
			t.Fatalf("%s: next slot %d, stats %+v; direct %d, %+v", name, next, r.stats, want.NextSlot, want.Stats)
		}
	})
}
