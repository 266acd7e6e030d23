// Package bitslice implements CHOPPER's bit-slicing lowering: the multi-bit
// dataflow graph is transformed into a net of 1-bit logic gates — the
// "SIMD-Within-A-Register"-style code that Bit-serial SIMD PUD architectures
// execute. Each dataflow value of width W becomes W net nodes; arithmetic is
// synthesized by the logic package's gate-level library.
//
// Bit-slicing is what breaks the granularity mismatch the paper identifies:
// after this pass the compiler reasons about individual bitslices, so
// OBS-1/2/3 can schedule, reuse, and rename at 1-bit granularity instead of
// full operand size.
package bitslice

import (
	"errors"
	"fmt"
	"math/big"

	"chopper/internal/dfg"
	"chopper/internal/logic"
)

// Options configure the lowering.
type Options struct {
	// Fold enables bit-level constant folding during lowering (the
	// builder-side half of OBS-2). Off in the CHOPPER-bitslice baseline
	// variant.
	Fold bool
	// Workers is accepted and ignored: lowering is serial. The field
	// remains only because the repo benchmark's staged mirror
	// (benchmark/staged.go) sets it and a change that claims a gain may not
	// edit the benchmark; the next benchmark-only change should drop the
	// assignment, and this field with it.
	Workers int
}

// ErrInvalidNet marks a Lower failure that is the lowering's own fault:
// the net it built failed logic.Net.Validate. Callers with a fallback
// pipeline treat it as a failed self-check, not as a bad input.
var ErrInvalidNet = errors.New("bitslice: lowered net failed validation")

// Lower converts a dataflow graph into a logic net. Input value "x" of
// width W produces net inputs "x[0].."x[W-1]"; outputs likewise.
func Lower(g *dfg.Graph, opts Options) (*logic.Net, error) {
	return LowerOn(new(logic.Scratch), g, opts)
}

// LowerOn is Lower on a caller-kept scratch. The result lives in the
// scratch (logic.Scratch.DCETemp): it is valid until the scratch sweeps
// another temporary net, which is long enough to legalize it.
func LowerOn(s *logic.Scratch, g *dfg.Graph, opts Options) (*logic.Net, error) {
	b := s.Builder(logic.BuilderOptions{Fold: opts.Fold, CSE: true})
	// Size the interning table to the net about to be built. The Table-II
	// kernels build 0.8 to 3.1 gates per bit of value width; at 3/2 the
	// table lands between a quarter and three fifths full on all of them
	// with no rehash, and a multiplier-heavy graph that outgrows the
	// estimate rehashes in place.
	bitsTotal := 0
	for i := range g.Values {
		bitsTotal += g.Values[i].Width
	}
	b.Grow(bitsTotal * 3 / 2)
	words := make([]logic.Word, len(g.Values))
	for i := range g.Values {
		if err := synthValue(b, g, words, i); err != nil {
			return nil, err
		}
	}
	for i, o := range g.Outputs {
		b.OutputWord(g.OutputNames[i], words[o])
	}
	n := b.Net()
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidNet, err)
	}
	return s.DCETemp(n), nil
}

// synthValue lowers value i into gates, leaving its bit vector in
// words[i]. Arguments must already be lowered (values are topologically
// ordered).
func synthValue(b *logic.Builder, g *dfg.Graph, words []logic.Word, i int) error {
	v := &g.Values[i]
	arg := func(j int) logic.Word { return words[v.Args[j]] }
	// resize adapts an argument to this value's width (the checker
	// guarantees equal widths for most ops; comparisons and resize
	// change widths explicitly).
	switch v.Kind {
	case dfg.OpInput:
		words[i] = b.InputWord(v.Name, v.Width)
	case dfg.OpConst:
		words[i] = constWord(b, v.Imm, v.Width)
	case dfg.OpAdd:
		words[i] = b.Add(arg(0), arg(1))
	case dfg.OpSub:
		words[i] = b.Sub(arg(0), arg(1))
	case dfg.OpMul:
		words[i] = b.Mul(arg(0), arg(1), v.Width)
	case dfg.OpAnd:
		words[i] = b.BitwiseAnd(arg(0), arg(1))
	case dfg.OpOr:
		words[i] = b.BitwiseOr(arg(0), arg(1))
	case dfg.OpXor:
		words[i] = b.BitwiseXor(arg(0), arg(1))
	case dfg.OpNot:
		words[i] = b.BitwiseNot(arg(0))
	case dfg.OpNeg:
		words[i] = b.Neg(arg(0))
	case dfg.OpShl:
		words[i] = b.ShiftLeft(arg(0), int(v.Imm.Int64()))
	case dfg.OpShr:
		words[i] = b.ShiftRight(arg(0), int(v.Imm.Int64()), false)
	case dfg.OpShlV:
		words[i] = b.ShiftLeftDyn(arg(0), arg(1))
	case dfg.OpShrV:
		words[i] = b.ShiftRightDyn(arg(0), arg(1))
	case dfg.OpSra:
		words[i] = b.ShiftRight(arg(0), int(v.Imm.Int64()), true)
	case dfg.OpSraV:
		words[i] = b.ShiftRightArithDyn(arg(0), arg(1))
	case dfg.OpDivU:
		q, _ := b.DivMod(arg(0), arg(1))
		words[i] = q
	case dfg.OpModU:
		_, r := b.DivMod(arg(0), arg(1))
		words[i] = r
	case dfg.OpEq:
		words[i] = logic.Word{b.Eq(arg(0), arg(1))}
	case dfg.OpNe:
		words[i] = logic.Word{b.Ne(arg(0), arg(1))}
	case dfg.OpLtU:
		words[i] = logic.Word{b.LtU(arg(0), arg(1))}
	case dfg.OpGtU:
		words[i] = logic.Word{b.GtU(arg(0), arg(1))}
	case dfg.OpLeU:
		words[i] = logic.Word{b.LeU(arg(0), arg(1))}
	case dfg.OpGeU:
		words[i] = logic.Word{b.GeU(arg(0), arg(1))}
	case dfg.OpLtS:
		words[i] = logic.Word{b.LtS(arg(0), arg(1))}
	case dfg.OpGtS:
		words[i] = logic.Word{b.LtS(arg(1), arg(0))}
	case dfg.OpLeS:
		words[i] = logic.Word{b.Not(b.LtS(arg(1), arg(0)))}
	case dfg.OpGeS:
		words[i] = logic.Word{b.Not(b.LtS(arg(0), arg(1)))}
	case dfg.OpMux:
		c := arg(0)
		if len(c) != 1 {
			return fmt.Errorf("bitslice: mux condition is %d bits wide", len(c))
		}
		words[i] = b.MuxWord(c[0], arg(1), arg(2))
	case dfg.OpMin:
		words[i] = b.MinU(arg(0), arg(1))
	case dfg.OpMax:
		words[i] = b.MaxU(arg(0), arg(1))
	case dfg.OpAbsDiff:
		words[i] = b.AbsDiff(arg(0), arg(1))
	case dfg.OpPopCount:
		pc := b.PopCount(arg(0))
		words[i] = b.Extend(pc, v.Width, false)
	case dfg.OpResize:
		words[i] = b.Extend(arg(0), v.Width, false)
	default:
		return fmt.Errorf("bitslice: unsupported dataflow op %s", v.Kind)
	}
	if len(words[i]) != v.Width {
		// Comparisons yield 1 bit; everything else must match.
		if len(words[i]) == 1 && v.Width == 1 {
			// fine
		} else if len(words[i]) > v.Width {
			words[i] = words[i][:v.Width]
		} else {
			words[i] = b.Extend(words[i], v.Width, false)
		}
	}
	return nil
}

func constWord(b *logic.Builder, v *big.Int, w int) logic.Word {
	word := make(logic.Word, w)
	for i := 0; i < w; i++ {
		word[i] = b.Const(v.Bit(i) == 1)
	}
	return word
}
