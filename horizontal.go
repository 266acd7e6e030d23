package chopper

import (
	"fmt"
	"math/big"

	"chopper/internal/dfg"
)

// CompileHorizontal compiles a purely bitwise kernel for the horizontal
// (bit-parallel) data layout: each operand occupies ONE DRAM row with its
// elements packed side by side, and every micro-op processes all of them
// at once. No transposition is needed — this is the layout generalization
// the paper's Section VI discusses for extending CHOPPER to other
// processing-using-memory substrates.
//
// The trade-off is fundamental to the hardware: bitlines cannot propagate
// carries, so only position-wise operations compile in this layout —
// AND, OR, XOR, NOT (and whatever folds into them). Arithmetic,
// comparisons, shifts, and multiplexing require the vertical (bit-serial)
// layout and are rejected with an explanatory error.
//
// The returned kernel's interface has one 1-bit "lane" per packed data
// bit: running it over `lanes` lanes processes lanes bits of each operand
// (lanes/width elements).
//
// Past the layout conversion this is Compile's back end, so everything
// that applies there applies here: Options.Harden, every Options.Budget
// dimension, the @noreuse annotation and the degradation ladder, with
// failures classed by stage and internal panics surfacing as ErrInternal.
func CompileHorizontal(src string, opts Options) (*Kernel, error) {
	return kernelOf(compile(nil, pipeHorizontal, src, nil, opts))
}

// horizontalGraph converts a bitwise dataflow graph into its width-1
// equivalent: each operand becomes a single "bit" whose row carries the
// packed elements. Non-positionwise operations are rejected.
func horizontalGraph(g *dfg.Graph) (*dfg.Graph, error) {
	out := &dfg.Graph{}
	for i := range g.Values {
		v := g.Values[i]
		switch v.Kind {
		case dfg.OpInput, dfg.OpAnd, dfg.OpOr, dfg.OpXor, dfg.OpNot:
			// Position-wise: legal in the horizontal layout.
		case dfg.OpConst:
			// A constant row is representable only when uniform across
			// bit positions (all zeros or all ones): anything else would
			// need per-position values, i.e. the vertical layout.
			w := v.Width
			allOnes := true
			for b := 0; b < w; b++ {
				if v.Imm.Bit(b) == 0 {
					allOnes = false
					break
				}
			}
			if v.Imm.Sign() != 0 && !allOnes {
				return nil, fmt.Errorf("chopper: constant %v is not uniform; the horizontal layout only holds all-0/all-1 constants", v.Imm)
			}
		default:
			return nil, fmt.Errorf("chopper: operation %s needs carries or per-bit wiring across bitlines; it requires the vertical layout (use Compile)", v.Kind)
		}
		nv := dfg.Value{Kind: v.Kind, Width: 1, Name: v.Name}
		if v.Kind == dfg.OpConst {
			nv.Imm = v.Imm // sign carries the uniform value (0 vs nonzero)
			if v.Imm.Sign() != 0 {
				nv.Imm = bigOne
			}
		}
		for _, a := range v.Args {
			nv.Args = append(nv.Args, a)
		}
		out.Values = append(out.Values, nv)
	}
	out.Inputs = append([]dfg.ValueID(nil), g.Inputs...)
	out.Outputs = append([]dfg.ValueID(nil), g.Outputs...)
	out.OutputNames = append([]string(nil), g.OutputNames...)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

var bigOne = big.NewInt(1)
