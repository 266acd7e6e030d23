package chopper

import (
	"fmt"
	"math/big"

	"chopper/internal/dfg"
)

// Builder constructs kernels programmatically, without DSL source — the
// integration surface Section VI-C of the paper envisions, where dataflow
// systems hand sub-graphs straight to the PUD compiler.
//
//	b := chopper.NewBuilder()
//	a := b.Input("a", 8)
//	c := b.Add(a, b.Const(42, 8))
//	b.Output("z", c)
//	k, err := b.Compile(chopper.Options{Target: chopper.Ambit})
//
// Width rules match the language: binary operations take equal-width
// operands (use Resize to convert); comparisons yield 1-bit values; all
// arithmetic is modular. Errors accumulate and surface at Compile, so
// construction code needs no per-call error handling.
type Builder struct {
	g    dfg.Graph
	errs []error
}

// Value is a handle to a dataflow value under construction.
type Value struct {
	id    dfg.ValueID
	width int
}

// Width returns the value's bit width.
func (v Value) Width() int { return v.width }

// NewBuilder creates an empty builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) errf(format string, args ...interface{}) Value {
	b.errs = append(b.errs, fmt.Errorf("builder: "+format, args...))
	// Return a placeholder so construction can continue; Compile fails.
	return Value{id: 0, width: 1}
}

func (b *Builder) add(v dfg.Value) Value {
	id := dfg.ValueID(len(b.g.Values))
	b.g.Values = append(b.g.Values, v)
	return Value{id: id, width: v.Width}
}

// Input declares a named input of the given width.
func (b *Builder) Input(name string, width int) Value {
	if width < 1 || width > 2048 {
		return b.errf("input %q has width %d", name, width)
	}
	for _, in := range b.g.Inputs {
		if b.g.Values[in].Name == name {
			return b.errf("duplicate input %q", name)
		}
	}
	v := b.add(dfg.Value{Kind: dfg.OpInput, Width: width, Name: name})
	b.g.Inputs = append(b.g.Inputs, v.id)
	return v
}

// Const builds a width-bit constant from the low bits of c.
func (b *Builder) Const(c uint64, width int) Value {
	return b.ConstBig(new(big.Int).SetUint64(c), width)
}

// ConstBig builds a constant of arbitrary width.
func (b *Builder) ConstBig(c *big.Int, width int) Value {
	if width < 1 || width > 2048 {
		return b.errf("constant width %d out of range", width)
	}
	if c.Sign() < 0 || c.BitLen() > width {
		return b.errf("constant %v does not fit in %d bits", c, width)
	}
	return b.add(dfg.Value{Kind: dfg.OpConst, Width: width, Imm: new(big.Int).Set(c)})
}

func (b *Builder) check(v Value) bool {
	return int(v.id) < len(b.g.Values)
}

func (b *Builder) binary(kind dfg.OpKind, x, y Value, resultWidth int) Value {
	if !b.check(x) || !b.check(y) {
		return b.errf("%s over invalid values", kind)
	}
	if x.width != y.width {
		return b.errf("%s operand widths differ (%d vs %d); use Resize", kind, x.width, y.width)
	}
	return b.add(dfg.Value{Kind: kind, Width: resultWidth, Args: []dfg.ValueID{x.id, y.id}})
}

// Arithmetic and bitwise operations (modular, equal widths).
func (b *Builder) Add(x, y Value) Value { return b.binary(dfg.OpAdd, x, y, x.width) }

// Sub returns x - y.
func (b *Builder) Sub(x, y Value) Value { return b.binary(dfg.OpSub, x, y, x.width) }

// Mul returns x * y modulo 2^width.
func (b *Builder) Mul(x, y Value) Value { return b.binary(dfg.OpMul, x, y, x.width) }

// And, Or, Xor are bitwise.
func (b *Builder) And(x, y Value) Value { return b.binary(dfg.OpAnd, x, y, x.width) }

// Or returns x | y.
func (b *Builder) Or(x, y Value) Value { return b.binary(dfg.OpOr, x, y, x.width) }

// Xor returns x ^ y.
func (b *Builder) Xor(x, y Value) Value { return b.binary(dfg.OpXor, x, y, x.width) }

// Not returns ^x; Neg returns -x.
func (b *Builder) Not(x Value) Value {
	if !b.check(x) {
		return b.errf("Not over invalid value")
	}
	return b.add(dfg.Value{Kind: dfg.OpNot, Width: x.width, Args: []dfg.ValueID{x.id}})
}

// Neg returns the two's-complement negation.
func (b *Builder) Neg(x Value) Value {
	if !b.check(x) {
		return b.errf("Neg over invalid value")
	}
	return b.add(dfg.Value{Kind: dfg.OpNeg, Width: x.width, Args: []dfg.ValueID{x.id}})
}

// Shl and Shr shift by a constant amount.
func (b *Builder) Shl(x Value, k int) Value { return b.shift(dfg.OpShl, x, k) }

// Shr is the logical right shift.
func (b *Builder) Shr(x Value, k int) Value { return b.shift(dfg.OpShr, x, k) }

func (b *Builder) shift(kind dfg.OpKind, x Value, k int) Value {
	if !b.check(x) || k < 0 {
		return b.errf("bad shift")
	}
	return b.add(dfg.Value{Kind: kind, Width: x.width, Args: []dfg.ValueID{x.id}, Imm: big.NewInt(int64(k))})
}

// Comparisons (unsigned unless suffixed S) yield 1-bit values.
func (b *Builder) Eq(x, y Value) Value  { return b.binary(dfg.OpEq, x, y, 1) }
func (b *Builder) Ne(x, y Value) Value  { return b.binary(dfg.OpNe, x, y, 1) }
func (b *Builder) Lt(x, y Value) Value  { return b.binary(dfg.OpLtU, x, y, 1) }
func (b *Builder) Gt(x, y Value) Value  { return b.binary(dfg.OpGtU, x, y, 1) }
func (b *Builder) Le(x, y Value) Value  { return b.binary(dfg.OpLeU, x, y, 1) }
func (b *Builder) Ge(x, y Value) Value  { return b.binary(dfg.OpGeU, x, y, 1) }
func (b *Builder) LtS(x, y Value) Value { return b.binary(dfg.OpLtS, x, y, 1) }
func (b *Builder) GeS(x, y Value) Value { return b.binary(dfg.OpGeS, x, y, 1) }

// Mux returns c ? t : f (c must be 1 bit wide).
func (b *Builder) Mux(c, t, f Value) Value {
	if !b.check(c) || !b.check(t) || !b.check(f) {
		return b.errf("Mux over invalid values")
	}
	if c.width != 1 {
		return b.errf("Mux condition is %d bits wide, want 1", c.width)
	}
	if t.width != f.width {
		return b.errf("Mux arm widths differ (%d vs %d)", t.width, f.width)
	}
	return b.add(dfg.Value{Kind: dfg.OpMux, Width: t.width, Args: []dfg.ValueID{c.id, t.id, f.id}})
}

// Min, Max, AbsDiff over unsigned operands.
func (b *Builder) Min(x, y Value) Value     { return b.binary(dfg.OpMin, x, y, x.width) }
func (b *Builder) Max(x, y Value) Value     { return b.binary(dfg.OpMax, x, y, x.width) }
func (b *Builder) AbsDiff(x, y Value) Value { return b.binary(dfg.OpAbsDiff, x, y, x.width) }

// Div and Mod are unsigned division and remainder (division by zero
// yields all-ones / the dividend).
func (b *Builder) Div(x, y Value) Value { return b.binary(dfg.OpDivU, x, y, x.width) }

// Mod returns x %% y.
func (b *Builder) Mod(x, y Value) Value { return b.binary(dfg.OpModU, x, y, x.width) }

// PopCount returns the number of set bits (result width = operand width).
func (b *Builder) PopCount(x Value) Value {
	if !b.check(x) {
		return b.errf("PopCount over invalid value")
	}
	return b.add(dfg.Value{Kind: dfg.OpPopCount, Width: x.width, Args: []dfg.ValueID{x.id}})
}

// Resize zero-extends or truncates to width bits.
func (b *Builder) Resize(x Value, width int) Value {
	if !b.check(x) || width < 1 || width > 2048 {
		return b.errf("bad Resize to %d bits", width)
	}
	return b.add(dfg.Value{Kind: dfg.OpResize, Width: width, Args: []dfg.ValueID{x.id}})
}

// Output registers v as a named kernel output.
func (b *Builder) Output(name string, v Value) {
	if !b.check(v) {
		b.errf("output %q of invalid value", name)
		return
	}
	for _, n := range b.g.OutputNames {
		if n == name {
			b.errf("duplicate output %q", name)
			return
		}
	}
	b.g.Outputs = append(b.g.Outputs, v.id)
	b.g.OutputNames = append(b.g.OutputNames, name)
}

// Err returns the first construction error (nil if none).
func (b *Builder) Err() error {
	if len(b.errs) == 0 {
		return nil
	}
	return b.errs[0]
}

// graph finalizes the graph under construction: what the compile driver
// builds a Builder's kernel from. Its failures are graph-construction
// failures, which the driver classes ErrNormalize.
func (b *Builder) graph() (*dfg.Graph, error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	if len(b.g.Outputs) == 0 {
		return nil, fmt.Errorf("builder: no outputs")
	}
	g := b.g
	return &g, g.Validate()
}

// Compile finalizes the graph and compiles it.
func (b *Builder) Compile(opts Options) (*Kernel, error) {
	return kernelOf(compile(nil, pipeChopper, "", b.graph, opts))
}

// CompileBaseline compiles the graph with the hands-tuned methodology.
func (b *Builder) CompileBaseline(opts Options) (*Kernel, error) {
	return kernelOf(compile(nil, pipeBaseline, "", b.graph, opts))
}
