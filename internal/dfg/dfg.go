// Package dfg normalizes a type-checked CHOPPER program into a flat
// dataflow graph: node calls are inlined, equations are scheduled by data
// dependency (with cycle detection — the "normalization and scheduling"
// phase of a synchronous dataflow compiler), and every value carries its bit
// width. The graph is the unit of whole-program analysis: the bit-slicing
// pass lowers it to a logic net, and OBS-1 draws its dependency and
// occurrence statistics from it.
package dfg

import (
	"fmt"
	"math/big"
	"slices"
	"unsafe"

	"chopper/internal/dsl"
	"chopper/internal/typecheck"
)

// OpKind enumerates dataflow operations.
type OpKind int

const (
	OpInput OpKind = iota
	OpConst
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpNot
	OpNeg
	OpShl // amount in Imm
	OpShr // amount in Imm
	OpEq
	OpNe
	OpLtU
	OpGtU
	OpLeU
	OpGeU
	OpMux // args: c, t, f
	OpMin
	OpMax
	OpAbsDiff
	OpPopCount
	OpResize // zero-extend or truncate to Width

	// Signed comparisons (two's-complement operands, u1 result).
	OpLtS
	OpLeS
	OpGtS
	OpGeS

	// Variable shifts: the amount is the second operand (barrel shifter).
	OpShlV
	OpShrV

	// Unsigned division and remainder (restoring long division). Division
	// by zero yields all-ones / the dividend (the RISC-V convention).
	OpDivU
	OpModU

	// Arithmetic (sign-filling) right shifts: constant amount in Imm, or
	// a computed amount as the second operand.
	OpSra
	OpSraV
)

var opNames = [...]string{
	"input", "const", "add", "sub", "mul", "and", "or", "xor", "not", "neg",
	"shl", "shr", "eq", "ne", "ltu", "gtu", "leu", "geu", "mux", "min", "max",
	"absdiff", "popcount", "resize", "lts", "les", "gts", "ges", "shlv", "shrv", "divu", "modu", "sra", "srav",
}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op?%d", int(k))
}

// ValueID indexes a value in the graph (topologically ordered).
type ValueID int32

// Value is one dataflow operation result.
type Value struct {
	Kind  OpKind
	Args  []ValueID
	Width int      // result width in bits
	Imm   *big.Int // constant value (OpConst) or shift amount (OpShl/OpShr)
	Name  string   // input name (OpInput)
}

// Graph is the flattened program.
type Graph struct {
	Values      []Value
	Inputs      []ValueID
	Outputs     []ValueID
	OutputNames []string
}

// NumValues returns the number of values.
func (g *Graph) NumValues() int { return len(g.Values) }

// OpCount tallies non-input, non-const operations.
func (g *Graph) OpCount() int {
	n := 0
	for i := range g.Values {
		if g.Values[i].Kind != OpInput && g.Values[i].Kind != OpConst {
			n++
		}
	}
	return n
}

// Validate checks topological order and arities.
func (g *Graph) Validate() error {
	arity := func(k OpKind) int {
		switch k {
		case OpInput, OpConst:
			return 0
		case OpNot, OpNeg, OpShl, OpShr, OpSra, OpPopCount, OpResize:
			return 1
		case OpLtS, OpLeS, OpGtS, OpGeS:
			return 2
		case OpMux:
			return 3
		default:
			return 2
		}
	}
	for i := range g.Values {
		v := &g.Values[i]
		if len(v.Args) != arity(v.Kind) {
			return fmt.Errorf("dfg: value %d (%s) has %d args, want %d", i, v.Kind, len(v.Args), arity(v.Kind))
		}
		for _, a := range v.Args {
			if a < 0 || int(a) >= i {
				return fmt.Errorf("dfg: value %d (%s) references %d out of order", i, v.Kind, a)
			}
		}
		if v.Width <= 0 {
			return fmt.Errorf("dfg: value %d (%s) has width %d", i, v.Kind, v.Width)
		}
	}
	for i, o := range g.Outputs {
		if o < 0 || int(o) >= len(g.Values) {
			return fmt.Errorf("dfg: output %d out of range", i)
		}
	}
	return nil
}

// toSigned reinterprets a width-bit unsigned value as two's complement.
func toSigned(v *big.Int, width int) *big.Int {
	if v.Bit(width-1) == 0 {
		return v
	}
	m := new(big.Int).Lsh(big.NewInt(1), uint(width))
	return new(big.Int).Sub(v, m)
}

func maskTo(v *big.Int, bits int) *big.Int {
	mask := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	mask.Sub(mask, big.NewInt(1))
	return new(big.Int).And(v, mask)
}

// Eval executes the graph on one lane of input values (arbitrary width via
// big.Int), returning the outputs by name. It is the semantic reference the
// compiled PUD programs are tested against.
func (g *Graph) Eval(inputs map[string]*big.Int) (map[string]*big.Int, error) {
	vals := make([]*big.Int, len(g.Values))
	for i := range g.Values {
		v := &g.Values[i]
		arg := func(j int) *big.Int { return vals[v.Args[j]] }
		boolInt := func(b bool) *big.Int {
			if b {
				return big.NewInt(1)
			}
			return big.NewInt(0)
		}
		switch v.Kind {
		case OpInput:
			in, ok := inputs[v.Name]
			if !ok {
				return nil, fmt.Errorf("dfg: missing input %q", v.Name)
			}
			vals[i] = maskTo(in, v.Width)
		case OpConst:
			vals[i] = maskTo(v.Imm, v.Width)
		case OpAdd:
			vals[i] = maskTo(new(big.Int).Add(arg(0), arg(1)), v.Width)
		case OpSub:
			vals[i] = maskTo(new(big.Int).Sub(arg(0), arg(1)), v.Width)
		case OpMul:
			vals[i] = maskTo(new(big.Int).Mul(arg(0), arg(1)), v.Width)
		case OpAnd:
			vals[i] = new(big.Int).And(arg(0), arg(1))
		case OpOr:
			vals[i] = new(big.Int).Or(arg(0), arg(1))
		case OpXor:
			vals[i] = new(big.Int).Xor(arg(0), arg(1))
		case OpNot:
			vals[i] = maskTo(new(big.Int).Not(arg(0)), v.Width)
		case OpNeg:
			vals[i] = maskTo(new(big.Int).Neg(arg(0)), v.Width)
		case OpShl:
			vals[i] = maskTo(new(big.Int).Lsh(arg(0), uint(v.Imm.Int64())), v.Width)
		case OpShr:
			vals[i] = new(big.Int).Rsh(arg(0), uint(v.Imm.Int64()))
		case OpEq:
			vals[i] = boolInt(arg(0).Cmp(arg(1)) == 0)
		case OpNe:
			vals[i] = boolInt(arg(0).Cmp(arg(1)) != 0)
		case OpLtU:
			vals[i] = boolInt(arg(0).Cmp(arg(1)) < 0)
		case OpGtU:
			vals[i] = boolInt(arg(0).Cmp(arg(1)) > 0)
		case OpLeU:
			vals[i] = boolInt(arg(0).Cmp(arg(1)) <= 0)
		case OpGeU:
			vals[i] = boolInt(arg(0).Cmp(arg(1)) >= 0)
		case OpMux:
			if arg(0).Sign() != 0 {
				vals[i] = arg(1)
			} else {
				vals[i] = arg(2)
			}
		case OpMin:
			if arg(0).Cmp(arg(1)) <= 0 {
				vals[i] = arg(0)
			} else {
				vals[i] = arg(1)
			}
		case OpMax:
			if arg(0).Cmp(arg(1)) >= 0 {
				vals[i] = arg(0)
			} else {
				vals[i] = arg(1)
			}
		case OpAbsDiff:
			d := new(big.Int).Sub(arg(0), arg(1))
			vals[i] = d.Abs(d)
		case OpPopCount:
			n := 0
			a := arg(0)
			for bit := 0; bit < a.BitLen(); bit++ {
				if a.Bit(bit) == 1 {
					n++
				}
			}
			vals[i] = big.NewInt(int64(n))
		case OpResize:
			vals[i] = maskTo(arg(0), v.Width)
		case OpShlV:
			amt := arg(1)
			if !amt.IsInt64() || amt.Int64() >= int64(v.Width) {
				vals[i] = big.NewInt(0)
			} else {
				vals[i] = maskTo(new(big.Int).Lsh(arg(0), uint(amt.Int64())), v.Width)
			}
		case OpShrV:
			amt := arg(1)
			if !amt.IsInt64() || amt.Int64() >= int64(v.Width) {
				vals[i] = big.NewInt(0)
			} else {
				vals[i] = new(big.Int).Rsh(arg(0), uint(amt.Int64()))
			}
		case OpSra, OpSraV:
			w := g.Values[v.Args[0]].Width
			var amt int64
			if v.Kind == OpSra {
				amt = v.Imm.Int64()
			} else {
				a := arg(1)
				if !a.IsInt64() || a.Int64() > int64(w) {
					amt = int64(w)
				} else {
					amt = a.Int64()
				}
			}
			if amt > int64(w) {
				amt = int64(w)
			}
			s := toSigned(arg(0), w)
			vals[i] = maskTo(new(big.Int).Rsh(s, uint(amt)), v.Width)
		case OpDivU:
			if arg(1).Sign() == 0 {
				m := new(big.Int).Lsh(big.NewInt(1), uint(v.Width))
				vals[i] = m.Sub(m, big.NewInt(1))
			} else {
				vals[i] = new(big.Int).Div(arg(0), arg(1))
			}
		case OpModU:
			if arg(1).Sign() == 0 {
				vals[i] = arg(0)
			} else {
				vals[i] = new(big.Int).Mod(arg(0), arg(1))
			}
		case OpLtS, OpLeS, OpGtS, OpGeS:
			w := g.Values[v.Args[0]].Width
			sa := toSigned(arg(0), w)
			sb := toSigned(arg(1), w)
			cmp := sa.Cmp(sb)
			var b bool
			switch v.Kind {
			case OpLtS:
				b = cmp < 0
			case OpLeS:
				b = cmp <= 0
			case OpGtS:
				b = cmp > 0
			case OpGeS:
				b = cmp >= 0
			}
			vals[i] = boolInt(b)
		default:
			return nil, fmt.Errorf("dfg: unknown op %d", int(v.Kind))
		}
	}
	out := make(map[string]*big.Int, len(g.Outputs))
	for i, o := range g.Outputs {
		out[g.OutputNames[i]] = vals[o]
	}
	return out, nil
}

// Scratch is the dfg package's share of a compile workspace: the
// hash-consing table and the value staging a build grows. A caller that
// keeps a Scratch across compiles re-grows neither; the graph a build
// returns owns exact-length copies and shares nothing with the scratch.
// Each build clears the table on entry and truncates the staging, so a
// Scratch abandoned by a failed or panicking build is safe to reuse. The zero value is ready to
// use; a Scratch is not safe for concurrent use.
type Scratch struct {
	hash   map[valueKey]ValueID
	peak   int               // the most entries hash has held: a cleared map keeps its slots
	wide   map[string]uint64 // decimal text of an Imm wider than 64 bits -> its number
	values []Value
}

// BuildNode flattens the checked program into a graph, with the named node
// as the entry point: its parameters become graph inputs and its returns
// become outputs. It is (*Scratch).BuildNode on a scratch of its own.
func BuildNode(ch *typecheck.Checked, name string) (*Graph, error) {
	return new(Scratch).BuildNode(ch, name)
}

// BuildNode is the package-level BuildNode on the scratch's table and
// staging.
func (s *Scratch) BuildNode(ch *typecheck.Checked, name string) (*Graph, error) {
	entry := ch.Prog.Lookup(name)
	if entry == nil {
		return nil, fmt.Errorf("dfg: no node named %q", name)
	}
	if s.hash == nil {
		s.hash = make(map[valueKey]ValueID)
	}
	clear(s.hash)
	clear(s.wide)
	b := &builder{s: s, g: Graph{Values: s.values[:0]}}
	args := make([]ValueID, len(entry.Params))
	for i, p := range entry.Params {
		id := b.add(Value{Kind: OpInput, Width: p.Type.Bits, Name: p.Name})
		b.g.Inputs = append(b.g.Inputs, id)
		args[i] = id
	}
	outs, err := b.instantiate(ch, entry, args, 0)
	// Keep what the table and the staging grew to, even on failure, and
	// let go of the staged args, immediates and names: the graph owns a
	// copy.
	staged := b.g.Values
	s.peak, s.values = max(s.peak, len(s.hash)), staged[:0]
	defer clear(staged)
	if err != nil {
		return nil, err
	}
	b.g.Values = slices.Clone(staged)
	for i, o := range outs {
		b.g.Outputs = append(b.g.Outputs, o)
		b.g.OutputNames = append(b.g.OutputNames, entry.Returns[i].Name)
	}
	g := b.g
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// Bytes is the storage the scratch retains, for a workspace's size
// ceiling. A map slot holds a key and an id; the table is at most 7/8
// full and grows by doubling, so it spends at most twice a slot an entry.
// Wide immediates' text is not counted.
func (s *Scratch) Bytes() int {
	const slot = int(unsafe.Sizeof(valueKey{}) + unsafe.Sizeof(ValueID(0)))
	return 2*slot*s.peak + cap(s.values)*int(unsafe.Sizeof(Value{}))
}

// builder constructs one graph with hash-consing on a Scratch.
type builder struct {
	s *Scratch
	g Graph
}

// valueKey is the comparable identity of a value for hash-consing, 32
// bytes. Args are padded with -1 (never a real id); every kind has a fixed
// arity, so padding cannot collide. imm is an Imm that fits in 64 bits, by
// its value, or a wider one by its number in Scratch.wide; immKind tells
// the three apart. Only non-input values are keyed, and they carry no
// Name.
type valueKey struct {
	imm        uint64
	a0, a1, a2 ValueID
	width      int32
	kind       uint8
	immKind    uint8 // 0 (no Imm), immNarrow or immWide
}

const (
	immNarrow = 1 + iota
	immWide
)

func (b *builder) add(v Value) ValueID {
	id := ValueID(len(b.g.Values))
	if v.Kind != OpInput {
		key := valueKey{kind: uint8(v.Kind), a0: -1, a1: -1, a2: -1, width: int32(v.Width)}
		switch len(v.Args) {
		case 3:
			key.a2 = v.Args[2]
			fallthrough
		case 2:
			key.a1 = v.Args[1]
			fallthrough
		case 1:
			key.a0 = v.Args[0]
		}
		if v.Imm != nil {
			key.immKind, key.imm = immNarrow, v.Imm.Uint64()
			if !v.Imm.IsUint64() {
				key.immKind, key.imm = immWide, b.s.wideImm(v.Imm)
			}
		}
		if old, ok := b.s.hash[key]; ok {
			return old
		}
		b.s.hash[key] = id
	}
	b.g.Values = append(b.g.Values, v)
	return id
}

// wideImm numbers an immediate wider than 64 bits by its decimal text:
// equal values get one number.
func (s *Scratch) wideImm(x *big.Int) uint64 {
	text := x.String()
	n, ok := s.wide[text]
	if !ok {
		if s.wide == nil {
			s.wide = make(map[string]uint64)
		}
		n = uint64(len(s.wide))
		s.wide[text] = n
	}
	return n
}

const maxInlineDepth = 64

// instantiate inlines a node invocation: args are the already-built values
// for the node's parameters; returns the values of the node's return
// variables. Equation scheduling is demand-driven with cycle detection.
func (b *builder) instantiate(ch *typecheck.Checked, node *dsl.Node, args []ValueID, depth int) ([]ValueID, error) {
	if depth > maxInlineDepth {
		return nil, fmt.Errorf("dfg: node %q exceeds inline depth %d", node.Name, maxInlineDepth)
	}
	// defs: variable -> defining equation; env: variable -> built value.
	defs := make(map[string]*dsl.Equation, len(node.Eqs))
	for _, eq := range node.Eqs {
		for _, lhs := range eq.Lhs {
			defs[lhs] = eq
		}
	}
	env := make(map[string]ValueID, len(args)+len(defs))
	for i, p := range node.Params {
		env[p.Name] = args[i]
	}
	inProgress := make(map[string]bool)

	var evalVar func(name string, pos dsl.Pos) (ValueID, error)
	var evalExpr func(e dsl.Expr) (ValueID, error)

	evalVar = func(name string, pos dsl.Pos) (ValueID, error) {
		if id, ok := env[name]; ok {
			return id, nil
		}
		eq, ok := defs[name]
		if !ok {
			return 0, fmt.Errorf("%s: variable %q has no defining equation in node %q", pos, name, node.Name)
		}
		if inProgress[name] {
			return 0, fmt.Errorf("%s: dependency cycle through variable %q in node %q", pos, name, node.Name)
		}
		for _, lhs := range eq.Lhs {
			inProgress[lhs] = true
		}
		defer func() {
			for _, lhs := range eq.Lhs {
				delete(inProgress, lhs)
			}
		}()
		if len(eq.Lhs) == 1 {
			id, err := evalExpr(eq.Rhs)
			if err != nil {
				return 0, err
			}
			env[name] = id
			return id, nil
		}
		// Multi-return call.
		call := eq.Rhs.(*dsl.Call)
		callee := ch.Prog.Lookup(call.Name)
		cargs := make([]ValueID, len(call.Args))
		for i, a := range call.Args {
			id, err := evalExpr(a)
			if err != nil {
				return 0, err
			}
			cargs[i] = id
		}
		outs, err := b.instantiate(ch, callee, cargs, depth+1)
		if err != nil {
			return 0, err
		}
		for i, lhs := range eq.Lhs {
			env[lhs] = outs[i]
		}
		return env[name], nil
	}

	width := func(e dsl.Expr) int { return ch.TypeOf(e).Bits }

	evalExpr = func(e dsl.Expr) (ValueID, error) {
		switch e := e.(type) {
		case *dsl.Ident:
			return evalVar(e.Name, e.Pos)
		case *dsl.IntLit:
			return b.add(Value{Kind: OpConst, Width: width(e), Imm: e.Value}), nil
		case *dsl.Unary:
			x, err := evalExpr(e.X)
			if err != nil {
				return 0, err
			}
			k := OpNot
			if e.Op == dsl.OpNegU {
				k = OpNeg
			}
			return b.add(Value{Kind: k, Args: []ValueID{x}, Width: width(e)}), nil
		case *dsl.Binary:
			x, err := evalExpr(e.X)
			if err != nil {
				return 0, err
			}
			if e.Op.IsShift() {
				if lit, ok := e.Y.(*dsl.IntLit); ok {
					k := OpShl
					if e.Op == dsl.OpShr {
						k = OpShr
					}
					return b.add(Value{Kind: k, Args: []ValueID{x}, Width: width(e), Imm: lit.Value}), nil
				}
				// Computed amount: a barrel shift.
				y, err := evalExpr(e.Y)
				if err != nil {
					return 0, err
				}
				k := OpShlV
				if e.Op == dsl.OpShr {
					k = OpShrV
				}
				return b.add(Value{Kind: k, Args: []ValueID{x, y}, Width: width(e)}), nil
			}
			y, err := evalExpr(e.Y)
			if err != nil {
				return 0, err
			}
			var k OpKind
			switch e.Op {
			case dsl.OpAdd:
				k = OpAdd
			case dsl.OpSub:
				k = OpSub
			case dsl.OpMul:
				k = OpMul
			case dsl.OpAnd:
				k = OpAnd
			case dsl.OpOr:
				k = OpOr
			case dsl.OpXor:
				k = OpXor
			case dsl.OpEq:
				k = OpEq
			case dsl.OpNe:
				k = OpNe
			case dsl.OpLt:
				k = OpLtU
			case dsl.OpGt:
				k = OpGtU
			case dsl.OpLe:
				k = OpLeU
			case dsl.OpGe:
				k = OpGeU
			default:
				return 0, fmt.Errorf("%s: unsupported operator %s", e.Pos, e.Op)
			}
			return b.add(Value{Kind: k, Args: []ValueID{x, y}, Width: width(e)}), nil
		case *dsl.Cond:
			c, err := evalExpr(e.C)
			if err != nil {
				return 0, err
			}
			t, err := evalExpr(e.T)
			if err != nil {
				return 0, err
			}
			f, err := evalExpr(e.F)
			if err != nil {
				return 0, err
			}
			return b.add(Value{Kind: OpMux, Args: []ValueID{c, t, f}, Width: width(e)}), nil
		case *dsl.Call:
			// Conversion uN(x)?
			if w := width(e); isConversion(e.Name) {
				x, err := evalExpr(e.Args[0])
				if err != nil {
					return 0, err
				}
				return b.add(Value{Kind: OpResize, Args: []ValueID{x}, Width: w}), nil
			}
			if e.Name == "asr" {
				x, err := evalExpr(e.Args[0])
				if err != nil {
					return 0, err
				}
				if lit, ok := e.Args[1].(*dsl.IntLit); ok {
					return b.add(Value{Kind: OpSra, Args: []ValueID{x}, Width: width(e), Imm: lit.Value}), nil
				}
				amt, err := evalExpr(e.Args[1])
				if err != nil {
					return 0, err
				}
				return b.add(Value{Kind: OpSraV, Args: []ValueID{x, amt}, Width: width(e)}), nil
			}
			switch e.Name {
			case "mux", "min", "max", "absdiff", "popcount",
				"slt", "sle", "sgt", "sge", "div", "mod":
				argIDs := make([]ValueID, len(e.Args))
				for i, a := range e.Args {
					id, err := evalExpr(a)
					if err != nil {
						return 0, err
					}
					argIDs[i] = id
				}
				var k OpKind
				switch e.Name {
				case "mux":
					k = OpMux
				case "min":
					k = OpMin
				case "max":
					k = OpMax
				case "absdiff":
					k = OpAbsDiff
				case "popcount":
					k = OpPopCount
				case "slt":
					k = OpLtS
				case "sle":
					k = OpLeS
				case "sgt":
					k = OpGtS
				case "sge":
					k = OpGeS
				case "div":
					k = OpDivU
				case "mod":
					k = OpModU
				}
				return b.add(Value{Kind: k, Args: argIDs, Width: width(e)}), nil
			}
			callee := ch.Prog.Lookup(e.Name)
			cargs := make([]ValueID, len(e.Args))
			for i, a := range e.Args {
				id, err := evalExpr(a)
				if err != nil {
					return 0, err
				}
				cargs[i] = id
			}
			outs, err := b.instantiate(ch, callee, cargs, depth+1)
			if err != nil {
				return 0, err
			}
			return outs[0], nil
		}
		return 0, fmt.Errorf("%s: unsupported expression", e.ExprPos())
	}

	outs := make([]ValueID, len(node.Returns))
	for i, r := range node.Returns {
		id, err := evalVar(r.Name, r.Pos)
		if err != nil {
			return nil, err
		}
		outs[i] = id
	}
	return outs, nil
}

func isConversion(name string) bool {
	if len(name) < 2 || name[0] != 'u' {
		return false
	}
	for _, c := range name[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
