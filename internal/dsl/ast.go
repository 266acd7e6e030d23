package dsl

import (
	"fmt"
	"math/big"
	"strings"
)

// Type is a bit-vector type uN, or an array of them uN[K]. Every scalar
// value in the language is an unsigned bit vector; signedness is an
// operator property (future work mirrors the paper's "elementary basic
// types"). Arrays exist only before macro expansion (dsl.Expand
// scalarizes them); the compiler middle end never sees one.
type Type struct {
	Bits int
	// Count is the array length; 0 means scalar.
	Count int
}

// IsArray reports whether the type is an array.
func (t Type) IsArray() bool { return t.Count > 0 }

// MaxBits bounds type widths; wide enough for the 864-bit identifiers of
// the Significance Weighting workload.
const MaxBits = 2048

func (t Type) String() string {
	if t.IsArray() {
		return fmt.Sprintf("u%d[%d]", t.Bits, t.Count)
	}
	return fmt.Sprintf("u%d", t.Bits)
}

// Valid reports whether the type is in range.
func (t Type) Valid() bool { return t.Bits >= 1 && t.Bits <= MaxBits }

// Attr is a node attribute such as @reuse or @noreuse, the annotation hook
// OBS-2 exposes to programmers ("transparently decide whether this
// optimization shall be enforced based on their own specifications").
type Attr struct {
	Name string
	Args []string
	Pos  Pos
}

// Param declares a typed variable (input, output, or local).
type Param struct {
	Name string
	Type Type
	Pos  Pos
}

// ConstTable is a node-level constant lookup table:
// "const name: uN[K] = {v0, v1, ...};". Tables are resolved during macro
// expansion: every indexed reference becomes an integer literal.
type ConstTable struct {
	Name   string
	Type   Type // array type
	Values []*big.Int
	Pos    Pos
}

// ForAll is a static loop: "forall i in a..b { ... }" (inclusive bounds).
// Loops are unrolled by dsl.Expand before type checking; bodies may nest
// further loops and equations.
type ForAll struct {
	Var      string
	From, To int
	Eqs      []*Equation
	Loops    []*ForAll
	Pos      Pos
}

// Node is one dataflow node.
type Node struct {
	Name    string
	Attrs   []Attr
	Params  []Param
	Returns []Param
	Locals  []Param
	Consts  []*ConstTable
	Eqs     []*Equation
	Loops   []*ForAll
	Pos     Pos
}

// NeedsExpansion reports whether the node still contains pre-expansion
// constructs (loops, arrays, const tables).
func (n *Node) NeedsExpansion() bool {
	if len(n.Loops) > 0 || len(n.Consts) > 0 {
		return true
	}
	for _, ps := range [][]Param{n.Params, n.Returns, n.Locals} {
		for _, p := range ps {
			if p.Type.IsArray() {
				return true
			}
		}
	}
	return false
}

// HasAttr reports whether the node carries attribute name.
func (n *Node) HasAttr(name string) bool {
	for _, a := range n.Attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Equation assigns an expression to one or more variables:
// "x = e;" or "(x, y) = f(a, b);". Before expansion a left-hand side may
// be an array element: LhsIdx[i] is its index expression (nil = scalar).
type Equation struct {
	Lhs    []string
	LhsIdx []Expr
	Rhs    Expr
	Pos    Pos
}

// Program is a compilation unit. The last node (or the node named "main",
// if present) is the entry point.
type Program struct {
	Nodes []*Node
}

// Lookup finds a node by name.
func (p *Program) Lookup(name string) *Node {
	for _, n := range p.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Entry returns the entry node: "main" if present, otherwise the last node.
func (p *Program) Entry() *Node {
	if n := p.Lookup("main"); n != nil {
		return n
	}
	if len(p.Nodes) == 0 {
		return nil
	}
	return p.Nodes[len(p.Nodes)-1]
}

// Expr is an expression. Every expression carries a type slot:
// typecheck.Check writes the type it derives into it, and the dataflow
// builder reads it back, so no side table maps expressions to types.
type Expr interface {
	ExprPos() Pos
	String() string
	// ExprType is the type Check annotated the expression with (zero
	// before Check, or for an expression Check never reached).
	ExprType() Type
	SetExprType(Type)
}

// typed is the type slot each expression node embeds. Expand shares
// unchanged Ident and IntLit nodes between unrolled loop copies, so a
// shared node holds the type Check gave its last occurrence.
type typed struct{ ty Type }

func (t *typed) ExprType() Type      { return t.ty }
func (t *typed) SetExprType(ty Type) { t.ty = ty }

// Ident references a variable.
type Ident struct {
	typed
	Name string
	Pos  Pos
}

func (e *Ident) ExprPos() Pos   { return e.Pos }
func (e *Ident) String() string { return e.Name }

// IntLit is an integer literal, optionally width-ascribed ("42:u8").
// Values may exceed 64 bits (hex literals for wide constants).
type IntLit struct {
	typed
	Value *big.Int
	// Width is the ascribed width in bits; 0 means "adopt from context".
	Width int
	Pos   Pos
}

func (e *IntLit) ExprPos() Pos { return e.Pos }
func (e *IntLit) String() string {
	if e.Width > 0 {
		return fmt.Sprintf("%s:u%d", e.Value, e.Width)
	}
	return e.Value.String()
}

// UnOp enumerates unary operators.
type UnOp int

const (
	OpNotU UnOp = iota // ~x
	OpNegU             // -x
)

func (o UnOp) String() string {
	if o == OpNotU {
		return "~"
	}
	return "-"
}

// Unary applies a unary operator.
type Unary struct {
	typed
	Op  UnOp
	X   Expr
	Pos Pos
}

func (e *Unary) ExprPos() Pos   { return e.Pos }
func (e *Unary) String() string { return fmt.Sprintf("(%s%s)", e.Op, e.X) }

// BinOp enumerates binary operators.
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpLt
	OpGt
	OpLe
	OpGe
	OpEq
	OpNe
)

var binOpNames = [...]string{"+", "-", "*", "&", "|", "^", "<<", ">>", "<", ">", "<=", ">=", "==", "!="}

func (o BinOp) String() string { return binOpNames[o] }

// IsComparison reports whether the operator yields u1.
func (o BinOp) IsComparison() bool { return o >= OpLt }

// IsShift reports whether the operator is a shift.
func (o BinOp) IsShift() bool { return o == OpShl || o == OpShr }

// Binary applies a binary operator.
type Binary struct {
	typed
	Op   BinOp
	X, Y Expr
	Pos  Pos
}

func (e *Binary) ExprPos() Pos   { return e.Pos }
func (e *Binary) String() string { return fmt.Sprintf("(%s %s %s)", e.X, e.Op, e.Y) }

// Cond is the ternary conditional c ? t : f (per-lane multiplexer).
type Cond struct {
	typed
	C, T, F Expr
	Pos     Pos
}

func (e *Cond) ExprPos() Pos   { return e.Pos }
func (e *Cond) String() string { return fmt.Sprintf("(%s ? %s : %s)", e.C, e.T, e.F) }

// Index references an array element "x[e]". The index must be a constant
// expression after loop-variable substitution; dsl.Expand turns every
// Index into a scalar Ident (or an IntLit, for const tables).
type Index struct {
	typed
	Name string
	Idx  Expr
	Pos  Pos
}

func (e *Index) ExprPos() Pos   { return e.Pos }
func (e *Index) String() string { return fmt.Sprintf("%s[%s]", e.Name, e.Idx) }

// Call instantiates another node (or a builtin such as mux/min/max/absdiff/
// popcount) on arguments.
type Call struct {
	typed
	Name string
	Args []Expr
	Pos  Pos
}

func (e *Call) ExprPos() Pos { return e.Pos }
func (e *Call) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(parts, ", "))
}
