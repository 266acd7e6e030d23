// Package typecheck validates CHOPPER programs: single assignment, declared
// variables, operator width rules, node call signatures, and absence of
// recursion. It annotates every expression with its bit-vector type, in
// the expression's own type slot (dsl.Expr.ExprType), so the dataflow-graph
// builder can lower without re-deriving widths.
//
// Width rules (deliberately strict — width changes must be explicit):
//
//   - arithmetic/bitwise operands must have equal widths; integer literals
//     adopt the width of the other operand (or their ascription);
//   - comparisons take equal-width operands and yield u1;
//   - shifts take a literal shift amount and keep the left operand's width;
//   - c ? t : f takes a u1 condition and equal-width arms;
//   - uN(x) converts (zero-extends or truncates) to N bits;
//   - builtins: mux(c,t,f), min(x,y), max(x,y), absdiff(x,y),
//     popcount(x) (result width = operand width).
package typecheck

import (
	"fmt"
	"math/big"
	"strings"

	"chopper/internal/dsl"
)

// Checked is a type-annotated program: every expression Check reached
// carries its type in its own slot.
type Checked struct {
	Prog *dsl.Program
}

// TypeOf returns the annotated type of e (zero Type if unknown).
func (c *Checked) TypeOf(e dsl.Expr) dsl.Type { return e.ExprType() }

type checker struct {
	prog    *dsl.Program
	inStack map[string]bool // recursion detection
	done    map[string]bool
}

// Check validates prog and annotates its expressions in place. The program
// belongs to the caller's compile: a second Check of the same program
// writes the same annotations again.
func Check(prog *dsl.Program) (*Checked, error) {
	c := &checker{
		prog:    prog,
		inStack: make(map[string]bool),
		done:    make(map[string]bool),
	}
	for _, n := range prog.Nodes {
		if err := c.checkNode(n); err != nil {
			return nil, err
		}
	}
	return &Checked{Prog: prog}, nil
}

// conversionWidth reports whether name is a uN conversion pseudo-function.
func conversionWidth(name string) (int, bool) {
	if !strings.HasPrefix(name, "u") || len(name) < 2 {
		return 0, false
	}
	bits := 0
	for _, ch := range name[1:] {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		bits = bits*10 + int(ch-'0')
	}
	if bits < 1 || bits > dsl.MaxBits {
		return 0, false
	}
	return bits, true
}

// builtinArity maps builtin names to their argument counts.
var builtinArity = map[string]int{
	"mux": 3, "min": 2, "max": 2, "absdiff": 2, "popcount": 1,
	// Signed comparisons over two's-complement operands.
	"slt": 2, "sle": 2, "sgt": 2, "sge": 2,
	// Unsigned division and remainder.
	"div": 2, "mod": 2,
	// Arithmetic right shift (sign-filling).
	"asr": 2,
}

func (c *checker) checkNode(n *dsl.Node) error {
	if c.done[n.Name] {
		return nil
	}
	if c.inStack[n.Name] {
		return fmt.Errorf("%s: node %q is recursive (recursion is not allowed in a synchronous dataflow program)", n.Pos, n.Name)
	}
	c.inStack[n.Name] = true
	defer func() { c.inStack[n.Name] = false }()

	env := make(map[string]dsl.Type)
	declare := func(p dsl.Param, kind string) error {
		if !p.Type.Valid() {
			return fmt.Errorf("%s: %s %q has invalid type %s", p.Pos, kind, p.Name, p.Type)
		}
		if _, dup := env[p.Name]; dup {
			return fmt.Errorf("%s: %s %q redeclared", p.Pos, kind, p.Name)
		}
		if _, isConv := conversionWidth(p.Name); isConv || builtinArity[p.Name] != 0 {
			return fmt.Errorf("%s: %q shadows a builtin", p.Pos, p.Name)
		}
		env[p.Name] = p.Type
		return nil
	}
	params := make(map[string]bool)
	for _, p := range n.Params {
		if err := declare(p, "parameter"); err != nil {
			return err
		}
		params[p.Name] = true
	}
	if err := checkRangeAttrs(n); err != nil {
		return err
	}
	for _, p := range n.Returns {
		if err := declare(p, "return"); err != nil {
			return err
		}
	}
	for _, p := range n.Locals {
		if err := declare(p, "local"); err != nil {
			return err
		}
	}

	assigned := make(map[string]bool)
	for _, eq := range n.Eqs {
		for _, lhs := range eq.Lhs {
			if _, ok := env[lhs]; !ok {
				return fmt.Errorf("%s: assignment to undeclared variable %q", eq.Pos, lhs)
			}
			if params[lhs] {
				return fmt.Errorf("%s: assignment to parameter %q", eq.Pos, lhs)
			}
			if assigned[lhs] {
				return fmt.Errorf("%s: variable %q assigned more than once", eq.Pos, lhs)
			}
			assigned[lhs] = true
		}
		if err := c.checkEquation(n, env, eq); err != nil {
			return err
		}
	}
	for _, r := range n.Returns {
		if !assigned[r.Name] {
			return fmt.Errorf("%s: return variable %q of node %q is never assigned", r.Pos, r.Name, n.Name)
		}
	}
	for _, l := range n.Locals {
		if !assigned[l.Name] {
			return fmt.Errorf("%s: local variable %q of node %q is never assigned", l.Pos, l.Name, n.Name)
		}
	}
	c.done[n.Name] = true
	return nil
}

func (c *checker) checkEquation(n *dsl.Node, env map[string]dsl.Type, eq *dsl.Equation) error {
	// A multi-variable LHS requires a node call returning that many values.
	if len(eq.Lhs) > 1 {
		call, ok := eq.Rhs.(*dsl.Call)
		if !ok {
			return fmt.Errorf("%s: multi-variable assignment requires a node call on the right-hand side", eq.Pos)
		}
		callee := c.prog.Lookup(call.Name)
		if callee == nil {
			return fmt.Errorf("%s: call to undefined node %q", call.Pos, call.Name)
		}
		if err := c.checkNode(callee); err != nil {
			return err
		}
		if len(callee.Returns) != len(eq.Lhs) {
			return fmt.Errorf("%s: node %q returns %d values, assigned to %d variables", eq.Pos, call.Name, len(callee.Returns), len(eq.Lhs))
		}
		if err := c.checkCallArgs(n, env, call, callee); err != nil {
			return err
		}
		for i, lhs := range eq.Lhs {
			want := env[lhs]
			got := callee.Returns[i].Type
			if want != got {
				return fmt.Errorf("%s: %q has type %s but %q returns %s in position %d", eq.Pos, lhs, want, call.Name, got, i)
			}
		}
		return nil
	}

	want := env[eq.Lhs[0]]
	got, err := c.checkExpr(n, env, eq.Rhs, want.Bits)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: cannot assign %s expression to %q of type %s", eq.Pos, got, eq.Lhs[0], want)
	}
	return nil
}

func (c *checker) checkCallArgs(n *dsl.Node, env map[string]dsl.Type, call *dsl.Call, callee *dsl.Node) error {
	if len(call.Args) != len(callee.Params) {
		return fmt.Errorf("%s: node %q takes %d arguments, got %d", call.Pos, call.Name, len(callee.Params), len(call.Args))
	}
	for i, arg := range call.Args {
		want := callee.Params[i].Type
		got, err := c.checkExpr(n, env, arg, want.Bits)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("%s: argument %d of %q has type %s, want %s", arg.ExprPos(), i, call.Name, got, want)
		}
	}
	return nil
}

// checkExpr types e. expected (>0) is a width hint used only to give
// unascribed integer literals a width.
func (c *checker) checkExpr(n *dsl.Node, env map[string]dsl.Type, e dsl.Expr, expected int) (dsl.Type, error) {
	t, err := c.typeExpr(n, env, e, expected)
	if err != nil {
		return dsl.Type{}, err
	}
	e.SetExprType(t)
	return t, nil
}

func (c *checker) typeExpr(n *dsl.Node, env map[string]dsl.Type, e dsl.Expr, expected int) (dsl.Type, error) {
	switch e := e.(type) {
	case *dsl.Ident:
		t, ok := env[e.Name]
		if !ok {
			return dsl.Type{}, fmt.Errorf("%s: undeclared variable %q", e.Pos, e.Name)
		}
		return t, nil

	case *dsl.IntLit:
		w := e.Width
		if w == 0 {
			w = expected
		}
		if w == 0 {
			return dsl.Type{}, fmt.Errorf("%s: cannot infer width of literal %s; ascribe one (e.g. %s:u8)", e.Pos, e.Value, e.Value)
		}
		if e.Value.Sign() < 0 {
			return dsl.Type{}, fmt.Errorf("%s: negative literal %s (use unary minus on an ascribed literal)", e.Pos, e.Value)
		}
		if e.Value.BitLen() > w {
			return dsl.Type{}, fmt.Errorf("%s: literal %s does not fit in u%d", e.Pos, e.Value, w)
		}
		return dsl.Type{Bits: w}, nil

	case *dsl.Unary:
		t, err := c.checkExpr(n, env, e.X, expected)
		if err != nil {
			return dsl.Type{}, err
		}
		return t, nil

	case *dsl.Binary:
		if e.Op.IsShift() {
			lt, err := c.checkExpr(n, env, e.X, expected)
			if err != nil {
				return dsl.Type{}, err
			}
			if lit, ok := e.Y.(*dsl.IntLit); ok {
				if !lit.Value.IsInt64() || lit.Value.Int64() < 0 {
					return dsl.Type{}, fmt.Errorf("%s: shift amount %s out of range", lit.Pos, lit.Value)
				}
				lit.SetExprType(dsl.Type{Bits: 32})
				return lt, nil
			}
			// A computed amount (barrel shift); any width is allowed,
			// amounts >= the operand width shift everything out.
			if _, err := c.checkExpr(n, env, e.Y, 0); err != nil {
				return dsl.Type{}, err
			}
			return lt, nil
		}
		// Literals adopt the other operand's width.
		xLit, xIsLit := e.X.(*dsl.IntLit)
		yLit, yIsLit := e.Y.(*dsl.IntLit)
		hintX, hintY := expected, expected
		if e.Op.IsComparison() {
			hintX, hintY = 0, 0
		}
		var xt, yt dsl.Type
		var err error
		switch {
		case xIsLit && !yIsLit:
			if yt, err = c.checkExpr(n, env, e.Y, hintY); err != nil {
				return dsl.Type{}, err
			}
			if xt, err = c.checkExpr(n, env, e.X, yt.Bits); err != nil {
				return dsl.Type{}, err
			}
		case yIsLit && !xIsLit:
			if xt, err = c.checkExpr(n, env, e.X, hintX); err != nil {
				return dsl.Type{}, err
			}
			if yt, err = c.checkExpr(n, env, e.Y, xt.Bits); err != nil {
				return dsl.Type{}, err
			}
		case xIsLit && yIsLit:
			if xLit.Width == 0 && yLit.Width == 0 && hintX == 0 {
				return dsl.Type{}, fmt.Errorf("%s: cannot infer width of literal-only expression; ascribe one operand", e.Pos)
			}
			if xt, err = c.checkExpr(n, env, e.X, firstNonZero(yLit.Width, hintX)); err != nil {
				return dsl.Type{}, err
			}
			if yt, err = c.checkExpr(n, env, e.Y, firstNonZero(xLit.Width, xt.Bits)); err != nil {
				return dsl.Type{}, err
			}
		default:
			if xt, err = c.checkExpr(n, env, e.X, hintX); err != nil {
				return dsl.Type{}, err
			}
			if yt, err = c.checkExpr(n, env, e.Y, xt.Bits); err != nil {
				return dsl.Type{}, err
			}
		}
		if xt != yt {
			return dsl.Type{}, fmt.Errorf("%s: operand widths differ: %s %s %s (use uN(...) to convert)", e.Pos, xt, e.Op, yt)
		}
		if e.Op.IsComparison() {
			return dsl.Type{Bits: 1}, nil
		}
		return xt, nil

	case *dsl.Cond:
		ct, err := c.checkExpr(n, env, e.C, 1)
		if err != nil {
			return dsl.Type{}, err
		}
		if ct.Bits != 1 {
			return dsl.Type{}, fmt.Errorf("%s: condition has type %s, want u1", e.C.ExprPos(), ct)
		}
		tt, err := c.checkExpr(n, env, e.T, expected)
		if err != nil {
			return dsl.Type{}, err
		}
		ft, err := c.checkExpr(n, env, e.F, tt.Bits)
		if err != nil {
			return dsl.Type{}, err
		}
		if tt != ft {
			return dsl.Type{}, fmt.Errorf("%s: conditional arms differ: %s vs %s", e.Pos, tt, ft)
		}
		return tt, nil

	case *dsl.Call:
		// uN(x) conversion.
		if w, ok := conversionWidth(e.Name); ok {
			if len(e.Args) != 1 {
				return dsl.Type{}, fmt.Errorf("%s: conversion %s takes one argument", e.Pos, e.Name)
			}
			if _, err := c.checkExpr(n, env, e.Args[0], 0); err != nil {
				return dsl.Type{}, err
			}
			return dsl.Type{Bits: w}, nil
		}
		// Builtins.
		if ar, ok := builtinArity[e.Name]; ok {
			if len(e.Args) != ar {
				return dsl.Type{}, fmt.Errorf("%s: builtin %q takes %d arguments, got %d", e.Pos, e.Name, ar, len(e.Args))
			}
			switch e.Name {
			case "mux":
				ct, err := c.checkExpr(n, env, e.Args[0], 1)
				if err != nil {
					return dsl.Type{}, err
				}
				if ct.Bits != 1 {
					return dsl.Type{}, fmt.Errorf("%s: mux condition has type %s, want u1", e.Args[0].ExprPos(), ct)
				}
				tt, err := c.checkExpr(n, env, e.Args[1], expected)
				if err != nil {
					return dsl.Type{}, err
				}
				ft, err := c.checkExpr(n, env, e.Args[2], tt.Bits)
				if err != nil {
					return dsl.Type{}, err
				}
				if tt != ft {
					return dsl.Type{}, fmt.Errorf("%s: mux arms differ: %s vs %s", e.Pos, tt, ft)
				}
				return tt, nil
			case "slt", "sle", "sgt", "sge":
				xt, err := c.checkExpr(n, env, e.Args[0], 0)
				if err != nil {
					return dsl.Type{}, err
				}
				yt, err := c.checkExpr(n, env, e.Args[1], xt.Bits)
				if err != nil {
					return dsl.Type{}, err
				}
				if xt != yt {
					return dsl.Type{}, fmt.Errorf("%s: %s operand widths differ: %s vs %s", e.Pos, e.Name, xt, yt)
				}
				return dsl.Type{Bits: 1}, nil
			case "asr":
				xt, err := c.checkExpr(n, env, e.Args[0], expected)
				if err != nil {
					return dsl.Type{}, err
				}
				if lit, ok := e.Args[1].(*dsl.IntLit); ok {
					if !lit.Value.IsInt64() || lit.Value.Int64() < 0 {
						return dsl.Type{}, fmt.Errorf("%s: shift amount %s out of range", lit.Pos, lit.Value)
					}
					lit.SetExprType(dsl.Type{Bits: 32})
				} else if _, err := c.checkExpr(n, env, e.Args[1], 0); err != nil {
					return dsl.Type{}, err
				}
				return xt, nil
			case "min", "max", "absdiff", "div", "mod":
				xt, err := c.checkExpr(n, env, e.Args[0], expected)
				if err != nil {
					return dsl.Type{}, err
				}
				yt, err := c.checkExpr(n, env, e.Args[1], xt.Bits)
				if err != nil {
					return dsl.Type{}, err
				}
				if xt != yt {
					return dsl.Type{}, fmt.Errorf("%s: %s operand widths differ: %s vs %s", e.Pos, e.Name, xt, yt)
				}
				return xt, nil
			case "popcount":
				xt, err := c.checkExpr(n, env, e.Args[0], 0)
				if err != nil {
					return dsl.Type{}, err
				}
				return xt, nil
			}
		}
		// Node call (single return in expression context).
		callee := c.prog.Lookup(e.Name)
		if callee == nil {
			return dsl.Type{}, fmt.Errorf("%s: call to undefined node or builtin %q", e.Pos, e.Name)
		}
		if callee.Name == n.Name {
			return dsl.Type{}, fmt.Errorf("%s: node %q calls itself", e.Pos, n.Name)
		}
		if err := c.checkNode(callee); err != nil {
			return dsl.Type{}, err
		}
		if len(callee.Returns) != 1 {
			return dsl.Type{}, fmt.Errorf("%s: node %q returns %d values; use (a, b) = %s(...) form", e.Pos, e.Name, len(callee.Returns), e.Name)
		}
		if err := c.checkCallArgs(n, env, e, callee); err != nil {
			return dsl.Type{}, err
		}
		return callee.Returns[0].Type, nil
	}
	return dsl.Type{}, fmt.Errorf("%s: unsupported expression", e.ExprPos())
}

func firstNonZero(a, b int) int {
	if a != 0 {
		return a
	}
	return b
}

// Range is a validated @range(name, lo, hi) annotation: an inclusive,
// non-negative bound on a parameter's runtime values, trusted by the
// annotated narrowing mode.
type Range struct {
	Lo, Hi *big.Int
}

// rangeParams resolves one @range attribute against n's parameters and
// parses its bounds. Array parameters are scalarized before typechecking,
// so @range(v, lo, hi) matches the element parameters v__0, v__1, ... as
// well as a scalar v.
func rangeParams(n *dsl.Node, a *dsl.Attr) ([]*dsl.Param, Range, error) {
	if len(a.Args) != 3 {
		return nil, Range{}, fmt.Errorf("%s: @range takes (name, lo, hi), got %d arguments", a.Pos, len(a.Args))
	}
	name := a.Args[0]
	var ps []*dsl.Param
	for i := range n.Params {
		if p := &n.Params[i]; p.Name == name || strings.HasPrefix(p.Name, name+"__") {
			ps = append(ps, p)
		}
	}
	if len(ps) == 0 {
		return nil, Range{}, fmt.Errorf("%s: @range names %q, which is not a parameter of node %q", a.Pos, name, n.Name)
	}
	lo, okLo := new(big.Int).SetString(a.Args[1], 0)
	hi, okHi := new(big.Int).SetString(a.Args[2], 0)
	if !okLo || !okHi || lo.Sign() < 0 {
		return nil, Range{}, fmt.Errorf("%s: @range(%s) bounds must be non-negative integers", a.Pos, name)
	}
	if lo.Cmp(hi) > 0 {
		return nil, Range{}, fmt.Errorf("%s: @range(%s) has lo %s > hi %s", a.Pos, name, lo, hi)
	}
	for _, p := range ps {
		if hi.BitLen() > p.Type.Bits {
			return nil, Range{}, fmt.Errorf("%s: @range(%s) hi %s does not fit u%d", a.Pos, name, hi, p.Type.Bits)
		}
	}
	return ps, Range{Lo: lo, Hi: hi}, nil
}

// checkRangeAttrs validates every @range annotation on n: the name must
// be a parameter (or array-parameter base), the bounds non-negative with
// lo <= hi and hi inside the parameter's width, and each parameter
// annotated at most once.
func checkRangeAttrs(n *dsl.Node) error {
	seen := make(map[string]bool)
	for i := range n.Attrs {
		a := &n.Attrs[i]
		if a.Name != "range" {
			continue
		}
		if _, _, err := rangeParams(n, a); err != nil {
			return err
		}
		if seen[a.Args[0]] {
			return fmt.Errorf("%s: duplicate @range for %q", a.Pos, a.Args[0])
		}
		seen[a.Args[0]] = true
	}
	return nil
}

// InputRanges extracts n's @range annotations keyed by (scalarized)
// parameter name — the dataflow graph's input names. Call it on a node of
// a program Check has accepted; malformed annotations are skipped rather
// than trusted.
func InputRanges(n *dsl.Node) map[string]Range {
	var out map[string]Range
	for i := range n.Attrs {
		a := &n.Attrs[i]
		if a.Name != "range" {
			continue
		}
		ps, r, err := rangeParams(n, a)
		if err != nil {
			continue
		}
		if out == nil {
			out = make(map[string]Range)
		}
		for _, p := range ps {
			out[p.Name] = r
		}
	}
	return out
}
