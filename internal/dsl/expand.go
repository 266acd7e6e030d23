package dsl

import (
	"math/big"
	"strconv"
)

// Expand performs the macro-expansion phase of the front end: forall loops
// are statically unrolled, const-table references become integer literals,
// and array variables are scalarized into one variable per element
// ("x" of type u8[4] becomes x__0..x__3). The result contains only the
// constructs the type checker and the dataflow builder understand. A
// program without loops, arrays, or const tables is returned unchanged
// (same pointer).
func Expand(prog *Program) (*Program, error) {
	needs := false
	for _, n := range prog.Nodes {
		if n.NeedsExpansion() {
			needs = true
		}
	}
	if !needs {
		// Even a scalar program may contain stray index expressions;
		// reject them here so the error mentions arrays, not type rules.
		for _, n := range prog.Nodes {
			for _, eq := range n.Eqs {
				if bad := findIndex(eq.Rhs); bad != nil {
					return nil, errf(bad.Pos, "indexing %q, which is not an array or const table", bad.Name)
				}
			}
		}
		return prog, nil
	}
	out := &Program{}
	for _, n := range prog.Nodes {
		en, err := expandNode(n)
		if err != nil {
			return nil, err
		}
		out.Nodes = append(out.Nodes, en)
	}
	return out, nil
}

// findIndex locates an Index expression in a tree (nil if none).
func findIndex(x Expr) *Index {
	switch x := x.(type) {
	case *Index:
		return x
	case *Unary:
		return findIndex(x.X)
	case *Binary:
		if b := findIndex(x.X); b != nil {
			return b
		}
		return findIndex(x.Y)
	case *Cond:
		for _, sub := range []Expr{x.C, x.T, x.F} {
			if b := findIndex(sub); b != nil {
				return b
			}
		}
	case *Call:
		for _, a := range x.Args {
			if b := findIndex(a); b != nil {
				return b
			}
		}
	}
	return nil
}

// ParseAndExpand parses and macro-expands in one step — the canonical
// front-end entry point.
func ParseAndExpand(src string) (*Program, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Expand(prog)
}

// ElemName returns the scalarized name of array element base[i].
func ElemName(base string, i int) string { return base + "__" + strconv.Itoa(i) }

type expander struct {
	node   *Node
	arrays map[string]Type        // array-typed variables
	tables map[string]*ConstTable // const tables
	out    *Node
}

func expandNode(n *Node) (*Node, error) {
	e := &expander{
		node:   n,
		arrays: make(map[string]Type),
		tables: make(map[string]*ConstTable),
		out: &Node{
			Name:  n.Name,
			Attrs: n.Attrs,
			Pos:   n.Pos,
		},
	}
	for _, ct := range n.Consts {
		if _, dup := e.tables[ct.Name]; dup {
			return nil, errf(ct.Pos, "const table %q redefined", ct.Name)
		}
		e.tables[ct.Name] = ct
	}
	scalarize := func(ps []Param) []Param {
		var out []Param
		for _, p := range ps {
			if !p.Type.IsArray() {
				out = append(out, p)
				continue
			}
			e.arrays[p.Name] = p.Type
			for i := 0; i < p.Type.Count; i++ {
				out = append(out, Param{
					Name: ElemName(p.Name, i),
					Type: Type{Bits: p.Type.Bits},
					Pos:  p.Pos,
				})
			}
		}
		return out
	}
	e.out.Params = scalarize(n.Params)
	e.out.Returns = scalarize(n.Returns)
	e.out.Locals = scalarize(n.Locals)

	env := map[string]int{} // loop variables in scope
	if err := e.expandStmts(n.Eqs, n.Loops, env); err != nil {
		return nil, err
	}
	return e.out, nil
}

// expandStmts unrolls equations then loops (dataflow semantics make
// statement order irrelevant, so grouping is harmless).
func (e *expander) expandStmts(eqs []*Equation, loops []*ForAll, env map[string]int) error {
	for _, eq := range eqs {
		if err := e.expandEquation(eq, env); err != nil {
			return err
		}
	}
	for _, fa := range loops {
		if _, shadow := env[fa.Var]; shadow {
			return errf(fa.Pos, "loop variable %q shadows an enclosing loop variable", fa.Var)
		}
		for i := fa.From; i <= fa.To; i++ {
			env[fa.Var] = i
			if err := e.expandStmts(fa.Eqs, fa.Loops, env); err != nil {
				return err
			}
		}
		delete(env, fa.Var)
	}
	return nil
}

func (e *expander) expandEquation(eq *Equation, env map[string]int) error {
	out := &Equation{Pos: eq.Pos}
	for i, name := range eq.Lhs {
		var idx Expr
		if i < len(eq.LhsIdx) {
			idx = eq.LhsIdx[i]
		}
		if idx == nil {
			if _, isArr := e.arrays[name]; isArr {
				return errf(eq.Pos, "array %q assigned without an index", name)
			}
			out.Lhs = append(out.Lhs, name)
			continue
		}
		ty, isArr := e.arrays[name]
		if !isArr {
			return errf(eq.Pos, "indexing non-array %q on the left-hand side", name)
		}
		iv, err := e.constIndex(idx, env, ty.Count, name)
		if err != nil {
			return err
		}
		out.Lhs = append(out.Lhs, ElemName(name, iv))
	}
	out.LhsIdx = make([]Expr, len(out.Lhs))
	rhs, err := e.expandExpr(eq.Rhs, env)
	if err != nil {
		return err
	}
	out.Rhs = rhs
	e.out.Eqs = append(e.out.Eqs, out)
	return nil
}

// constIndex evaluates an index expression to a constant under env.
func (e *expander) constIndex(idx Expr, env map[string]int, count int, base string) (int, error) {
	if v, ok := smallConst(idx, env); ok && v >= 0 && v < int64(count) {
		return int(v), nil
	}
	v, err := evalConst(idx, env)
	if err != nil {
		return 0, err
	}
	if !v.IsInt64() || v.Int64() < 0 || v.Int64() >= int64(count) {
		return 0, errf(idx.ExprPos(), "index %s out of range for %s[%d]", v, base, count)
	}
	return int(v.Int64()), nil
}

// smallConst is evalConst on int64 for the indices that need nothing
// more: literals, loop variables and + - * of them, every value within
// ±2^31 so no step overflows. Otherwise ok is false and evalConst, which
// also words every error, decides.
func smallConst(x Expr, env map[string]int) (v int64, ok bool) {
	const lim = 1 << 31
	switch x := x.(type) {
	case *IntLit:
		v, ok = x.Value.Int64(), x.Value.IsInt64()
	case *Ident:
		var i int
		i, ok = env[x.Name]
		v = int64(i)
	case *Binary:
		a, okA := smallConst(x.X, env)
		b, okB := smallConst(x.Y, env)
		ok = okA && okB
		switch x.Op {
		case OpAdd:
			v = a + b
		case OpSub:
			v = a - b
		case OpMul:
			v = a * b
		default:
			ok = false
		}
	}
	return v, ok && v > -lim && v < lim
}

// evalConst evaluates an expression of literals and loop variables.
func evalConst(x Expr, env map[string]int) (*big.Int, error) {
	switch x := x.(type) {
	case *IntLit:
		return x.Value, nil
	case *Ident:
		if v, ok := env[x.Name]; ok {
			return big.NewInt(int64(v)), nil
		}
		return nil, errf(x.Pos, "index uses %q, which is not a loop variable or literal", x.Name)
	case *Unary:
		v, err := evalConst(x.X, env)
		if err != nil {
			return nil, err
		}
		if x.Op == OpNegU {
			return new(big.Int).Neg(v), nil
		}
		return nil, errf(x.Pos, "operator %s not allowed in a constant index", x.Op)
	case *Binary:
		a, err := evalConst(x.X, env)
		if err != nil {
			return nil, err
		}
		b, err := evalConst(x.Y, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case OpAdd:
			return new(big.Int).Add(a, b), nil
		case OpSub:
			return new(big.Int).Sub(a, b), nil
		case OpMul:
			return new(big.Int).Mul(a, b), nil
		case OpShl:
			if !b.IsInt64() || b.Int64() < 0 || b.Int64() > 63 {
				return nil, errf(x.Pos, "shift amount out of range in constant index")
			}
			return new(big.Int).Lsh(a, uint(b.Int64())), nil
		case OpShr:
			if !b.IsInt64() || b.Int64() < 0 || b.Int64() > 63 {
				return nil, errf(x.Pos, "shift amount out of range in constant index")
			}
			return new(big.Int).Rsh(a, uint(b.Int64())), nil
		}
		return nil, errf(x.Pos, "operator %s not allowed in a constant index", x.Op)
	}
	return nil, errf(x.ExprPos(), "expression not constant at expansion time")
}

// expandExpr rewrites an expression under the loop environment: loop
// variables become literals, array references become scalar identifiers,
// const-table references become literals.
func (e *expander) expandExpr(x Expr, env map[string]int) (Expr, error) {
	switch x := x.(type) {
	case *Ident:
		if v, ok := env[x.Name]; ok {
			return &IntLit{Value: big.NewInt(int64(v)), Pos: x.Pos}, nil
		}
		if _, isArr := e.arrays[x.Name]; isArr {
			return nil, errf(x.Pos, "array %q used without an index", x.Name)
		}
		if _, isTab := e.tables[x.Name]; isTab {
			return nil, errf(x.Pos, "const table %q used without an index", x.Name)
		}
		return x, nil
	case *IntLit:
		return x, nil
	case *Index:
		if ct, ok := e.tables[x.Name]; ok {
			iv, err := e.constIndex(x.Idx, env, ct.Type.Count, x.Name)
			if err != nil {
				return nil, err
			}
			return &IntLit{Value: ct.Values[iv], Width: ct.Type.Bits, Pos: x.Pos}, nil
		}
		ty, ok := e.arrays[x.Name]
		if !ok {
			return nil, errf(x.Pos, "indexing %q, which is not an array or const table", x.Name)
		}
		iv, err := e.constIndex(x.Idx, env, ty.Count, x.Name)
		if err != nil {
			return nil, err
		}
		return &Ident{Name: ElemName(x.Name, iv), Pos: x.Pos}, nil
	case *Unary:
		sub, err := e.expandExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: x.Op, X: sub, Pos: x.Pos}, nil
	case *Binary:
		a, err := e.expandExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		b, err := e.expandExpr(x.Y, env)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: x.Op, X: a, Y: b, Pos: x.Pos}, nil
	case *Cond:
		c, err := e.expandExpr(x.C, env)
		if err != nil {
			return nil, err
		}
		t, err := e.expandExpr(x.T, env)
		if err != nil {
			return nil, err
		}
		f, err := e.expandExpr(x.F, env)
		if err != nil {
			return nil, err
		}
		return &Cond{C: c, T: t, F: f, Pos: x.Pos}, nil
	case *Call:
		out := &Call{Name: x.Name, Pos: x.Pos}
		for _, a := range x.Args {
			ea, err := e.expandExpr(a, env)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, ea)
		}
		return out, nil
	}
	return nil, errf(x.ExprPos(), "unsupported expression in expansion")
}
