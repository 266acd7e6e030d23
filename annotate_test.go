package chopper

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"chopper/internal/dsl"
	"chopper/internal/typecheck"
	"chopper/internal/workloads"
)

// TestTypeAnnotationsCover holds typecheck's in-place annotation to what the
// dataflow builder reads: after Check, every expression of every expanded
// equation carries a type of at least one bit (a literal shift amount:
// u32), and checking the same program again leaves the same annotations.
// The one expression without a type of its own is the tuple-valued node
// call of a multi-variable equation; its arguments are covered. Sources:
// the 16 Table-II kernels, the programs under examples/, and FuzzCompile's
// seeds that typecheck.
func TestTypeAnnotationsCover(t *testing.T) {
	srcs := map[string]string{}
	for _, s := range workloads.All() {
		srcs[s.Name] = s.Src
	}
	for name, src := range exampleSources(t) {
		srcs[name] = src
	}
	must := len(srcs)
	for i, src := range fuzzCompileSeeds {
		srcs[fmt.Sprintf("FuzzCompile seed %d", i)] = src
	}
	checked, exprs := 0, 0
	for name, src := range srcs {
		prog, err := dsl.ParseAndExpand(src)
		if err == nil {
			_, err = typecheck.Check(prog)
		}
		if err != nil {
			if !strings.HasPrefix(name, "FuzzCompile") {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		checked++
		first := annotations(t, name, prog)
		exprs += len(first)
		if _, err := typecheck.Check(prog); err != nil {
			t.Fatalf("%s: second Check: %v", name, err)
		}
		if second := annotations(t, name, prog); !slices.Equal(first, second) {
			t.Errorf("%s: a second Check changed the annotations", name)
		}
	}
	t.Logf("%d of %d sources typechecked, %d expressions annotated", checked, len(srcs), exprs)
	if checked <= must {
		t.Errorf("%d sources typechecked; want all %d kernels and examples and some fuzz seeds", checked, must)
	}
}

// annotations lists the type of every expression in prog's equations in
// walk order, failing t on any expression Check left untyped.
func annotations(t *testing.T, name string, prog *dsl.Program) []dsl.Type {
	var out []dsl.Type
	var walk func(e dsl.Expr, shiftAmount bool)
	walk = func(e dsl.Expr, shiftAmount bool) {
		ty := e.ExprType()
		out = append(out, ty)
		if shiftAmount && ty != (dsl.Type{Bits: 32}) || ty.Bits < 1 {
			t.Errorf("%s: %s at %s annotated %s", name, e, e.ExprPos(), ty)
		}
		switch e := e.(type) {
		case *dsl.Unary:
			walk(e.X, false)
		case *dsl.Binary:
			_, lit := e.Y.(*dsl.IntLit)
			walk(e.X, false)
			walk(e.Y, lit && e.Op.IsShift())
		case *dsl.Cond:
			walk(e.C, false)
			walk(e.T, false)
			walk(e.F, false)
		case *dsl.Call:
			for i, a := range e.Args {
				_, lit := a.(*dsl.IntLit)
				walk(a, lit && i == 1 && e.Name == "asr")
			}
		}
	}
	for _, n := range prog.Nodes {
		for _, eq := range n.Eqs {
			if call, ok := eq.Rhs.(*dsl.Call); ok && len(eq.Lhs) > 1 {
				for _, a := range call.Args {
					walk(a, false)
				}
				continue
			}
			walk(eq.Rhs, false)
		}
	}
	return out
}

// exampleSources collects the kernel sources the programs under examples/
// compile: string constants holding a node, and the workloads.Build calls
// (arguments given as literals or constants).
func exampleSources(t *testing.T) map[string]string {
	files, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Base(filepath.Dir(path))
		consts := map[string]constant.Value{}
		value := func(e ast.Expr) constant.Value {
			switch e := e.(type) {
			case *ast.BasicLit:
				return constant.MakeFromLiteral(e.Value, e.Kind, 0)
			case *ast.Ident:
				return consts[e.Name]
			}
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if vs, ok := n.(*ast.ValueSpec); ok {
				for i, id := range vs.Names {
					if i >= len(vs.Values) {
						continue
					}
					if v := value(vs.Values[i]); v != nil && v.Kind() != constant.Unknown {
						consts[id.Name] = v
						if v.Kind() == constant.String && strings.Contains(constant.StringVal(v), "node ") {
							out[dir+"."+id.Name] = constant.StringVal(v)
						}
					}
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Build" || fmt.Sprint(sel.X) != "workloads" {
				return true
			}
			d, c := value(call.Args[0]), value(call.Args[1])
			if d == nil || c == nil || d.Kind() != constant.String || c.Kind() != constant.Int {
				t.Fatalf("%s: cannot resolve the arguments of %s", path, fset.Position(call.Pos()))
			}
			config, _ := constant.Int64Val(c)
			spec := workloads.Build(constant.StringVal(d), int(config))
			out[dir+"."+spec.Name] = spec.Src
			return true
		})
	}
	if len(out) < 5 {
		t.Fatalf("examples/ yielded %d kernel sources, want the quickstart source and four workloads", len(out))
	}
	return out
}
