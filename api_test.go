package chopper

// The public surface as a checked artifact: every exported function and
// method of the root package, with its signature, every other exported name
// (types, constants, variables), and every field a caller can set on Options
// (nested Geometry, Budget and Recovery included), held against
// testdata/api.golden. An added name or knob then shows up in review
// as a diff of that file, the way bench_results.txt does for figures.
// Regenerate with: go test -run TestPublicSurface -update .

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden from the source")

// parseDir parses the non-test Go files of one package directory.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

func render(fset *token.FileSet, n ast.Node) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, n); err != nil {
		panic(err)
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// structFields lists the fields of the struct type `name` declared in files.
func structFields(files []*ast.File, name string) []*ast.Field {
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, sp := range gd.Specs {
				if ts, ok := sp.(*ast.TypeSpec); ok && ts.Name.Name == name {
					if st, ok := ts.Type.(*ast.StructType); ok {
						return st.Fields.List
					}
				}
			}
		}
	}
	return nil
}

func TestPublicSurface(t *testing.T) {
	fset := token.NewFileSet()
	root := parseDir(t, fset, ".")

	var funcs, names []string
	ops := 0
	for _, f := range root {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				for _, sp := range gd.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							names = append(names, "type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								names = append(names, gd.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv != nil && !ast.IsExported(strings.TrimLeft(render(fset, fd.Recv.List[0].Type), "*")) {
				continue // a method of an unexported type
			}
			sig := *fd
			sig.Doc, sig.Body = nil, nil
			funcs = append(funcs, render(fset, &sig))
			// An operation entry point compiles, runs or checks a kernel: it
			// can fail.
			if res := fd.Type.Results; res != nil && render(fset, res.List[len(res.List)-1].Type) == "error" {
				for _, verb := range []string{"Compile", "Run", "Verify", "Reliability"} {
					if strings.HasPrefix(fd.Name.Name, verb) {
						ops++
						break
					}
				}
			}
		}
	}
	sort.Strings(funcs)
	sort.Strings(names)

	// Options and the structs nested in it, each where it is declared.
	var fields []string
	leaves := 0
	nested := map[string][]*ast.Field{
		"Recovery":      structFields(root, "Recovery"),
		"Budget":        structFields(parseDir(t, fset, "internal/guard"), "Budget"),
		"dram.Geometry": structFields(parseDir(t, fset, "internal/dram"), "Geometry"),
	}
	var walk func(prefix string, list []*ast.Field)
	walk = func(prefix string, list []*ast.Field) {
		if len(list) == 0 {
			t.Fatalf("%s: struct not found", prefix)
		}
		for _, fl := range list {
			typ := render(fset, fl.Type)
			for _, n := range fl.Names {
				if !n.IsExported() {
					continue
				}
				fields = append(fields, fmt.Sprintf("field %s.%s %s", prefix, n.Name, typ))
				if sub, ok := nested[typ]; ok {
					walk(prefix+"."+n.Name, sub)
				} else {
					leaves++
				}
			}
		}
	}
	walk("Options", structFields(root, "Options"))

	var b strings.Builder
	b.WriteString("# Public surface of package chopper (api_test.go). Regenerate: go test -run TestPublicSurface -update .\n")
	fmt.Fprintf(&b, "# %d exported functions and methods, %d of them operation entry points (Compile*/Run*/Verify*/Reliability* returning an error); %d other exported names; %d leaf fields on Options.\n",
		len(funcs), ops, len(names), leaves)
	for _, s := range append(funcs, names...) {
		b.WriteString(s + "\n")
	}
	for _, s := range fields {
		b.WriteString(s + "\n")
	}
	got := b.String()

	const golden = "testdata/api.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), map[string]bool{}
		for _, l := range strings.Split(string(want), "\n") {
			wantLines[l] = true
		}
		for _, l := range gotLines {
			if !wantLines[l] {
				t.Errorf("not in %s: %s", golden, l)
			}
			delete(wantLines, l)
		}
		for l := range wantLines {
			t.Errorf("only in %s: %s", golden, l)
		}
		t.Fatalf("the public surface changed; if intended, regenerate with -update and review the diff of %s", golden)
	}
}
