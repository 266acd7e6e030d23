package chopper

// The internal packages' exported API as a checked artifact: every exported
// function, method, type, constant, variable and struct field in internal/,
// classed by the most privileged path that reaches it, held against
// testdata/internal_api.golden. The classes, best first:
//
//	product    reached from the root package's exported API, a main or an init
//	benchmark  reached from benchmark/ (its own module), and not from product
//	test       reached from a _test.go file only
//	none       reached from nothing
//
// Reaching is reading, followed through declarations: a declaration has the
// most privileged class of the declarations that read it, each capped by the
// class of the file the read is in, so a helper only a dead function calls is
// dead too. A test or none identifier must carry a reason in
// internalAllowlist, and an unexported package-level identifier or method
// of product code that nothing reaches fails outright. The golden is
// ROADMAP 1(b)'s checklist of what only benchmark/ keeps alive.
// Regenerate with: go test -run TestInternalSurface -update .
//
// What counts as a read: every use the type checker records, except a
// struct composite-literal key and the target of an assignment or ++/--,
// which only write (an option that is accepted and never read is dead), and
// except the receiver of a type's own methods. Reaching a field or method
// through an embedded field reads the embedded field, and a use of a
// generic instantiation reads its origin. A struct field reads its own
// type. A method through which its type implements an interface declared
// in the standard library or the checkout is read by its type, capped by
// the class of the interface's file (product for the standard library);
// Is, As and Unwrap are read by their type, since the errors package calls
// them through interfaces it declares inline. The standard library is
// imported from source with go/importer; checkout packages are
// type-checked the way go test builds them, test variants included.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// internalAllowlist names every internal/ identifier that no product or
// benchmark path reaches, with the reason it stays.
var internalAllowlist = map[string]string{
	"baseline.Stats.ConstWrites":       baselineHashed,
	"baseline.Stats.Reads":             baselineHashed,
	"baseline.Stats.ScratchRows":       baselineHashed,
	"baseline.Stats.TotalInstructions": baselineHashed,
	"baseline.Stats.Writes":            baselineHashed,

	"bench.Harness.SpillsInBaseline":   paperTableHelper,
	"bench.RecoveryCoverageSweepCtx":   paperTableHelper,
	"bench.ReliabilitySweepCtx":        paperTableHelper,
	"bench.Table.GeoMean":              paperTableHelper,
	"bench.RecoveryFaultModel":         recoverySweepPart,
	"bench.RecoveryFaultModel.Cfg":     recoverySweepPart,
	"bench.RecoveryFaultModel.Name":    recoverySweepPart,
	"bench.RecoveryFaultModels":        recoverySweepPart,
	"bench.RecoveryPolicies":           recoverySweepPart,
	"bench.RecoveryPoint":              recoverySweepPart,
	"bench.RecoveryPoint.Corrected":    recoverySweepPart,
	"bench.RecoveryPoint.Detections":   recoverySweepPart,
	"bench.RecoveryPoint.Model":        recoverySweepPart,
	"bench.RecoveryPoint.Policy":       recoverySweepPart,
	"bench.RecoveryPoint.SDCRate":      recoverySweepPart,
	"bench.RecoveryPoint.TimeOverhead": recoverySweepPart,
	"bench.RecoveryPoint.Uncorrected":  recoverySweepPart,
	"bench.RecoveryPoint.UopOverhead":  recoverySweepPart,

	"bitslice.Options.Workers": "accepted and ignored since parallel bit-slicing went; benchmark/staged.go still sets it, so it goes with ROADMAP 1(a)",
	"codegen.Stats.Drops":      "library callers read it through chopper.Kernel.Stats",
	"codegen.Stats.Reads":      "library callers read it through chopper.Kernel.Stats",
	"dram.Timing.TRAS":         ddr4Timing,
	"dram.Timing.TRC":          ddr4Timing,
	"dram.Timing.TRCD":         ddr4Timing,
	"dram.Timing.TRP":          ddr4Timing,
	"dsl.LexAll":               "the whole token stream the lexer tests check; the parser pulls tokens one at a time",
	"isa.Program.Format":       "the assembly text the determinism tests and the golden program digests compare",
	"logic.BuilderOptions.CSE": "accepted and ignored since structural hashing became unconditional; benchmark/staged.go still sets it, so it goes with ROADMAP 1(a)",
	"logic.Net.Eval":           proveOracle,
	"logic.Net.EvalFaulty":     "the per-fault oracle the hardening tests hold TMR nets against",
	"narrow.GenGraph":          "fuzz generator for random range-annotated graphs, shared by the narrow and root equivalence tests",
	"sim.Subarray.Row":         "the sim tests read a row of a subarray back with it",
	"sim.APFates":              "the root package's TRA-fault differential test aims single faults at a live and a folded AP with it",
	"sim.Walk":                 "how internal/prove reads the translation it proves, instruction by instruction; ROADMAP 13 puts the proof on the product path",
	"workloads.Spec.Config":    tableIICoords,
	"workloads.Spec.Domain":    tableIICoords,

	"prove.Check":          proveOracle,
	"prove.Proved":         proveResult,
	"prove.Refuted":        proveResult,
	"prove.Result":         proveResult,
	"prove.Result.Inputs":  proveResult,
	"prove.Result.Lanes":   proveResult,
	"prove.Result.Op":      proveResult,
	"prove.Result.Output":  proveResult,
	"prove.Result.Reason":  proveResult,
	"prove.Result.String":  proveResult,
	"prove.Result.Verdict": proveResult,
	"prove.Unproven":       proveResult,
	"prove.Verdict":        proveResult,
	"prove.Verdict.String": proveResult,
}

const (
	baselineHashed    = "golden_baseline_test.go hashes baseline.Stats with %+v; deleting a field re-pins every baseline digest"
	paperTableHelper  = "an internal/bench experiment the paper-table tests drive"
	recoverySweepPart = "input or per-cell result of RecoveryCoverageSweepCtx; the recovery tests read it and print it with %+v"
	ddr4Timing        = "TimingFor fills it from the DDR4 datasheet; the schedule validator of ROADMAP 7(b) reads it"
	proveOracle       = "the oracle internal/prove checks every compiled program against; ROADMAP 13 puts it on the product path"
	proveResult       = "part of prove.Check's result"
	tableIICoords     = "the Table II coordinates (domain, knob) the tests select kernels by"
)

const internalGolden = "testdata/internal_api.golden"

// Read classes, ordered so that a larger one is more privileged.
const (
	clsNone = iota
	clsTest
	clsBenchmark
	clsProduct
)

var clsNames = [...]string{"none", "test", "benchmark", "product"}

// srcPkg is one package directory of the checkout.
type srcPkg struct {
	path   string // import path
	bench  bool   // under benchmark/, its own module
	files  []*ast.File
	tests  []*ast.File // _test.go files in the package itself
	xtests []*ast.File // _test.go files of the external test package
	deps   []string    // checkout packages the non-test files import
}

// surfaceScan type-checks the whole checkout. Every file is parsed once and
// its *ast.File shared by each package variant that includes it, so one
// declaration has one token.Pos however many times it is checked; objects
// are keyed by that position.
type surfaceScan struct {
	fset    *token.FileSet
	pkgs    map[string]*srcPkg
	class   map[*ast.File]int
	filePkg map[*ast.File]string
	std     types.Importer
	info    *types.Info
	checked map[string]*types.Package // "path" or "path|test-of" → package
	needs   map[[2]string]bool        // does the first path depend on the second?
	// ifaces maps a method key to the interfaces that require it, each as
	// the keys of its whole method set and the class of its declaration.
	ifaces map[string][]ifaceClass
	msets  map[*types.Named]map[string]bool
}

type ifaceClass struct {
	keys []string
	cls  int
}

// methodKey names a method by its identity and signature in terms of
// package paths, so that it compares equal across the package variants
// the scan checks a package in.
func methodKey(m *types.Func) string {
	qual := func(p *types.Package) string { return p.Path() }
	sig := m.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(m.Id())
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			b.WriteString(types.TypeString(t.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}

// stdImporter is shared by every scan: the standard library does not change
// between them, and importing it is most of a scan's time.
var stdImporter = sync.OnceValue(func() types.Importer {
	return importer.ForCompiler(token.NewFileSet(), "source", nil)
})

const modulePath = "chopper"

// loadCheckout parses every package directory under root; extra maps a
// path relative to root to the source of a file added to that directory.
func loadCheckout(root string, extra map[string]string) (*surfaceScan, error) {
	s := &surfaceScan{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*srcPkg{},
		class:   map[*ast.File]int{},
		filePkg: map[*ast.File]string{},
		std:     stdImporter(),
		checked: map[string]*types.Package{},
		needs:   map[[2]string]bool{},
		msets:   map[*types.Named]map[string]bool{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	byDir := map[string][]string{}
	for name := range extra {
		byDir[filepath.Dir(name)] = append(byDir[filepath.Dir(name)], filepath.Base(name))
	}
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		base := d.Name()
		if rel != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		return s.loadDir(dir, filepath.ToSlash(rel), byDir[rel], extra)
	})
	return s, err
}

func (s *surfaceScan) loadDir(dir, rel string, extraNames []string, extra map[string]string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	names := extraNames
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	p := &srcPkg{path: path.Join(modulePath, rel), bench: rel == "benchmark" || strings.HasPrefix(rel, "benchmark/")}
	deps := map[string]bool{}
	for _, name := range names {
		var src any
		if text, ok := extra[path.Join(rel, name)]; ok {
			src = text
		} else if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(name, "_test.go")
		s.filePkg[f] = p.path
		switch {
		case isTest && strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		case isTest:
			p.tests = append(p.tests, f)
		default:
			p.files = append(p.files, f)
			for _, im := range f.Imports {
				if ip := strings.Trim(im.Path.Value, `"`); isCheckout(ip) && !deps[ip] {
					deps[ip] = true
					p.deps = append(p.deps, ip)
				}
			}
		}
		switch {
		case isTest:
			s.class[f] = clsTest
		case p.bench:
			s.class[f] = clsBenchmark
		default:
			s.class[f] = clsProduct
		}
	}
	if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
		s.pkgs[p.path] = p
	}
	return nil
}

func isCheckout(importPath string) bool {
	return importPath == modulePath || strings.HasPrefix(importPath, modulePath+"/")
}

// dependsOn reports whether package p is d or imports it, directly or not.
func (s *surfaceScan) dependsOn(p, d string) bool {
	if p == d {
		return true
	}
	k := [2]string{p, d}
	if v, ok := s.needs[k]; ok {
		return v
	}
	s.needs[k] = false
	for _, q := range s.pkgs[p].deps {
		if s.dependsOn(q, d) {
			s.needs[k] = true
			break
		}
	}
	return s.needs[k]
}

// importer resolves checkout imports the way go test builds the tests of
// package testOf: testOf itself with its in-package test files, every
// package that imports it rebuilt against that, the rest as they are.
type scanImporter struct {
	s      *surfaceScan
	testOf string
}

func (im scanImporter) Import(ip string) (*types.Package, error) {
	if !isCheckout(ip) {
		return im.s.std.Import(ip)
	}
	return im.s.pkg(ip, im.testOf)
}

// pkg type-checks package p as built for the tests of testOf ("" for the
// product build).
func (s *surfaceScan) pkg(p, testOf string) (*types.Package, error) {
	sp := s.pkgs[p]
	if sp == nil {
		return nil, fmt.Errorf("package %s is not in the checkout", p)
	}
	if testOf != "" && !s.dependsOn(p, testOf) {
		testOf = ""
	}
	key := p + "|" + testOf
	if tp, ok := s.checked[key]; ok {
		return tp, nil
	}
	files := sp.files
	if testOf == p {
		files = append(append([]*ast.File(nil), sp.files...), sp.tests...)
	}
	tp, err := s.check(p, files, testOf)
	s.checked[key] = tp
	return tp, err
}

func (s *surfaceScan) check(p string, files []*ast.File, testOf string) (*types.Package, error) {
	conf := types.Config{Importer: scanImporter{s, testOf}, GoVersion: "go1.22"}
	return conf.Check(p, s.fset, files, s.info)
}

// checkAll type-checks every product and benchmark package, every test
// variant and every external test package.
func (s *surfaceScan) checkAll() error {
	paths := make([]string, 0, len(s.pkgs))
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		sp := s.pkgs[p]
		if len(sp.files) > 0 {
			if _, err := s.pkg(p, ""); err != nil {
				return err
			}
		}
		if len(sp.tests) > 0 || len(sp.xtests) > 0 {
			if _, err := s.pkg(p, p); err != nil {
				return err
			}
		}
		if len(sp.xtests) > 0 {
			if _, err := s.check(p+"_test", sp.xtests, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectInterfaces gathers the interfaces a method can satisfy: the named
// ones the standard library exports, and every interface type the checkout
// declares or writes inline, each with the class of its file.
func (s *surfaceScan) collectInterfaces() {
	s.ifaces = map[string][]ifaceClass{}
	seenIface := map[string]bool{}
	add := func(t types.Type, cls int) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		ic := ifaceClass{cls: cls}
		for i := 0; i < it.NumMethods(); i++ {
			ic.keys = append(ic.keys, methodKey(it.Method(i)))
		}
		sort.Strings(ic.keys)
		if id := fmt.Sprint(ic); !seenIface[id] {
			seenIface[id] = true
			for _, k := range ic.keys {
				s.ifaces[k] = append(s.ifaces[k], ic)
			}
		}
	}
	add(types.Universe.Lookup("error").Type(), clsProduct)
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, q := range p.Imports() {
			walk(q)
		}
		if isCheckout(p.Path()) {
			return
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				add(tn.Type(), clsProduct)
			}
		}
	}
	for _, tp := range s.checked {
		if tp != nil {
			walk(tp)
		}
	}
	for f, cls := range s.class {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				if tv, ok := s.info.Types[it]; ok {
					add(tv.Type, cls)
				}
			}
			return true
		})
	}
}

// scanDecl is one top-level declaration, or one field of a struct type
// declaration: the objects it declares, the class it has whoever reads it,
// and what it reads.
type scanDecl struct {
	objs  []token.Pos
	root  int
	reads []scanEdge
}

// scanEdge is one read: of the object declared at to, by a file of class
// cap (or through an interface of class cap).
type scanEdge struct {
	to  token.Pos
	cap int
}

// classes maps each declaration's position to its class: the most
// privileged class of the declarations that read it, each capped by the
// class of the file the read is in. The roots are test and benchmark
// files, the root package's exported API, main and init functions and
// blank variables; a declaration nothing reaches from one is none, however
// many dead declarations read it.
func (s *surfaceScan) classes() map[token.Pos]int {
	var decls []*scanDecl
	for f, fc := range s.class {
		rootAPI := fc == clsProduct && s.filePkg[f] == modulePath
		notRead := map[*ast.Ident]bool{}
		target := func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				notRead[e] = true
			case *ast.SelectorExpr:
				notRead[e.Sel] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					target(l)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := s.info.Uses[id].(*types.Var); ok && v.IsField() {
								notRead[id] = true
							}
						}
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							notRead[id] = true
						}
						return true
					})
				}
			}
			return true
		})
		read := func(d *scanDecl, obj types.Object) {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj.Pkg() != nil && isCheckout(obj.Pkg().Path()) {
				d.reads = append(d.reads, scanEdge{obj.Pos(), fc})
			}
		}
		readsIn := func(d *scanDecl, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := s.info.Uses[n]; obj != nil && !notRead[n] {
						read(d, obj)
					}
				case *ast.SelectorExpr:
					sel := s.info.Selections[n]
					if sel == nil {
						break
					}
					// The embedded fields the selection passes through.
					t := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						if p, ok := t.Underlying().(*types.Pointer); ok {
							t = p.Elem()
						}
						st := t.Underlying().(*types.Struct)
						read(d, st.Field(i))
						t = st.Field(i).Type()
					}
				}
				return true
			})
		}
		// rootIf is the class a declaration has on its own: that of its file
		// outside product code, product for the root package's API.
		rootIf := func(api bool) int {
			if fc != clsProduct || (rootAPI && api) {
				return fc
			}
			return clsNone
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				api := decl.Name.IsExported()
				if recv := s.info.Defs[decl.Name].Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					api = api && t.(*types.Named).Obj().Exported()
				}
				d := &scanDecl{objs: []token.Pos{decl.Name.Pos()}, root: rootIf(api)}
				if name := decl.Name.Name; decl.Recv == nil && (name == "main" || name == "init") {
					d.root = fc
				}
				readsIn(d, decl)
				decls = append(decls, d)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						d := &scanDecl{}
						for _, n := range spec.Names {
							d.root = max(d.root, rootIf(n.IsExported()))
							if n.Name == "_" {
								d.root = fc
							} else {
								d.objs = append(d.objs, n.Pos())
							}
						}
						readsIn(d, spec)
						decls = append(decls, d)
					case *ast.TypeSpec:
						d := &scanDecl{objs: []token.Pos{spec.Name.Pos()}, root: rootIf(spec.Name.IsExported())}
						decls = append(decls, d)
						named, _ := s.info.Defs[spec.Name].Type().(*types.Named)
						if named != nil && !types.IsInterface(named) {
							for i := 0; i < named.NumMethods(); i++ {
								m := named.Method(i)
								if c := s.protocolClass(m, named); c > clsNone {
									d.reads = append(d.reads, scanEdge{m.Pos(), c})
								}
							}
						}
						st, ok := spec.Type.(*ast.StructType)
						if !ok || named == nil {
							readsIn(d, spec)
							continue
						}
						if spec.TypeParams != nil {
							readsIn(d, spec.TypeParams)
						}
						// Each field reads its own type.
						fields, i := named.Underlying().(*types.Struct), 0
						for _, fl := range st.Fields.List {
							fd := &scanDecl{}
							for range max(len(fl.Names), 1) {
								v := fields.Field(i)
								i++
								fd.objs = append(fd.objs, v.Pos())
								fd.root = max(fd.root, rootIf(spec.Name.IsExported() && v.Exported()))
							}
							readsIn(fd, fl.Type)
							decls = append(decls, fd)
						}
					}
				}
			}
		}
	}

	cls := map[token.Pos]int{}
	owners := map[token.Pos][]*scanDecl{}
	for _, d := range decls {
		for _, o := range d.objs {
			owners[o] = append(owners[o], d)
			cls[o] = max(cls[o], d.root)
		}
	}
	work := decls
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		c := d.root
		for _, o := range d.objs {
			c = max(c, cls[o])
		}
		for _, e := range d.reads {
			if v := min(c, e.cap); v > cls[e.to] {
				cls[e.to] = v
				work = append(work, owners[e.to]...)
			}
		}
	}
	return cls
}

// protocolClass is the class a method of named reads with because named
// implements an interface through it (the interface's class), or because
// it is part of the error protocol (product).
func (s *surfaceScan) protocolClass(m *types.Func, named *types.Named) int {
	switch m.Name() {
	case "Is", "As", "Unwrap":
		return clsProduct
	}
	mset := s.msets[named]
	if mset == nil {
		mset = map[string]bool{}
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			mset[methodKey(ms.At(i).Obj().(*types.Func))] = true
		}
		s.msets[named] = mset
	}
	best := clsNone
	for _, ic := range s.ifaces[methodKey(m)] {
		if ic.cls > best && !slices.ContainsFunc(ic.keys, func(k string) bool { return !mset[k] }) {
			best = ic.cls
		}
	}
	return best
}

// surfaceEntry is one exported identifier of internal/.
type surfaceEntry struct {
	name, kind string
	cls        int
}

// surfaceReport is a scan's result: the inventory, and every unexported
// product identifier nothing reaches.
type surfaceReport struct {
	entries []surfaceEntry
	unread  []string
}

func (s *surfaceScan) report() surfaceReport {
	s.collectInterfaces()
	r := s.classes()
	var rep surfaceReport
	classOf := func(obj types.Object) int { return r[obj.Pos()] }
	paths := make([]string, 0, len(s.pkgs))
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		sp, tp := s.pkgs[p], s.checked[p+"|"]
		if tp == nil || sp.bench {
			continue
		}
		internal := strings.HasPrefix(p, modulePath+"/internal/")
		short := strings.TrimPrefix(p, modulePath+"/internal/")
		add := func(name, kind string, obj types.Object) {
			rep.entries = append(rep.entries, surfaceEntry{short + "." + name, kind, classOf(obj)})
		}
		unexported := func(name string, obj types.Object) {
			if classOf(obj) == clsNone {
				rep.unread = append(rep.unread, fmt.Sprintf("%s: %s.%s", s.fset.Position(obj.Pos()), tp.Name(), name))
			}
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				if name != "init" && name != "main" && name != "_" {
					unexported(name, obj)
				}
			} else if internal {
				kind := "type"
				switch obj.(type) {
				case *types.Func:
					kind = "func"
				case *types.Const:
					kind = "const"
				case *types.Var:
					kind = "var"
				}
				add(name, kind, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				switch {
				case !m.Exported():
					unexported(name+"."+m.Name(), m)
				case internal && obj.Exported():
					add(name+"."+m.Name(), "method", m)
				}
			}
			if !internal || !obj.Exported() {
				continue
			}
			switch u := named.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						add(name+"."+m.Name(), "method", m)
					}
				}
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() {
						add(name+"."+f.Name(), "field", f)
					}
				}
			}
		}
	}
	sort.Slice(rep.entries, func(i, j int) bool { return rep.entries[i].name < rep.entries[j].name })
	return rep
}

// scanCheckout loads, type-checks and classifies the checkout at root.
func scanCheckout(root string, extra map[string]string) (surfaceReport, error) {
	s, err := loadCheckout(root, extra)
	if err != nil {
		return surfaceReport{}, err
	}
	if err := s.checkAll(); err != nil {
		return surfaceReport{}, err
	}
	return s.report(), nil
}

// problems lists what fails the check: an unallowlisted test or none
// entry, a stale allowlist entry, and an unexported identifier nothing
// reaches.
func (rep surfaceReport) problems(allow map[string]string) []string {
	var out []string
	listed := map[string]bool{}
	for _, e := range rep.entries {
		if e.cls > clsTest {
			continue
		}
		listed[e.name] = true
		if strings.TrimSpace(allow[e.name]) == "" {
			out = append(out, fmt.Sprintf("%s %s is reached by %s; delete it, or allowlist it with a reason", e.kind, e.name, map[int]string{clsTest: "tests only", clsNone: "nothing"}[e.cls]))
		}
	}
	for name := range allow {
		if !listed[name] {
			out = append(out, fmt.Sprintf("allowlist entry %s names no test-only or unread identifier; drop it", name))
		}
	}
	for _, u := range rep.unread {
		out = append(out, "nothing reaches "+u)
	}
	sort.Strings(out)
	return out
}

func (rep surfaceReport) golden() string {
	var count [4]int
	for _, e := range rep.entries {
		count[e.cls]++
	}
	var b strings.Builder
	b.WriteString("# Exported identifiers of internal/, classed by the most privileged path that reaches them (internal_api_test.go).\n")
	b.WriteString("# Regenerate: go test -run TestInternalSurface -update .\n")
	fmt.Fprintf(&b, "# %d identifiers: %d product, %d benchmark, %d test, %d none.\n",
		len(rep.entries), count[clsProduct], count[clsBenchmark], count[clsTest], count[clsNone])
	for _, e := range rep.entries {
		fmt.Fprintf(&b, "%-9s %-6s %s\n", clsNames[e.cls], e.kind, e.name)
	}
	return b.String()
}

func TestInternalSurface(t *testing.T) {
	start := time.Now()
	rep, err := scanCheckout(".", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scanned the checkout in %v", time.Since(start).Round(time.Millisecond))
	for _, p := range rep.problems(internalAllowlist) {
		t.Error(p)
	}
	got := rep.golden()
	if *update {
		if err := os.WriteFile(internalGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(internalGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wantLines := map[string]bool{}
		sc := bufio.NewScanner(strings.NewReader(string(want)))
		for sc.Scan() {
			wantLines[sc.Text()] = true
		}
		for _, l := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
			if !wantLines[l] {
				t.Errorf("not in %s: %s", internalGolden, l)
			}
			delete(wantLines, l)
		}
		for l := range wantLines {
			t.Errorf("only in %s: %s", internalGolden, l)
		}
		t.Fatalf("the internal surface changed; if intended, regenerate with -update and review the diff of %s", internalGolden)
	}
}

// TestInternalSurfaceProbe scans the checkout with two extra files and
// checks that the scan flags what it must and nothing it must not: an
// exported function nothing calls, a field only ever written and an
// unexported function nothing reads fail; the FaultHook methods of a type
// reached only as a FaultHook, a generic type's method
// (kcache.Cache[K,V].Do) and methods called only through an unexported
// interface (serve's wireValue.appendJSON) do not.
func TestInternalSurfaceProbe(t *testing.T) {
	start := time.Now()
	rep, err := scanCheckout(".", map[string]string{
		"internal/sim/zz_probe.go": `package sim

import "chopper/internal/isa"

func ProbeUnused() {}

func probeUnread() {}

type ProbeHook struct{ Knob int }

func (ProbeHook) Events() isa.Events                      { return isa.EvAll }
func (ProbeHook) BeforeLoad(int, isa.Row, []uint64, int) {}
func (ProbeHook) AfterCompute(int, []uint64, int)        {}
func (ProbeHook) AfterCopy(int, []uint64, int)           {}
func (ProbeHook) AfterStore(int, isa.Row, []uint64, int) {}
`,
		"zz_probe.go": `package chopper

import "chopper/internal/sim"

func ProbeRoot() sim.FaultHook { return sim.ProbeHook{Knob: 1} }
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scanned the checkout and the probe files in %v", time.Since(start).Round(time.Millisecond))
	want := map[string]int{
		"sim.ProbeUnused":         clsNone,
		"sim.ProbeHook.Knob":      clsNone,
		"sim.ProbeHook":           clsProduct,
		"sim.ProbeHook.Events":    clsProduct,
		"sim.ProbeHook.AfterCopy": clsProduct,
		"kcache.Cache.Do":         clsProduct,
	}
	for _, e := range rep.entries {
		if c, ok := want[e.name]; ok {
			if e.cls != c {
				t.Errorf("%s classed %s, want %s", e.name, clsNames[e.cls], clsNames[c])
			}
			delete(want, e.name)
		}
	}
	for name := range want {
		t.Errorf("%s missing from the inventory", name)
	}
	problems := rep.problems(internalAllowlist)
	flagged := []string{"func sim.ProbeUnused is reached by nothing", "field sim.ProbeHook.Knob is reached by nothing", ": sim.probeUnread"}
	if len(problems) != len(flagged) {
		t.Errorf("%d problems, want %d:\n%s", len(problems), len(flagged), strings.Join(problems, "\n"))
	}
	for _, f := range flagged {
		if !slices.ContainsFunc(problems, func(p string) bool { return strings.Contains(p, f) }) {
			t.Errorf("not flagged: %s", f)
		}
	}
}
