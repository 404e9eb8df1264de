// Command unused lists what no program or test reaches under internal/ and
// cmd/, in four sections, and exits 1 when any of them lists a name the
// allow-list below does not:
//
//  1. names no file of the module references;
//  2. names only _test.go files reference;
//  3. the exported fields of exported *Options and *Config structs under
//     internal/ that no program writes: no non-test file outside examples/
//     names them as a composite-literal key or assigns them outside the
//     type's own methods (so a withDefaults does not count);
//  4. the instrument names program files register through a Registry's
//     Counter, Gauge or Histogram that nothing reads. A reader is a string
//     literal naming the instrument (bare, name{k=v} or …/name) in a _test.go
//     file whose package imports the registering one, directly or not, or
//     in any Go file under bench/; or a program's Value() call on the
//     variable or field the registration was stored in. Comments and docs
//     are not readers.
//
// Declarations are package-level names, methods and struct fields; a
// reference is any use that go/types resolves to the declaration, from any
// package of the module (bench/, examples/ and the root façade included).
// Two exemptions are structural, never a list of names: a method whose
// receiver type (T or *T) implements an interface that carries the method —
// one declared in a non-test file of the module, or error, fmt.Stringer or
// sort.Interface — since it is called through the interface; and an
// exported field of a struct that reaches encoding/json (read by
// reflection). An allow-list entry that matches nothing fails the
// scan too, so an entry cannot outlive its reason. Run it through
// scripts/unused.sh.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// allowed names what the sections may list, each with the reason it stays.
// A key is the package name, a dot, and the name as the listing prints it.
var allowed = map[string]string{
	"core.RetrainOptions.LR":      "at the production rate λ/100 TestRetrainAdaptsToShiftedEnvironment does not adapt (RMSE 146.0 → 146.1); the test sets its own",
	"cluster.TierConfig.MaxQueue": "application data no built-in app sets; the cluster tests set 1–2 to reach the admission-drop path",
	"cluster.Tier.AliveFraction":  "TestReplicaCrashWindowDrivesAliveFraction (faults) checks a crash window halves the tier and the restart restores it; no stats channel or counter carries the fraction",
	"lifecycle.Manager.Live":      "TestDriftGateProtectsBlindSwapDoesNot (experiments) checks which model each arm ends on; no program-visible value names the served model",
	"nn.SharedInputs.Expand":      "builds the W = B twin of a W = 1 query that TestPredictSharedBitIdentical, TestPredictSharedContextReuse (nn), TestHybridPredictSharedBitIdentical (core), TestPredictSharedValidatesLengths (predsvc) and TestLiveWithShadowAnswersLikeItsModel (lifecycle) compare against",
	"predsvc.remoteError.Unwrap":  "errors.Is and errors.As call it through the standard library's Unwrap interface: a shed or expiry reply matches ErrOverloaded or ErrExpired by it (TestClientCountsShedsWithoutRetrying, TestClientCountsDeadlineExceeded)",
}

func main() { os.Exit(run(".", allowed, os.Stdout)) }

// listed is one package of `go list -json`, plus what the scan made of it.
type listed struct {
	Dir, ImportPath                    string
	GoFiles, TestGoFiles, XTestGoFiles []string

	files []*ast.File // GoFiles, parsed
	pkg   *types.Package
	info  *types.Info // of pkg: the non-test files alone
}

// scan type-checks a module from source. It is its own importer: module
// packages are checked on first import (non-test files only, as the
// compiler sees them), everything else goes to the source importer.
type scan struct {
	fset   *token.FileSet
	listed map[string]*listed
	std    types.ImporterFrom
	infos  []*types.Info
	files  [][]*ast.File    // the syntax infos[i] was checked from
	pkgs   []*types.Package // the package infos[i] describes
}

func (s *scan) Import(path string) (*types.Package, error) { return s.ImportFrom(path, "", 0) }

func (s *scan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := s.listed[path]
	if l == nil {
		return s.std.ImportFrom(path, dir, mode)
	}
	if l.pkg == nil {
		l.files = s.parse(l.Dir, l.GoFiles)
		l.pkg, l.info = s.check(path, l.files)
	}
	return l.pkg, nil
}

func (s *scan) parse(dir string, names []string) []*ast.File {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, n), nil, 0)
		if err != nil {
			fatal(err)
		}
		files = append(files, f)
	}
	return files
}

func (s *scan) check(path string, files []*ast.File) (*types.Package, *types.Info) {
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		fatal(err)
	}
	s.infos = append(s.infos, info)
	s.files = append(s.files, files)
	s.pkgs = append(s.pkgs, pkg)
	return pkg, info
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unused:", err)
	os.Exit(2)
}

// wire collects the positions of exported struct fields reachable from a
// type handed to an encoder.
type wire struct {
	seen   map[types.Type]bool
	fields map[token.Pos]bool
}

func (w *wire) reach(t types.Type) {
	if t == nil || w.seen[t] {
		return
	}
	w.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		w.reach(t.Underlying())
	case interface{ Elem() types.Type }: // pointer, slice, array, map, chan
		w.reach(t.Elem())
		if m, ok := t.(*types.Map); ok {
			w.reach(m.Key())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				w.fields[f.Pos()] = true
				w.reach(f.Type())
			}
		}
	}
}

func noPkg(*types.Package) string { return "" }

// stdInterfaces are the standard library's interfaces that a method of the
// module may exist to satisfy, built here so the scan need not import them.
func stdInterfaces() []*types.Interface {
	method := func(name string, params []*types.Var, result types.Type) *types.Func {
		res := types.NewTuple(types.NewVar(token.NoPos, nil, "", result))
		return types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, types.NewTuple(params...), res, false))
	}
	integer := func() *types.Var { return types.NewVar(token.NoPos, nil, "", types.Typ[types.Int]) }
	stringer := types.NewInterfaceType([]*types.Func{method("String", nil, types.Typ[types.String])}, nil)
	sortIface := types.NewInterfaceType([]*types.Func{
		method("Len", nil, types.Typ[types.Int]),
		method("Less", []*types.Var{integer(), integer()}, types.Typ[types.Bool]),
		types.NewFunc(token.NoPos, nil, "Swap", types.NewSignatureType(nil, nil, nil, types.NewTuple(integer(), integer()), nil, false)),
	}, nil)
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return []*types.Interface{errorIface, stringer.Complete(), sortIface.Complete()}
}

// implementsCarrier reports whether recv (T or *T) implements one of
// ifaces that has a method called name.
func implementsCarrier(ifaces []*types.Interface, recv types.Type, name string) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
					return true
				}
				break
			}
		}
	}
	return false
}

// finding is one listed declaration.
type finding struct {
	at  string // file:line
	pkg string // package name
	// name as printed: Name, Type.Method or Type.Field ("field Name" for a
	// field of an unnamed struct)
	name string
}

// run scans the module rooted at dir, writes the listing to out, and
// returns the exit status: 0 when every section is empty bar allow-listed
// names and every allow-list entry matched, 1 otherwise.
func run(dir string, allow map[string]string, out io.Writer) int {
	root, err := filepath.Abs(dir)
	if err != nil {
		fatal(err)
	}
	build.Default.CgoEnabled = false // so the source importer never needs the cgo tool
	s := &scan{fset: token.NewFileSet(), listed: map[string]*listed{}}
	s.std = importer.ForCompiler(s.fset, "source", nil).(types.ImporterFrom)

	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = root
	list, err := cmd.Output()
	if err != nil {
		fatal(err)
	}
	var order []*listed
	for dec := json.NewDecoder(bytes.NewReader(list)); ; {
		l := new(listed)
		if err := dec.Decode(l); err == io.EOF {
			break
		} else if err != nil {
			fatal(err)
		}
		s.listed[l.ImportPath] = l
		order = append(order, l)
	}
	for _, l := range order {
		s.Import(l.ImportPath)
		if len(l.TestGoFiles) > 0 {
			s.check(l.ImportPath, append(s.parse(l.Dir, l.TestGoFiles), l.files...))
		}
		if len(l.XTestGoFiles) > 0 {
			s.check(l.ImportPath+"_test", s.parse(l.Dir, l.XTestGoFiles))
		}
	}
	rel := func(p token.Pos) string {
		r, _ := filepath.Rel(root, s.fset.File(p).Name())
		return r
	}

	// Pass 1: who references what, which structs go over a wire. Objects
	// are keyed by declaration position because a package with in-package
	// tests is checked twice.
	isTest := func(p token.Pos) bool { return strings.HasSuffix(s.fset.File(p).Name(), "_test.go") }
	const byCode, byTest = 1, 2
	used := map[token.Pos]int{}
	w := &wire{seen: map[types.Type]bool{}, fields: map[token.Pos]bool{}}
	for _, info := range s.infos {
		for id, obj := range info.Uses {
			if isTest(id.Pos()) {
				used[obj.Pos()] |= byTest
			} else {
				used[obj.Pos()] |= byCode
			}
		}
		for e, tv := range info.Types {
			switch e := e.(type) {
			case *ast.CompositeLit: // T{a, b} sets fields without naming them
				if st, ok := tv.Type.Underlying().(*types.Struct); ok && len(e.Elts) > 0 {
					if _, keyed := e.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							used[st.Field(i).Pos()] |= byCode
						}
					}
				}
			case *ast.CallExpr:
				id, _ := e.Fun.(*ast.Ident)
				if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
					id = sel.Sel
				}
				if f, ok := info.Uses[id].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "encoding/json" {
					for _, a := range e.Args {
						w.reach(info.Types[a].Type)
					}
				}
			}
		}
	}

	// The interfaces a method may be called through, and each named
	// struct's fields by position, from the non-test checks only: a
	// package's test check has types of its own, which no receiver of the
	// non-test check implements.
	ifaces := stdInterfaces()
	owner := map[token.Pos]string{}
	for _, l := range order {
		for e, tv := range l.info.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				if it, ok := tv.Type.(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, name := range l.pkg.Scope().Names() {
			if tn, ok := l.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						owner[st.Field(i).Pos()] = name
					}
				}
			}
		}
	}

	// Pass 2: every non-test declaration without a non-test reference,
	// minus the exemptions.
	var sections [4][]finding
	for _, l := range order {
		for id, obj := range l.info.Defs {
			if obj == nil || used[obj.Pos()]&byCode != 0 ||
				id.Name == "_" || id.Name == "main" || id.Name == "init" {
				continue
			}
			if r := rel(id.Pos()); !strings.HasPrefix(r, "internal/") && !strings.HasPrefix(r, "cmd/") {
				continue
			}
			name, pkgLevel := id.Name, obj.Parent() == obj.Pkg().Scope()
			switch o := obj.(type) {
			case *types.Func:
				if recv := o.Type().(*types.Signature).Recv(); recv != nil {
					if implementsCarrier(ifaces, recv.Type(), name) {
						continue
					}
					name = strings.TrimPrefix(types.TypeString(recv.Type(), noPkg), "*") + "." + name
				} else if !pkgLevel {
					continue
				}
			case *types.Var:
				if o.IsField() {
					if o.Embedded() || w.fields[o.Pos()] {
						continue
					}
					if t := owner[o.Pos()]; t != "" {
						name = t + "." + name
					} else {
						name = "field " + name
					}
				} else if !pkgLevel {
					continue
				}
			default:
				if !pkgLevel {
					continue
				}
			}
			sec := used[obj.Pos()] & byTest / byTest
			sections[sec] = append(sections[sec], finding{
				fmt.Sprintf("%s:%d", rel(id.Pos()), s.fset.Position(id.Pos()).Line), obj.Pkg().Name(), name})
		}
	}
	sections[2] = s.unwrittenOptions(order, rel)
	sections[3] = s.unreadInstruments(order, rel)

	status := 0
	matched := map[string]bool{}
	for i, title := range []string{"1: referenced by no file", "2: referenced only by _test.go files",
		"3: option fields no program writes", "4: instruments nothing reads"} {
		var lines []string
		for _, f := range sections[i] {
			if key := f.pkg + "." + f.name; allow[key] != "" {
				matched[key] = true
				continue
			}
			lines = append(lines, f.at+"\t"+f.name+"\n")
		}
		sort.Strings(lines)
		fmt.Fprintf(out, "== %s (%d) ==\n%s", title, len(lines), strings.Join(lines, ""))
		if len(lines) > 0 {
			status = 1
		}
	}
	var kept, stale []string
	for key, reason := range allow {
		if matched[key] {
			kept = append(kept, key+"\t"+reason+"\n")
		} else {
			stale = append(stale, key+"\n")
		}
	}
	sort.Strings(kept)
	sort.Strings(stale)
	fmt.Fprintf(out, "== allow-listed (%d) ==\n%s", len(kept), strings.Join(kept, ""))
	fmt.Fprintf(out, "== stale allow-list entries (%d) ==\n%s", len(stale), strings.Join(stale, ""))
	if len(stale) > 0 {
		status = 1
	}
	return status
}

// unwrittenOptions is section 3: the exported fields of exported structs
// named *Options or *Config under internal/ that no program file writes.
func (s *scan) unwrittenOptions(order []*listed, rel func(token.Pos) string) []finding {
	type field struct {
		owner token.Pos // the struct's type name
		f     finding
	}
	fields := map[token.Pos]field{}
	for _, l := range order {
		if len(l.files) == 0 || !strings.HasPrefix(rel(l.files[0].Pos()), "internal/") {
			continue
		}
		for _, name := range l.pkg.Scope().Names() {
			tn, ok := l.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						at := fmt.Sprintf("%s:%d", rel(f.Pos()), s.fset.Position(f.Pos()).Line)
						fields[f.Pos()] = field{tn.Pos(), finding{at, l.pkg.Name(), name + "." + f.Name()}}
					}
				}
			}
		}
	}

	written := map[token.Pos]bool{}
	for k, c := range s.infos {
		for _, file := range s.files[k] {
			if p := rel(file.Pos()); strings.HasSuffix(p, "_test.go") || strings.HasPrefix(p, "examples/") {
				continue
			}
			// The enclosing method's receiver type, by position: a package
			// with in-package tests is checked twice, with objects of its own
			// each time.
			var recv token.Pos
			ast.Inspect(file, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.FuncDecl:
					recv = token.NoPos
					if n.Recv != nil {
						t := c.Types[n.Recv.List[0].Type].Type
						if p, ok := t.(*types.Pointer); ok {
							t = p.Elem()
						}
						if named, ok := t.(*types.Named); ok {
							recv = named.Obj().Pos()
						}
					}
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				case *ast.CompositeLit:
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok && c.Uses[id] != nil {
								written[c.Uses[id].Pos()] = true
							}
						} else if st, ok := c.Types[n].Type.Underlying().(*types.Struct); ok {
							written[st.Field(i).Pos()] = true
						}
					}
				}
				for _, e := range lhs {
					if sel, ok := e.(*ast.SelectorExpr); ok && c.Uses[sel.Sel] != nil {
						if f := c.Uses[sel.Sel].Pos(); fields[f].owner != recv {
							written[f] = true
						}
					}
				}
				return true
			})
		}
	}

	var out []finding
	for pos, f := range fields {
		if !written[pos] {
			out = append(out, f.f)
		}
	}
	return out
}

// unreadInstruments is section 4: the names that program files under
// internal/ or cmd/ register through a Registry's Counter, Gauge or
// Histogram and nothing reads (see the package comment for what reads).
func (s *scan) unreadInstruments(order []*listed, rel func(token.Pos) string) []finding {
	// Value() calls in program files, by the declaration of the handle they
	// read; and string literals as the name they would read, keyed by each
	// import path a test's package reaches, or by "" under bench/.
	valueRead, lit := map[token.Pos]bool{}, map[string]bool{}
	for k, info := range s.infos {
		reach := map[string]bool{}
		s.reach(s.pkgs[k], reach)
		for _, file := range s.files[k] {
			r := rel(file.Pos())
			test, bench := strings.HasSuffix(r, "_test.go"), strings.HasPrefix(r, "bench/")
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && !test && sel.Sel.Name == "Value" && len(n.Args) == 0 {
						valueRead[object(info, sel.X)] = true
					}
				case *ast.BasicLit:
					if v, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && (test || bench) {
						v = v[strings.LastIndex(v, "/")+1:]
						if i := strings.IndexByte(v, '{'); i >= 0 {
							v = v[:i]
						}
						lit[" "+v] = lit[" "+v] || bench
						for p := range reach {
							lit[p+" "+v] = lit[p+" "+v] || test
						}
					}
				}
				return true
			})
		}
	}
	delete(valueRead, token.NoPos)

	found, read := map[string]finding{}, map[string]bool{} // by import path and name
	for _, l := range order {
		for _, file := range l.files {
			if r := rel(file.Pos()); !strings.HasPrefix(r, "internal/") && !strings.HasPrefix(r, "cmd/") {
				continue
			}
			handle := map[ast.Expr]token.Pos{} // the variable or field a value is stored in
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i := 0; i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs); i++ {
						handle[n.Rhs[i]] = object(l.info, n.Lhs[i])
					}
				case *ast.KeyValueExpr:
					handle[n.Value] = object(l.info, n.Key)
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || len(n.Args) == 0 || !registers(l.info.Uses[sel.Sel]) {
						break
					}
					name := "non-constant name " + types.ExprString(n.Args[0])
					if v := l.info.Types[n.Args[0]].Value; v != nil && v.Kind() == constant.String {
						name = constant.StringVal(v)
					}
					key := l.ImportPath + " " + name
					if _, ok := found[key]; !ok {
						found[key] = finding{fmt.Sprintf("%s:%d", rel(n.Pos()), s.fset.Position(n.Pos()).Line), l.pkg.Name(), name}
					}
					read[key] = read[key] || lit[" "+name] || lit[key] || valueRead[handle[n]]
				}
				return true
			})
		}
	}
	var out []finding
	for key, f := range found {
		if !read[key] {
			out = append(out, f)
		}
	}
	return out
}

// reach adds to seen the import path of p and of every module package p
// imports, directly or not.
func (s *scan) reach(p *types.Package, seen map[string]bool) {
	if seen[p.Path()] {
		return
	}
	seen[p.Path()] = true
	for _, q := range p.Imports() {
		if s.listed[q.Path()] != nil {
			s.reach(q, seen)
		}
	}
}

// registers reports whether obj is the Counter, Gauge or Histogram method
// of a type named Registry.
func registers(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	if !ok || f.Name() != "Counter" && f.Name() != "Gauge" && f.Name() != "Histogram" {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && strings.TrimPrefix(types.TypeString(recv.Type(), noPkg), "*") == "Registry"
}

// object is the declaration position of what an identifier or a selector
// names, or NoPos for any other expression.
func object(info *types.Info, e ast.Expr) token.Pos {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	if id, ok := e.(*ast.Ident); ok && info.ObjectOf(id) != nil {
		return info.ObjectOf(id).Pos()
	}
	return token.NoPos
}
