// Command unused lists the identifiers declared in non-test files under
// internal/ and cmd/ that no file of the module references (section 1) or
// that only _test.go files reference (section 2), and exits 1 when section
// 1 is not empty. Section 3, printed but never failing, lists the exported
// fields of exported *Options and *Config structs under internal/ that no
// program writes: no non-test file outside examples/ names them as a
// composite-literal key or assigns them outside the type's own methods (so
// a withDefaults does not count). Run it through scripts/unused.sh.
//
// Declarations are package-level names, methods and struct fields; a
// reference is any use that go/types resolves to the declaration, from any
// package of the module (bench/, examples/ and the root façade included).
// Exemptions are structural, never a list of names: a method named like a
// method of an interface declared in the module or of error / fmt.Stringer
// / sort.Interface (it is called through the interface), and an exported
// field of a struct that reaches encoding/gob or encoding/json (read by
// reflection).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listed is one package of `go list -json`, plus what the scan made of it.
type listed struct {
	Dir, ImportPath                    string
	GoFiles, TestGoFiles, XTestGoFiles []string

	files []*ast.File // GoFiles, parsed
	pkg   *types.Package
}

// scan type-checks the module from source. It is its own importer: module
// packages are checked on first import (non-test files only, as the
// compiler sees them), everything else goes to the source importer.
type scan struct {
	fset   *token.FileSet
	listed map[string]*listed
	std    types.ImporterFrom
	infos  []*types.Info
	files  [][]*ast.File // the syntax infos[i] was checked from
}

func (s *scan) Import(path string) (*types.Package, error) { return s.ImportFrom(path, "", 0) }

func (s *scan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := s.listed[path]
	if l == nil {
		return s.std.ImportFrom(path, dir, mode)
	}
	if l.pkg == nil {
		l.files = s.parse(l.Dir, l.GoFiles)
		l.pkg = s.check(path, l.files)
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

func (s *scan) check(path string, files []*ast.File) *types.Package {
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
	return pkg
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

func main() {
	build.Default.CgoEnabled = false // so the source importer never needs the cgo tool
	s := &scan{fset: token.NewFileSet(), listed: map[string]*listed{}}
	s.std = importer.ForCompiler(s.fset, "source", nil).(types.ImporterFrom)

	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		fatal(err)
	}
	var order []*listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
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

	// Pass 1: who references what, which method names interfaces carry,
	// which structs go over a wire. Objects are keyed by declaration
	// position because a package with in-package tests is checked twice.
	isTest := func(p token.Pos) bool { return strings.HasSuffix(s.fset.File(p).Name(), "_test.go") }
	const byCode, byTest = 1, 2
	used := map[token.Pos]int{}
	ifaceMethod := map[string]bool{"Error": true, "String": true, "Len": true, "Less": true, "Swap": true}
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
			case *ast.InterfaceType:
				if it, ok := tv.Type.(*types.Interface); ok && !isTest(e.Pos()) {
					for i := 0; i < it.NumMethods(); i++ {
						ifaceMethod[it.Method(i).Name()] = true
					}
				}
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
				if f, ok := info.Uses[id].(*types.Func); ok && f.Pkg() != nil {
					switch f.Pkg().Path() {
					case "encoding/gob", "encoding/json":
						for _, a := range e.Args {
							w.reach(info.Types[a].Type)
						}
					}
				}
			}
		}
	}

	// Pass 2: every declaration without a non-test reference, minus the
	// exemptions.
	root, _ := os.Getwd()
	var sections [3][]string
	for _, info := range s.infos {
		for id, obj := range info.Defs {
			if obj == nil || used[obj.Pos()]&byCode != 0 || isTest(id.Pos()) ||
				id.Name == "_" || id.Name == "main" || id.Name == "init" {
				continue
			}
			rel, _ := filepath.Rel(root, s.fset.File(id.Pos()).Name())
			if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
				continue
			}
			name, pkgLevel := id.Name, obj.Parent() == obj.Pkg().Scope()
			switch o := obj.(type) {
			case *types.Func:
				if recv := o.Type().(*types.Signature).Recv(); recv != nil {
					if ifaceMethod[name] {
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
					name = "field " + name
				} else if !pkgLevel {
					continue
				}
			default:
				if !pkgLevel {
					continue
				}
			}
			sec := used[obj.Pos()] & byTest / byTest
			used[obj.Pos()] |= byCode // a package checked twice declares everything twice
			sections[sec] = append(sections[sec],
				fmt.Sprintf("%s:%d\t%s\n", rel, s.fset.Position(id.Pos()).Line, name))
		}
	}
	sections[2] = s.unwrittenOptions(root)
	for i, title := range []string{"1: referenced by no file", "2: referenced only by _test.go files",
		"3: option fields no program writes"} {
		sort.Strings(sections[i])
		fmt.Printf("== %s (%d) ==\n%s", title, len(sections[i]), strings.Join(sections[i], ""))
	}
	if len(sections[0]) > 0 {
		os.Exit(1)
	}
}

// unwrittenOptions is section 3: the exported fields of exported structs
// named *Options or *Config under internal/ that no program file writes.
func (s *scan) unwrittenOptions(root string) []string {
	rel := func(p token.Pos) string {
		r, _ := filepath.Rel(root, s.fset.File(p).Name())
		return r
	}
	type field struct {
		owner token.Pos // the struct's type name
		label string
	}
	fields := map[token.Pos]field{}
	for _, l := range s.listed {
		if !strings.HasPrefix(rel(l.files[0].Pos()), "internal/") {
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
						fields[f.Pos()] = field{tn.Pos(), name + "." + f.Name()}
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

	var out []string
	for pos, f := range fields {
		if !written[pos] {
			out = append(out, fmt.Sprintf("%s:%d\t%s\n", rel(pos), s.fset.Position(pos).Line, f.label))
		}
	}
	return out
}
