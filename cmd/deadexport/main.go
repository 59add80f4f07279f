// Command deadexport is the repository's unused-export gate, run by the CI
// docs job beside docgate:
//
//	go run ./cmd/deadexport
//
// It takes no flags and reads no environment: its scope is fixed. Every
// package-level func, type, var and const, and every method, whose name is
// exported and that is declared in a package under the module's internal/
// tree must have a use in a non-test file of the module itself or of a
// consumer module: a module nested in the tree whose go.mod replaces this
// module with the tree's root (hdcbench's `replace hdc => ../`). The gate
// fails (exit 1, one finding per line) on every such name with no use. A use
// inside the name's own declaration does not count, and for a type neither do
// uses inside its own methods.
//
// Exempt are:
//   - methods that implement an interface declared in any loaded package, the
//     universe's error, or one that the standard library asserts dynamically
//     (Unwrap, Is, As);
//   - packages whose name ends in "test", which are test kits;
//   - names whose doc comment carries an //hdc:oracle line: a reference
//     implementation that a named test compares the served code against. The
//     gate prints the marker count, and a marked name that does have a
//     non-test use is itself a finding.
//
// Packages are loaded with one `go list -export -json -deps` per module and
// type-checked from source with go/types; standard-library and third-party
// imports come from their export data. Files excluded by build constraints
// on the host are not read.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(".", os.Stdout, os.Stderr))
}

// oracleMarker is the doc-comment line that exempts a test oracle.
const oracleMarker = "//hdc:oracle"

// dynamicIfaces declares the interfaces the standard library asserts without
// naming them (errors.Is, errors.As and errors.Unwrap).
const dynamicIfaces = `package dynamic

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// run gates the module rooted at root; split from main for testability.
func run(root string, stdout, stderr io.Writer) int {
	findings, markers, err := gate(root)
	if err != nil {
		fmt.Fprintf(stderr, "deadexport: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) == 0 {
		fmt.Fprintf(stdout, "deadexport: ok, %d %s marker(s)\n", markers, oracleMarker)
		return 0
	}
	fmt.Fprintf(stdout, "deadexport: %d finding(s), %d %s marker(s)\n", len(findings), markers, oracleMarker)
	return 1
}

// listPkg is the slice of `go list -json` output the gate reads.
type listPkg struct {
	ImportPath, Name, Dir, Export string
	GoFiles                       []string
	Module                        *struct {
		Path string
		Main bool
	}
}

// candidate is one gated export.
type candidate struct {
	obj    types.Object
	desc   string         // "func kit.Orphan", "method kit.T.M"
	spans  [][2]token.Pos // uses inside these ranges are self-references
	oracle bool
	used   bool
}

// gate loads the module at root and its consumer modules and returns the
// findings, sorted by position, and the oracle marker count.
func gate(root string) ([]string, int, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, 0, err
	}
	modPath, dirs, err := modules(root)
	if err != nil {
		return nil, 0, err
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	ifaces, err := dynamicSet()
	if err != nil {
		return nil, 0, err
	}
	gated := map[types.Object]*candidate{}
	var infos []*types.Info
	for _, dir := range dirs {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, 0, err
		}
		for _, p := range pkgs {
			if p.Module == nil || !p.Module.Main && p.Module.Path != modPath {
				exports[p.ImportPath] = p.Export
				continue
			}
			if checked[p.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
				if err != nil {
					return nil, 0, err
				}
				files = append(files, f)
			}
			info := &types.Info{
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
				Types: map[ast.Expr]types.TypeAndValue{},
			}
			if checked[p.ImportPath], err = conf.Check(p.ImportPath, fset, files, info); err != nil {
				return nil, 0, err
			}
			infos = append(infos, info)
			ifaces = append(ifaces, literalIfaces(files, info)...)
			if strings.HasPrefix(p.ImportPath, modPath+"/internal/") && !strings.HasSuffix(p.Name, "test") {
				collect(files, info, gated)
			}
		}
	}
	for _, info := range infos {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a method of an instantiated generic type
			}
			if c := gated[obj]; c != nil && !c.self(id.Pos()) {
				c.used = true
			}
		}
	}
	byMethod := map[string][]*types.Interface{}
	for _, it := range append(ifaces, namedIfaces(checked)...) {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}

	var out []*candidate
	markers := 0
	for _, c := range gated {
		if c.oracle {
			markers++
		}
		fn, isFunc := c.obj.(*types.Func)
		exempt := isFunc && fn.Type().(*types.Signature).Recv() != nil && implements(fn, byMethod)
		if c.oracle && c.used || !c.oracle && !c.used && !exempt {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := fset.Position(out[i].obj.Pos()), fset.Position(out[j].obj.Pos())
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	lines := make([]string, len(out))
	for i, c := range out {
		pos := fset.Position(c.obj.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		msg := "has no use outside tests"
		if c.oracle {
			msg = "is marked " + oracleMarker + " but has a non-test use"
		}
		lines[i] = fmt.Sprintf("%s:%d: %s %s", pos.Filename, pos.Line, c.desc, msg)
	}
	return lines, markers, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modules returns the path of the module at root and the directories to
// list: root, then every module nested under it whose go.mod replaces that
// path with root itself.
func modules(root string) (string, []string, error) {
	var mod struct {
		Module  struct{ Path string }
		Replace []struct {
			Old struct{ Path string }
			New struct{ Path, Version string }
		}
	}
	readMod := func(dir string) error {
		out, err := goCmd(dir, "mod", "edit", "-json")
		if err != nil {
			return err
		}
		return json.Unmarshal(out, &mod)
	}
	if err := readMod(root); err != nil {
		return "", nil, err
	}
	modPath := mod.Module.Path
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dir := filepath.Dir(path)
		if d.IsDir() || d.Name() != "go.mod" || dir == root {
			return nil
		}
		mod.Replace = nil
		if err := readMod(dir); err != nil {
			return err
		}
		for _, r := range mod.Replace {
			if r.Old.Path == modPath && r.New.Version == "" && filepath.Join(dir, r.New.Path) == root {
				dirs = append(dirs, dir)
				break
			}
		}
		return nil
	})
	return modPath, dirs, err
}

// goList lists the module in dir and every dependency, dependencies first.
func goList(dir string) ([]listPkg, error) {
	out, err := goCmd(dir, "list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Module", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []listPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.String())
	}
	return out, nil
}

// collect records every exported package-level name and method declared in
// files.
func collect(files []*ast.File, info *types.Info, gated map[types.Object]*candidate) {
	var methods []*ast.FuncDecl
	add := func(id *ast.Ident, kind string, doc *ast.CommentGroup, span ast.Node) {
		if obj := info.Defs[id]; obj != nil && id.IsExported() {
			gated[obj] = &candidate{obj: obj, desc: kind + " " + obj.Pkg().Name() + "." + id.Name,
				spans: [][2]token.Pos{{span.Pos(), span.End()}}, oracle: marked(doc)}
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, "func", d.Doc, d)
				} else {
					methods = append(methods, d)
					add(d.Name, "method", d.Doc, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "type", docOf(s.Doc, d), s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, d.Tok.String(), docOf(s.Doc, d), s)
						}
					}
				}
			}
		}
	}
	// A method body is a self-reference of its receiver type.
	for _, d := range methods {
		fn, _ := info.Defs[d.Name].(*types.Func)
		if named := recvNamed(fn); named != nil {
			if c := gated[named.Obj()]; c != nil {
				c.spans = append(c.spans, [2]token.Pos{d.Pos(), d.End()})
			}
			if c := gated[fn]; c != nil {
				c.desc = fmt.Sprintf("method %s.%s.%s", fn.Pkg().Name(), named.Obj().Name(), fn.Name())
			}
		}
	}
}

// docOf returns a spec's own doc comment, or its declaration's.
func docOf(spec *ast.CommentGroup, d *ast.GenDecl) *ast.CommentGroup {
	if spec != nil {
		return spec
	}
	return d.Doc
}

// marked reports whether doc carries the oracle marker line.
func marked(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == oracleMarker || strings.HasPrefix(c.Text, oracleMarker+" ") {
			return true
		}
	}
	return false
}

// self reports whether pos lies inside one of c's own declarations.
func (c *candidate) self(pos token.Pos) bool {
	for _, s := range c.spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}

// recvNamed returns a method's receiver base type, or nil for fn == nil.
func recvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implements reports whether fn's receiver type, or a pointer to it,
// implements some interface with a method of fn's name.
func implements(fn *types.Func, byMethod map[string][]*types.Interface) bool {
	named := recvNamed(fn)
	for _, it := range byMethod[fn.Name()] {
		if named != nil && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// literalIfaces returns the interface literals written in files.
func literalIfaces(files []*ast.File, info *types.Info) []*types.Interface {
	var out []*types.Interface
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				if t, ok := info.Types[it].Type.(*types.Interface); ok {
					out = append(out, t)
				}
			}
			return true
		})
	}
	return out
}

// namedIfaces returns the universe's error and the non-generic interfaces
// named at package level in pkgs and every package they import.
func namedIfaces(pkgs map[string]*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			it, isIface := tn.Type().Underlying().(*types.Interface)
			if named, ok := tn.Type().(*types.Named); isIface && (!ok || named.TypeParams().Len() == 0) {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return out
}

// dynamicSet type-checks dynamicIfaces.
func dynamicSet() ([]*types.Interface, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dynamic.go", dynamicIfaces, 0)
	if err != nil {
		return nil, err
	}
	pkg, err := (&types.Config{}).Check("dynamic", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	return namedIfaces(map[string]*types.Package{"dynamic": pkg})[1:], nil
}
