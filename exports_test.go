package tegrecon

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
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testOnlyExemptions names the exported internal functions that no
// production code calls, and the exported struct fields that no
// production code writes, that stay on purpose, each with its reason.
// Keys are "pkg.Func", "pkg.Type.Method" or "pkg.Type.Field".
var testOnlyExemptions = map[string]string{
	"core.Evaluator.Best":          "allocating delivered-power search the core tests and CI's bench smoke (BenchmarkEvaluatorBest) call",
	"switchfab.States":             "independent switch-state reference that SwitchToggles is tested against",
	"array.NewWithHealth":          "builds arrays with failed modules for fault tests in other packages",
	"array.AllSeries":              "the all-series topology fault and switch-fabric tests start from",
	"array.Array.Equivalent":       "allocating EquivalentInto that array, core and root benchmark tests price configurations with",
	"array.Equivalent.MPP":         "the equivalent's analytic MPP that array and core tests check decisions against",
	"thermal.Distribution.OutletC": "facade API: Distribution is what the aliased Radiator.Solve returns",
	"store.Store.StaleLockAfter":   "test seam: the lock-breaking test ages a lock in milliseconds instead of DefaultStaleLockAfter's minutes",
}

// listedPackage is the subset of `go list -json` this test reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList lists every package the module in dir builds, with its
// dependencies in dependency order and the export data of each.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	// go test puts its own toolchain first on the PATH.
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// sourceImporter serves module packages from the ones type-checked here
// and the standard library from the compiler's export data.
type sourceImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (s sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.checked[path]; ok {
		return p, nil
	}
	return s.std.Import(path)
}

// TestNoTestOnlyExports fails on every exported function or method in
// internal/ that no non-test file in the module or in perfbench uses,
// and on every exported field of an exported internal struct that no
// such file writes. Production keeps one form of each mechanism; a form
// or knob only tests reach belongs in a _test.go file or nowhere.
// Methods that satisfy an interface, methods on types the facade
// aliases, fields of json-tagged wire structs (the decoder writes
// those) and the exemptions above are allowed.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	var listed []listedPackage
	for _, dir := range []string{".", "perfbench"} {
		listed = append(listed, goList(t, dir)...)
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := sourceImporter{
		checked: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
	}
	used := map[types.Object]bool{}
	written := map[*types.Var]bool{}
	var literals []*types.Interface
	var internal []*types.Package
	for _, p := range listed {
		if p.Standard || imp.checked[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = pkg
		markWrittenFields(files, info, written)
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		// Interface literals, as in x.(interface{ M() }), are satisfied
		// the same way named interfaces are.
		for expr, tv := range info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				literals = append(literals, tv.Type.(*types.Interface))
			}
		}
		if strings.HasPrefix(p.ImportPath, "tegrecon/internal/") {
			internal = append(internal, pkg)
		}
	}

	aliased := facadeAliases(t, imp.checked["tegrecon"])
	ifaces := append(interfacesIn(imp.checked), literals...)
	seen := map[string]bool{}
	var offenders []string
	report := func(key string, obj types.Object, inUse bool) {
		seen[key] = true
		exempt := testOnlyExemptions[key] != ""
		switch {
		case inUse && exempt:
			offenders = append(offenders, key+" (exempted, but production code uses it: drop the exemption)")
		case !inUse && !exempt:
			offenders = append(offenders, fmt.Sprintf("%s (%s)", key, fset.Position(obj.Pos())))
		}
	}
	for _, pkg := range internal {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					report(pkg.Name()+"."+name, obj, used[obj])
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				if st, ok := named.Underlying().(*types.Struct); ok && obj.Exported() && !jsonTagged(st) {
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); f.Exported() {
							report(pkg.Name()+"."+name+"."+f.Name(), f, written[f])
						}
					}
				}
				if aliased[named] {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !satisfiesInterface(named, m.Name(), ifaces) {
						report(pkg.Name()+"."+name+"."+m.Name(), m, used[m])
					}
				}
			}
		}
	}
	for key := range testOnlyExemptions {
		if !seen[key] {
			offenders = append(offenders, key+" (exempted, but no longer declared)")
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("test-only export: %s", o)
	}
}

// markWrittenFields records every struct field the files write: as an
// assignment or increment target (directly or through an index, a
// dereference or a nested field), by taking its address, or in a
// composite literal, where a positional literal writes every field.
func markWrittenFields(files []*ast.File, info *types.Info, written map[*types.Var]bool) {
	var target func(ast.Expr)
	target = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			target(e.X)
		case *ast.StarExpr:
			target(e.X)
		case *ast.IndexExpr:
			target(e.X)
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				written[sel.Obj().(*types.Var).Origin()] = true
				target(e.X)
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					target(n.X)
				}
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							written[f.Origin()] = true
						}
					} else {
						written[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}
}

// jsonTagged reports whether a struct carries json tags: a wire struct
// whose fields the decoder writes.
func jsonTagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if reflect.StructTag(st.Tag(i)).Get("json") != "" {
			return true
		}
	}
	return false
}

// facadeAliases returns the internal types tegrecon.go re-exports as
// type aliases: their methods are public API whether or not production
// calls them.
func facadeAliases(t *testing.T, root *types.Package) map[*types.Named]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "tegrecon.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	aliased := map[*types.Named]bool{}
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.TYPE {
			continue
		}
		for _, spec := range gen.Specs {
			ts := spec.(*ast.TypeSpec)
			if !ts.Assign.IsValid() {
				continue
			}
			if named, ok := types.Unalias(root.Scope().Lookup(ts.Name.Name).Type()).(*types.Named); ok {
				aliased[named] = true
			}
		}
	}
	if len(aliased) == 0 {
		t.Fatal("tegrecon.go declares no type aliases")
	}
	return aliased
}

// interfacesIn collects every non-generic named interface declared in
// the checked packages or anything they import, plus error.
func interfacesIn(checked map[string]*types.Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces = append(ifaces, iface)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	return ifaces
}

// satisfiesInterface reports whether T or *T implements an interface
// that has a method called name.
func satisfiesInterface(named *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, iface := range ifaces {
		has := false
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(named, iface) || types.Implements(ptr, iface)) {
			return true
		}
	}
	return false
}
