package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// interfaceMethods are method names a type exports to satisfy a
// standard-library interface (sort, heap, fmt, error, io, net/http,
// encoding): the library calls them, so no product file spells them.
var interfaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true, "Flush": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

// keptExports are exported identifiers under internal/ that no product
// path uses, or facade functions in repro.go that no example or cmd/ main
// calls, that stay, each with its reason.
var keptExports = map[string]string{
	"sim.Engine.Pending":                   "tests in other packages probe the event queue through it",
	"simnet.Network.FindVertex":            "tests in other packages look vertices up through it",
	"simnet.Network.LinkUp":                "dynamics tests probe link state through it",
	"bitset.Set.Count":                     "bittorrent's invariant tests count in-flight pieces with it",
	"collective.Schedule.ValidateOneToOne": "a property check that tests assert against",
	"layout.Stress":                        "a property check that tests assert against",
	"campaign.Builder.Backends":            "the builder has one method per ConfigAxes axis",
	"campaign.Builder.RotateRoot":          "the builder has one method per ConfigAxes axis",
	"campaign.Builder.ScenarioFile":        "the builder has one method per ConfigAxes axis",
	"campaign.Builder.TopFractions":        "the builder has one method per ConfigAxes axis",
	"campaign.Builder.Window":              "the builder has one method per ConfigAxes axis",
	"campaign.Builder.Workers":             "the builder has one method per ConfigAxes axis",
}

// TestOnlyProductPathsExport fails for every exported identifier declared
// under internal/ — a package-level func, var, const or type, a method,
// or a struct field without a tag (encoding/json fills tagged ones) —
// that no product path, a non-test .go file of the module or of bench/,
// uses. Every package is type-checked, so an identifier counts as used
// only when a product file resolves to that very object; a method also
// counts when it shares its name with an interface method a product file
// calls, or with a standard-library interface's.
//
// The root package is the module's one importable surface, so two more
// rules hold it to what its users need: no file under examples/ imports
// repro/internal/ (a user's module could not), and every func repro.go
// exports is called from cmd/ or examples/ (a use inside package repro
// does not count). Delete what the test names, or add it to keptExports
// with a reason.
func TestOnlyProductPathsExport(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → product files
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		file = filepath.ToSlash(file)
		if strings.HasPrefix(file, "examples/") {
			for _, spec := range f.Imports {
				if p, _ := strconv.Unquote(spec.Path.Value); strings.HasPrefix(p, "repro/internal/") {
					t.Errorf("%s imports %s: an example may import only repro, as a user's module must", file, p)
				}
			}
		}
		pkg := path.Join("repro", path.Dir(file))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	imp := &moduleImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		files: files,
		info:  info,
		pkgs:  map[string]*types.Package{},
	}
	for pkg := range files {
		if _, err := imp.Import(pkg); err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	dynamic := map[string]bool{} // names of interface methods product files call
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				dynamic[o.Name()] = true
			}
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	called := map[types.Object]bool{} // objects a cmd/ or examples/ file uses
	for id, obj := range info.Uses {
		use(obj)
		file := filepath.ToSlash(fset.Position(id.Pos()).Filename)
		if strings.HasPrefix(file, "cmd/") || strings.HasPrefix(file, "examples/") {
			called[obj] = true
		}
	}
	for _, sel := range info.Selections {
		use(sel.Obj())
		// A promoted field or method uses the embedded fields it is reached through.
		typ := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			field := typ.Underlying().(*types.Struct).Field(i)
			use(field)
			typ = field.Type()
		}
	}

	var dead []string
	kept := map[string]bool{}
	check := func(key string, obj types.Object, isUsed bool, unused string) {
		if _, ok := keptExports[key]; ok {
			kept[key] = true
			if isUsed {
				t.Errorf("keptExports lists %s, which a product path now uses", key)
			}
			return
		}
		if !isUsed {
			dead = append(dead, fset.Position(obj.Pos()).String()+": "+key+" "+unused)
		}
	}
	facade := imp.pkgs["repro"].Scope()
	for _, name := range facade.Names() {
		if fn, ok := facade.Lookup(name).(*types.Func); ok && fn.Exported() {
			check("repro."+name, fn, called[fn], "is a facade function that no example or cmd/ main calls")
		}
	}
	const noUse = "is exported but no product path uses it"
	for pkgPath, pkg := range imp.pkgs {
		if !strings.HasPrefix(pkgPath, "repro/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			check(pkg.Name()+"."+name, obj, used[obj], noUse)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					check(pkg.Name()+"."+name+"."+m.Name(), m, used[m] || dynamic[m.Name()] || interfaceMethods[m.Name()], noUse)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && st.Tag(i) == "" {
						check(pkg.Name()+"."+name+"."+f.Name(), f, used[f], noUse)
					}
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: delete it, or add it to keptExports with a reason", d)
	}
	for key := range keptExports {
		if !kept[key] {
			t.Errorf("keptExports lists %s, which is not an identifier this test checks", key)
		}
	}
}

// moduleImporter type-checks the walked packages from their product
// files, recording every use into one types.Info, and takes everything
// else from the standard library's source.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	files map[string][]*ast.File
	info  *types.Info
	pkgs  map[string]*types.Package
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	return m.ImportFrom(p, "", 0)
}

func (m *moduleImporter) ImportFrom(p, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := m.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := m.files[p]
	if !ok {
		return m.std.ImportFrom(p, dir, mode)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[p] = pkg
	return pkg, nil
}
