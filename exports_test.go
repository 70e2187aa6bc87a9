package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
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

// keptExports are exported functions under internal/ that no product
// path calls but that stay, each with its reason.
var keptExports = map[string]string{
	"sim.Engine.Pending":                   "tests in other packages probe the event queue through it",
	"simnet.Network.FindVertex":            "tests in other packages look vertices up through it",
	"collective.Schedule.ValidateOneToOne": "a property check that tests assert against",
	"layout.Stress":                        "a property check that tests assert against",
	"core.Options.WithIterations":          "documented in repro.go and README",
	"core.Options.WithBackend":             "documented in repro.go and README",
	"campaign.Builder.ScenarioFile":        "the builder has one method per ConfigAxes axis",
	"campaign.Builder.TopFractions":        "the builder has one method per ConfigAxes axis",
}

// TestOnlyProductPathsExport fails for every exported function or method
// declared under internal/ that no product path — a non-test .go file of
// the module or of bench/ — refers to. A package-level function counts
// as used when its package spells it or another file names it through
// the package's import; a method counts as used when any product file
// spells its name outside a declaration. So a name collision can hide a
// dead export but never flag a live one (golang.org/x/tools, which could
// resolve types, is not a dependency). Delete what it names, or add it
// to keptExports with a reason.
func TestOnlyProductPathsExport(t *testing.T) {
	type decl struct{ key, where string }
	usedFuncs := map[string]bool{} // "internal/layout.Stress"
	usedNames := map[string]bool{} // any identifier, for methods
	var funcs, methods []decl
	fset := token.NewFileSet()
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
		dir := path.Dir(filepath.ToSlash(file))
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, "repro/")
		}
		declNames := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fd.Name.IsExported() {
				continue
			}
			where := fset.Position(fd.Pos()).String()
			if fd.Recv == nil {
				funcs = append(funcs, decl{dir + "." + fd.Name.Name, where})
			} else {
				key := path.Base(dir) + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				methods = append(methods, decl{key, where})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					usedFuncs[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !declNames[n] {
					usedNames[n.Name] = true
					usedFuncs[dir+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 || len(methods) == 0 {
		t.Fatal("found no exported function or method under internal/")
	}
	var dead []string
	kept := map[string]bool{}
	check := func(short, where string, used bool) {
		if _, ok := keptExports[short]; ok {
			kept[short] = true
			if used {
				t.Errorf("keptExports lists %s, which a product path now calls", short)
			}
			return
		}
		if !used {
			dead = append(dead, where+": "+short)
		}
	}
	for _, d := range funcs {
		check(strings.TrimPrefix(d.key, path.Dir(d.key)+"/"), d.where, usedFuncs[d.key])
	}
	for _, d := range methods {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		check(d.key, d.where, usedNames[name] || interfaceMethods[name])
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but no product path calls it", d)
	}
	for name := range keptExports {
		if !kept[name] {
			t.Errorf("keptExports lists %s, which is not an exported function under internal/", name)
		}
	}
}

// receiverName is the type name of a method receiver: T of T, *T, T[P]
// or *T[P].
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
