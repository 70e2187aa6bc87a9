package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestBudgetTestsListEveryRaceSkip fails for every Test* under internal/
// and cmd/ that reads the -race build setting — itself, as core's
// budgets do with debug.ReadBuildInfo, or through a helper of its
// directory that does (skipUnderRace, raceEnabled, simnet's exported
// SkipUnderRace) — and that the Makefile's BUDGET_TESTS does not match
// in a package BUDGET_PKGS names. Such a test skips its budget under
// `race`, so `budgets` is the only CI target that runs it.
func TestBudgetTestsListEveryRaceSkip(t *testing.T) {
	listed := regexp.MustCompile(strings.ReplaceAll(makeVariable(t, "BUDGET_TESTS"), "$$", "$"))
	pkgs := strings.Fields(makeVariable(t, "BUDGET_PKGS"))
	var missing []string
	for _, root := range []string{"internal", "cmd"} {
		for dir, files := range parseTestFiles(t, root) {
			for _, name := range raceReadingTests(files) {
				if !listed.MatchString(name) || !slices.Contains(pkgs, "./"+dir) {
					missing = append(missing, name+" ("+dir+")")
				}
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s reads the -race build setting, so `race` skips its budget: add it to BUDGET_TESTS and its package to BUDGET_PKGS in the Makefile", m)
	}
}

// makeVariable returns the value of the Makefile's `name = value` line.
func makeVariable(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if value, ok := strings.CutPrefix(line, name+" = "); ok {
			return value
		}
	}
	t.Fatalf("the Makefile sets no %s", name)
	return ""
}

// parseTestFiles parses, without type-checking, every _test.go file
// under root outside testdata and hidden directories, grouped by
// directory.
func parseTestFiles(t *testing.T, root string) map[string][]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && file != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		dirs[dir] = append(dirs[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// raceReadingTests returns the Test* functions of one directory's test
// files that read the -race build setting. A function reads it when its
// body calls ReadBuildInfo and spells "-race", or names a function or
// variable of the directory that reads it; the helpers are found first,
// to a fixed point, so a helper calling a helper counts too.
func raceReadingTests(files []*ast.File) []string {
	decls := map[string]ast.Node{} // helper name → its body or value
	var tests []*ast.FuncDecl
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if name := decl.Name.Name; decl.Recv == nil && strings.HasPrefix(name, "Test") && name != "TestMain" {
					tests = append(tests, decl)
				} else if decl.Recv == nil && decl.Body != nil {
					decls[name] = decl.Body
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							if i < len(vs.Values) {
								decls[name.Name] = vs.Values[i]
							}
						}
					}
				}
			}
		}
	}
	readers := map[string]bool{}
	for grew := true; grew; {
		grew = false
		for name, node := range decls {
			if !readers[name] && readsRace(node, readers) {
				readers[name], grew = true, true
			}
		}
	}
	var names []string
	for _, fn := range tests {
		if readsRace(fn.Body, readers) {
			names = append(names, fn.Name.Name)
		}
	}
	return names
}

// readsRace reports whether node calls ReadBuildInfo and spells "-race",
// or names one of readers, as an identifier or as a qualified name.
func readsRace(node ast.Node, readers map[string]bool) bool {
	var buildInfo, raceKey, helper bool
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			helper = helper || readers[n.Name]
			buildInfo = buildInfo || n.Name == "ReadBuildInfo"
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
				raceKey = raceKey || s == "-race"
			}
		}
		return true
	})
	return helper || buildInfo && raceKey
}
