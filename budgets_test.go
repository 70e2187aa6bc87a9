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
	listed := makePattern(t, "BUDGET_TESTS")
	pkgs := strings.Fields(makeVariable(t, "BUDGET_PKGS"))
	var missing []string
	for _, root := range []string{"internal", "cmd"} {
		for dir, files := range parseTestFiles(t, root) {
			for _, name := range readingTests(files, readsRace) {
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

// TestSlowAndGuardsListEveryShortSkip fails for every Test* of the
// module outside bench/ that reads testing.Short — itself or through a
// helper of its directory — and that neither the Makefile's SLOW_TESTS
// matches in a package SLOW_PKGS names nor GUARD_TESTS matches in the
// root package. Such a test skips under `race`, the only CI target that
// runs the -short suite, so `slow` and `guards` are the only ones that
// can run it; bench/ is tested without -short by `bench-test`.
func TestSlowAndGuardsListEveryShortSkip(t *testing.T) {
	slow, guards := makePattern(t, "SLOW_TESTS"), makePattern(t, "GUARD_TESTS")
	slowPkgs := strings.Fields(makeVariable(t, "SLOW_PKGS"))
	var missing []string
	for dir, files := range parseTestFiles(t, ".") {
		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			continue
		}
		for _, name := range readingTests(files, readsShort) {
			inSlow := slow.MatchString(name) && slices.Contains(slowPkgs, "./"+dir)
			if !inSlow && !(guards.MatchString(name) && dir == ".") {
				missing = append(missing, name+" ("+dir+")")
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s skips under -short, so `race` never runs it: add it to SLOW_TESTS and its package to SLOW_PKGS in the Makefile (or, for a whole-module check, to GUARD_TESTS)", m)
	}
}

// makePattern compiles the Makefile's `name = value` line as go test's
// -run sees it, with make's "$$" read as "$".
func makePattern(t *testing.T, name string) *regexp.Regexp {
	t.Helper()
	return regexp.MustCompile(strings.ReplaceAll(makeVariable(t, name), "$$", "$"))
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

// readingTests returns the Test* functions of one directory's test
// files that read a setting: a function reads it when reads reports that
// its body does, or when it names a function or variable of the
// directory that reads it; the helpers are found first, to a fixed
// point, so a helper calling a helper counts too.
func readingTests(files []*ast.File, reads func(ast.Node) bool) []string {
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
	readsVia := func(node ast.Node) bool { return reads(node) || namesAny(node, readers) }
	for grew := true; grew; {
		grew = false
		for name, node := range decls {
			if !readers[name] && readsVia(node) {
				readers[name], grew = true, true
			}
		}
	}
	var names []string
	for _, fn := range tests {
		if readsVia(fn.Body) {
			names = append(names, fn.Name.Name)
		}
	}
	return names
}

// namesAny reports whether node names one of names, as an identifier or
// as a qualified name.
func namesAny(node ast.Node, names map[string]bool) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && names[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

// readsRace reports whether node calls ReadBuildInfo and spells "-race".
func readsRace(node ast.Node) bool {
	var buildInfo, raceKey bool
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			buildInfo = buildInfo || n.Name == "ReadBuildInfo"
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
				raceKey = raceKey || s == "-race"
			}
		}
		return true
	})
	return buildInfo && raceKey
}

// readsShort reports whether node names testing.Short.
func readsShort(node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Short" {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "testing" {
				found = true
			}
		}
		return !found
	})
	return found
}
