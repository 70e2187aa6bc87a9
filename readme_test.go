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
	"strings"
	"testing"
)

var (
	// readmeTestName is a test, fuzz target or benchmark the README names.
	readmeTestName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	// readmePath is a repo path the README names: one under a top-level
	// directory, or a file at the root.
	readmePath = regexp.MustCompile(`(?:^|[^\w./-])((?:internal|cmd|examples|testdata|bench|\.github)/[\w./*-]*[\w*/]|[A-Z]+\.(?:md|json)|Makefile|\w+\.go)\b`)
	// readmeGoRun is the target of a `go run` the README shows.
	readmeGoRun = regexp.MustCompile(`go run (\S*[\w/])`)
)

// TestReadmeNamesWhatExists holds README.md to the tree it describes.
// Every Test*, Fuzz* and Benchmark* it names is declared in a _test.go
// file of the module or of bench/, every repo path it names exists
// (a * matches as in filepath.Glob), every `go run` target is a
// directory of package main, and its Layout section names every
// directory of Go files under internal/ and cmd/.
func TestReadmeNamesWhatExists(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)

	declared := map[string]bool{}
	for _, files := range parseTestFiles(t, ".") {
		for _, f := range files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					declared[fn.Name.Name] = true
				}
			}
		}
	}
	names := readmeTestName.FindAllString(readme, -1)
	slices.Sort(names)
	for _, name := range slices.Compact(names) {
		if !declared[name] {
			t.Errorf("README.md names %s, which no _test.go file declares", name)
		}
	}

	for _, m := range readmePath.FindAllStringSubmatch(readme, -1) {
		if matches, _ := filepath.Glob(strings.TrimSuffix(m[1], "/")); len(matches) == 0 {
			t.Errorf("README.md names %s, which does not exist", m[1])
		}
	}

	for _, m := range readmeGoRun.FindAllStringSubmatch(readme, -1) {
		if !isMainPackage(t, m[1]) {
			t.Errorf("README.md shows `go run %s`, which is not a directory of package main", m[1])
		}
	}

	_, layout, _ := strings.Cut(readme, "\n## Layout")
	layout, _, _ = strings.Cut(layout, "\n## ")
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if goFiles, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(goFiles) > 0 && !strings.Contains(layout, "`"+filepath.ToSlash(dir)+"`") {
				t.Errorf("the Layout section of README.md has no line for %s", filepath.ToSlash(dir))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// isMainPackage reports whether dir, a `go run` argument such as
// ./cmd/bttomo, holds a non-test Go file of package main.
func isMainPackage(t *testing.T, dir string) bool {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		return f.Name.Name == "main"
	}
	return false
}
