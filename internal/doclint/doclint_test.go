// Package doclint holds repository lints that run as part of the
// ordinary test suite (and therefore in CI), over every non-test package
// of both modules (the engine's and bench/'s): a revive-style doc-comment
// lint — every exported top-level symbol must carry a doc comment — a
// type-checked lint that every exported function and method under
// internal/ has a caller outside test files, and a check that every test
// CI names by -run still exists.
package doclint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExportedSymbolsAreDocumented parses every non-test file of every
// package of both modules and fails with one line per undocumented
// exported symbol.
func TestExportedSymbolsAreDocumented(t *testing.T) {
	pkgs, err := goPackages("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, p := range pkgs {
		for _, name := range p.files {
			file, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			lintFile(t, fset, filepath.Join(p.path, name), file)
		}
	}
}

// lintFile checks one file's exported top-level declarations.
func lintFile(t *testing.T, fset *token.FileSet, name string, file *ast.File) {
	t.Helper()
	report := func(pos token.Pos, sym string) {
		t.Errorf("%s:%d: exported %s has no doc comment", name, fset.Position(pos).Line, sym)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Pos(), describeFunc(d))
			}
		case *ast.GenDecl:
			lintGenDecl(report, d)
		}
	}
}

// describeFunc names a function or method for the report line.
func describeFunc(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return fmt.Sprintf("func %s", d.Name.Name)
	}
	return fmt.Sprintf("method %s", d.Name.Name)
}

// lintGenDecl checks type / const / var declarations. A doc comment on
// the grouped declaration covers its members (the idiomatic enum
// pattern: one comment over the const block), but a bare exported spec
// with neither its own doc nor a group doc is flagged.
func lintGenDecl(report func(token.Pos, string), d *ast.GenDecl) {
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && !groupDoc {
				report(s.Pos(), "type "+s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || groupDoc {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					report(s.Pos(), "const/var "+n.Name)
				}
			}
		}
	}
}

// ciRunPattern matches the pattern of a go test -run or -fuzz flag in
// the CI workflow, quoted or bare.
var ciRunPattern = regexp.MustCompile(`-(?:run|fuzz) +(?:'([^']*)'|"([^"]*)"|(\S+))`)

// testIdent matches a test, fuzz target or example name inside a -run
// pattern.
var testIdent = regexp.MustCompile(`\b(?:Test|Fuzz|Example)\w*`)

// testFunc matches a test, fuzz target or example declaration.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)

// TestCIRunPatternsNameTests fails when a Test…, Fuzz… or Example… name
// inside a -run (or -fuzz) pattern of .github/workflows/ci.yml matches
// no function of the repository's _test.go files, so deleting or
// renaming a test cannot leave a CI step that silently runs nothing. A
// -run pattern is an unanchored regexp, so a name resolves when it
// appears anywhere in some function's name.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "../.." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	for _, m := range ciRunPattern.FindAllStringSubmatch(string(ci), -1) {
		pattern := m[1] + m[2] + m[3]
		for _, name := range testIdent.FindAllString(pattern, -1) {
			names++
			if !containsAny(funcs, name) {
				t.Errorf("ci.yml -run %q names %s, which no _test.go function matches", pattern, name)
			}
		}
	}
	if names == 0 {
		t.Fatal("found no test names in ci.yml's -run patterns; the pattern scan is broken")
	}
}

// containsAny reports whether any of names contains sub.
func containsAny(names []string, sub string) bool {
	for _, n := range names {
		if strings.Contains(n, sub) {
			return true
		}
	}
	return false
}
