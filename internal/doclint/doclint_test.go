// Package doclint is a revive-style doc-comment lint that runs as part
// of the ordinary test suite (and therefore in CI): every exported
// top-level symbol of the linted packages must carry a doc comment
// starting with the symbol's name, per standard godoc convention.
package doclint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// lintedDirs are the packages held to the exported-doc-comment rule,
// relative to this package. The public query surface (the repro facade
// and the execution engine) is linted in full; grow this list as other
// packages are brought up to standard.
var lintedDirs = []string{
	"../..",      // package repro: the public facade
	"../exec",    // the execution engine (PR 4's godoc pass)
	"../plan",    // the physical plan layer (PR 5)
	"../sql",     // the SQL front-end
	"../server",  // the wire protocol
	"../value",   // the scalar kernel every layer shares
	"../metrics", // the observability core (PR 7)
	"../sim",     // the simulated disk
	"../buffer",  // the buffer pool
	"../wal",     // the write-ahead log
	"../table",   // table latches + MVCC write path
	"../costmodel",
}

// TestExportedSymbolsAreDocumented parses every non-test file of the
// linted packages and fails with one line per undocumented exported
// symbol.
func TestExportedSymbolsAreDocumented(t *testing.T) {
	for _, dir := range lintedDirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				lintFile(t, fset, filepath.Base(path), file)
			}
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
