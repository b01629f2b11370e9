package doclint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// productionCallerAllowlist names the exported functions and methods
// under internal/ that TestExportedNamesHaveProductionCallers lets stand
// without a non-test caller, each with the reason. Keys are
// package.Func or package.Type.Method.
var productionCallerAllowlist = map[string]string{
	"table.Table.CheckpointCM":         "recovery hook: CM checkpoints, waiting for a restart path to call it",
	"table.Table.RecoverCM":            "recovery hook: rebuilds a CM from its checkpoint and the WAL tail",
	"wal.Log.Replay":                   "recovery hook: the WAL read side RecoverCM's callers will need",
	"table.Table.PinSnapshot":          "oracle: root tests hold a snapshot across latch releases and UPDATEs",
	"table.Table.RebuildPageDirectory": "oracle: root tests compare the live directory with one rebuilt from the heap",
	"table.PageDirectory.Refs":         "oracle: root tests read a bucket's page list to check the directory",
	"heap.File.PreImages":              "oracle: root tests count in-place UPDATE pre-images awaiting reclaim",
	"heap.File.Slots":                  "oracle: root tests check a page's slots after in-place UPDATEs",
	"core.ClusteredBuckets.LowerBound": "oracle: exec and table tests decode a clustered bucket's first key",
}

// TestExportedNamesHaveProductionCallers fails when an exported
// function or method under internal/ has no reference from the non-test
// code of either module (the engine's and bench/'s) and no allowlist
// entry, and when an allowlist entry is stale. Code only tests call
// belongs in a _test.go file, or goes.
func TestExportedNamesHaveProductionCallers(t *testing.T) {
	lonely, stale, err := unreferencedExports("../..", productionCallerAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range lonely {
		t.Errorf("%s: exported, but no non-test code calls it; delete it, move it into a _test.go file, or allowlist it with a reason", f)
	}
	for _, s := range stale {
		t.Errorf("allowlist: %s", s)
	}
}

// TestProductionCallerLintFlags runs the lint over a two-module fixture:
// it must flag an uncalled method and a function only a _test.go file
// calls, spare interface implementations, generic instantiations and a
// name the second module calls, and fail a stale allowlist entry.
func TestProductionCallerLintFlags(t *testing.T) {
	lonely, stale, err := unreferencedExports("testdata/fixture", map[string]string{
		"a.Hook":    "fixture hook",
		"a.Sq.Area": "stale: called through the Shape interface",
		"a.Gone":    "stale: no such function",
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range lonely {
		names = append(names, strings.Fields(f)[0])
	}
	if want := []string{"a.T.Orphan", "a.TestOnly"}; !slices.Equal(names, want) {
		t.Errorf("flagged %q, want %q", lonely, want)
	}
	if len(stale) != 2 || !strings.Contains(stale[0], "a.Gone") || !strings.Contains(stale[1], "a.Sq.Area") {
		t.Errorf("stale allowlist entries = %q, want a.Gone and a.Sq.Area", stale)
	}
}

// goPackage is one directory of Go files: its import path and the
// non-test files the default build context selects.
type goPackage struct {
	dir, path string
	files     []string
}

// goPackages walks root and returns every directory holding a non-test
// Go file, with its import path. A directory with a go.mod starts a
// module (bench/ is one); hidden and testdata directories are skipped.
func goPackages(root string) ([]goPackage, error) {
	modules := map[string]string{} // module root dir → module path
	var pkgs []goPackage
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(mod), "\n") {
				if path, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					modules[dir] = strings.TrimSpace(path)
				}
			}
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", dir, err)
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		for modDir := dir; ; modDir = filepath.Dir(modDir) {
			if path, ok := modules[modDir]; ok {
				rel, _ := filepath.Rel(modDir, dir)
				if rel != "." {
					path += "/" + filepath.ToSlash(rel)
				}
				pkgs = append(pkgs, goPackage{dir, path, bp.GoFiles})
				return nil
			}
			if modDir == root {
				return fmt.Errorf("%s: no go.mod at or above it under %s", dir, root)
			}
		}
	})
	return pkgs, err
}

// typedPackage is a type-checked package of one module.
type typedPackage struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// repoImporter type-checks the repository's packages from their
// directories and the standard library from GOROOT's source.
type repoImporter struct {
	fset    *token.FileSet
	pkgs    map[string]goPackage // by import path
	checked map[string]*typedPackage
	std     types.Importer
}

// Import returns the package at path, type-checking a repository
// package (and what it imports) on first use.
func (r *repoImporter) Import(path string) (*types.Package, error) {
	gp, ok := r.pkgs[path]
	if !ok {
		return r.std.Import(path)
	}
	if p, ok := r.checked[path]; ok {
		return p.types, nil
	}
	p := &typedPackage{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range gp.files {
		f, err := parser.ParseFile(r.fset, filepath.Join(gp.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: r}
	var err error
	if p.types, err = conf.Check(path, r.fset, p.files, p.info); err != nil {
		return nil, err
	}
	r.checked[path] = p
	return p.types, nil
}

// unreferencedExports type-checks every non-test package under root and
// returns, sorted, the exported functions and methods of its internal/
// packages that no non-test code references and allow does not name
// (as "pkg.Func (file:line)"), and the allow entries that name a
// function which has such a reference or does not exist. A method
// counts as referenced when its type implements an interface holding
// it: a call through the interface reaches it.
func unreferencedExports(root string, allow map[string]string) (lonely, stale []string, err error) {
	imp, pkgs, err := checkRepo(root)
	if err != nil {
		return nil, nil, err
	}
	fset := imp.fset

	type candidate struct {
		key  string
		decl *ast.FuncDecl
	}
	candidates := map[*types.Func]candidate{}
	for _, p := range pkgs {
		if !slices.Contains(strings.Split(p.path, "/"), "internal") {
			continue
		}
		tp := imp.checked[p.path]
		for _, f := range tp.files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || !d.Name.IsExported() {
					continue
				}
				fn := tp.info.Defs[d.Name].(*types.Func)
				key := tp.types.Name() + "."
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					key += receiverName(recv.Type()) + "."
				}
				candidates[fn] = candidate{key + fn.Name(), d}
			}
		}
	}

	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	for _, tp := range imp.checked {
		for id, obj := range tp.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if c, ok := candidates[fn]; ok && id.Pos() >= c.decl.Pos() && id.Pos() < c.decl.End() {
				continue // a recursive call is not a caller
			}
			used[fn] = true
		}
		for _, tv := range tp.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, importedInterfaces(imp)...)
	for fn := range candidates {
		if !used[fn] && implementsInterfaceMethod(fn, ifaces) {
			used[fn] = true
		}
	}

	byKey := map[string]*types.Func{}
	for fn, c := range candidates {
		byKey[c.key] = fn
		if !used[fn] && allow[c.key] == "" {
			pos := fset.Position(fn.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			lonely = append(lonely, fmt.Sprintf("%s (%s:%d)", c.key, filepath.ToSlash(rel), pos.Line))
		}
	}
	for key := range allow {
		switch fn, ok := byKey[key]; {
		case !ok:
			stale = append(stale, key+" names no exported function under internal/")
		case used[fn]:
			stale = append(stale, key+" has a non-test caller; drop its entry")
		}
	}
	sort.Strings(lonely)
	sort.Strings(stale)
	return lonely, stale, nil
}

// checkedRepos memoizes checkRepo by root, so the lints of one test run
// share one type-check of the repository.
var checkedRepos = map[string]*repoImporter{}

// checkRepo type-checks every non-test package under root and returns
// the importer holding them, with the packages goPackages found.
func checkRepo(root string) (*repoImporter, []goPackage, error) {
	pkgs, err := goPackages(root)
	if err != nil {
		return nil, nil, err
	}
	if imp, ok := checkedRepos[root]; ok {
		return imp, pkgs, nil
	}
	fset := token.NewFileSet()
	imp := &repoImporter{
		fset:    fset,
		pkgs:    map[string]goPackage{},
		checked: map[string]*typedPackage{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
	for _, p := range pkgs {
		imp.pkgs[p.path] = p
	}
	for _, p := range pkgs {
		if _, err := imp.Import(p.path); err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %w", p.path, err)
		}
	}
	checkedRepos[root] = imp
	return imp, pkgs, nil
}

// receiverName is the name of a method's receiver type, without the
// pointer or type arguments.
func receiverName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// importedInterfaces returns the non-generic interface types declared
// at package level by every package the repository imports, directly
// or not, and the predeclared error.
func importedInterfaces(imp *repoImporter) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, tp := range imp.checked {
		visit(tp.types)
	}
	return ifaces
}

// implementsInterfaceMethod reports whether fn is a method of a
// non-generic type that, by value or by pointer, implements one of
// ifaces holding a method of fn's name.
func implementsInterfaceMethod(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); !ok || n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if !it.IsMethodSet() {
			continue
		}
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == fn.Name()
		}
		if has && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}
