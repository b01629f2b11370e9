package doclint

import (
	"fmt"
	"go/build"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocReferencesResolve fails with one line per reference in the
// documents a reader is sent to (docNames) that names nothing: a
// backticked Go reference (pkg.Name, Type.Method, Config.Field, with
// fields and call results chained) that the type-checked packages of
// both modules do not declare, a backticked repository path that no file
// or directory has, or a "ROADMAP item N" that is not an open item of
// ROADMAP.md. A section whose heading says it records deleted or removed
// code is exempt, since what it names is gone on purpose. bench/README.md
// is not checked: it describes bench/, which changes only with ROADMAP
// item 2(a).
func TestDocReferencesResolve(t *testing.T) {
	bad, err := badDocRefs("../..", docNames)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// TestDocReferenceCheckFlags runs the reference check over the fixture
// module's document: it must flag a missing method, field, type, file
// and directory and a closed or unknown ROADMAP item, spare what
// resolves — through a package, a type, a field's type, a call's result,
// the standard library, a file name or a directory — and skip the
// deleted-code section, code blocks and backticked text that is no
// reference.
func TestDocReferenceCheckFlags(t *testing.T) {
	bad, err := badDocRefs("testdata/fixture", []string{"DOC.md"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"DOC.md:21: `a.T.Gone` names no declaration",
		"DOC.md:21: `Sq.Perimeter` names no declaration",
		"DOC.md:22: `a.Sq.s.Missing` names no declaration",
		"DOC.md:22: `Circle.Area` names no declaration",
		"DOC.md:23: `internal/b` is no file or directory of the repository",
		"DOC.md:23: `a/missing.go` is no file or directory of the repository",
		"DOC.md:24: ROADMAP item 2 is not an open item",
		"DOC.md:24: ROADMAP item 7 is not an open item",
	}
	if !slices.Equal(bad, want) {
		t.Errorf("flagged\n%s\nwant\n%s", strings.Join(bad, "\n"), strings.Join(want, "\n"))
	}
}

// codeSpan matches a backticked span of a Markdown document.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// roadmapItem matches a citation of a ROADMAP item in prose.
var roadmapItem = regexp.MustCompile(`ROADMAP\s+items?\s+(\d+)`)

// goRef matches a dotted Go reference: identifiers joined by dots, each
// optionally called.
var goRef = regexp.MustCompile(`^[A-Za-z_]\w*(?:\(\))?(?:\.[A-Za-z_]\w*(?:\(\))?)+$`)

// pathRef matches a repository-relative path: lower-case or dotted
// first element, at least one slash or a file extension.
var pathRef = regexp.MustCompile(`^(?:[a-z_.][\w.\-]*/)+[\w.\-]*$|^[\w.\-]+\.(?:go|md|golden|mod|sh|yml|json)$`)

// headingLine matches a Markdown heading, capturing its level.
var headingLine = regexp.MustCompile(`^(#+)\s`)

// deletedHeading marks a heading as the record of deleted code.
var deletedHeading = regexp.MustCompile(`(?i)\b(deleted|removed)\b`)

// badDocRefs checks the references of docs (paths relative to root)
// against root's type-checked packages, its files and its ROADMAP.md's
// open items, returning "doc:line: …" for each that resolves to nothing.
func badDocRefs(root string, docs []string) ([]string, error) {
	ix, err := newRefIndex(root)
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		checked := checkedText(string(text))
		line := func(off int) int { return strings.Count(checked[:off], "\n") + 1 }
		for _, m := range codeSpan.FindAllStringSubmatchIndex(checked, -1) {
			ref := checked[m[2]:m[3]]
			if why := ix.check(ref); why != "" {
				bad = append(bad, fmt.Sprintf("%s:%d: `%s` %s", doc, line(m[0]), ref, why))
			}
		}
		for _, m := range roadmapItem.FindAllStringSubmatchIndex(checked, -1) {
			n, _ := strconv.Atoi(checked[m[2]:m[3]])
			if !ix.openItems[n] {
				bad = append(bad, fmt.Sprintf("%s:%d: ROADMAP item %d is not an open item", doc, line(m[0]), n))
			}
		}
	}
	return bad, nil
}

// checkedText blanks the lines of a Markdown document the reference
// check skips — fenced code blocks and the sections whose heading marks
// them as a record of deleted code — keeping the line count.
func checkedText(text string) string {
	lines := strings.Split(text, "\n")
	fenced, exemptLevel := false, 0
	for i, l := range lines {
		if m := headingLine.FindStringSubmatch(l); m != nil && !fenced {
			if exemptLevel == 0 || len(m[1]) <= exemptLevel {
				exemptLevel = 0
				if deletedHeading.MatchString(l) {
					exemptLevel = len(m[1])
				}
			}
		}
		skip := fenced || exemptLevel > 0 || strings.HasPrefix(l, "```")
		if strings.HasPrefix(l, "```") {
			fenced = !fenced
		}
		if skip {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

// refIndex is what a document reference can resolve against.
type refIndex struct {
	imp   *repoImporter
	pkgs  map[string][]*types.Package // non-main packages by name
	types map[string][]*types.TypeName
	funcs map[string][]*types.Func // functions and methods by name
	// files holds every file and directory path under the root but .git
	// and the ignored directories' contents, slash-separated and relative
	// to it; ignored holds the root .gitignore's entries.
	files, ignored []string
	openItems      map[int]bool
}

// newRefIndex type-checks root's packages and lists its files, its
// ignored paths and its ROADMAP's open items.
func newRefIndex(root string) (*refIndex, error) {
	imp, _, err := checkRepo(root)
	if err != nil {
		return nil, err
	}
	ix := &refIndex{imp: imp, pkgs: map[string][]*types.Package{},
		types: map[string][]*types.TypeName{}, funcs: map[string][]*types.Func{}}
	for _, tp := range imp.checked {
		p := tp.types
		if p.Name() == "main" {
			continue
		}
		ix.pkgs[p.Name()] = append(ix.pkgs[p.Name()], p)
		for _, obj := range tp.info.Defs {
			switch o := obj.(type) {
			case *types.TypeName:
				if o.Parent() == p.Scope() {
					ix.types[o.Name()] = append(ix.types[o.Name()], o)
				}
			case *types.Func:
				ix.funcs[o.Name()] = append(ix.funcs[o.Name()], o)
			}
		}
	}
	if ignore, err := os.ReadFile(filepath.Join(root, ".gitignore")); err == nil {
		for _, l := range strings.Split(string(ignore), "\n") {
			if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
				ix.ignored = append(ix.ignored, strings.TrimSuffix(l, "/"))
			}
		}
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		switch {
		case d.IsDir() && (d.Name() == ".git" || slices.Contains(ix.ignored, rel)):
			return filepath.SkipDir
		case rel != ".":
			ix.files = append(ix.files, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	roadmap, err := os.ReadFile(filepath.Join(root, "ROADMAP.md"))
	if err != nil {
		return nil, err
	}
	ix.openItems = openItems(string(roadmap))
	return ix, nil
}

// openItemLine matches the first line of a numbered ROADMAP item.
var openItemLine = regexp.MustCompile(`^(\d+)\. \*\*(.*)`)

// openItems returns the numbers of the items listed under ROADMAP.md's
// "## Open items" heading, up to its next heading, whose bold title does
// not say the item is done.
func openItems(roadmap string) map[int]bool {
	open := map[int]bool{}
	in := false
	for _, l := range strings.Split(roadmap, "\n") {
		if strings.HasPrefix(l, "#") {
			in = strings.HasPrefix(l, "## Open items")
			continue
		}
		if m := openItemLine.FindStringSubmatch(l); in && m != nil {
			title, _, _ := strings.Cut(m[2], "**")
			if !strings.Contains(title, "Done") {
				n, _ := strconv.Atoi(m[1])
				open[n] = true
			}
		}
	}
	return open
}

// check returns why ref, a backticked span, names nothing, or "" when
// it resolves or is no reference (a command, an expression, a metric
// name: a dotted name with no upper-case element is taken for one).
func (ix *refIndex) check(ref string) string {
	switch {
	case pathRef.MatchString(ref):
		if !ix.pathExists(ref) {
			return "is no file or directory of the repository"
		}
	case goRef.MatchString(ref):
		segs := strings.Split(ref, ".")
		upper := false
		for _, s := range segs {
			upper = upper || (s[0] >= 'A' && s[0] <= 'Z')
		}
		if upper && !ix.resolves(segs) {
			return "names no declaration"
		}
	}
	return ""
}

// pathExists reports whether ref names a repository file or directory —
// by its path, or by a trailing part of it (`exec/agg.go`, `env.go`,
// `_test.go`) — a standard-library package, or an ignored build output.
func (ix *refIndex) pathExists(ref string) bool {
	p := strings.TrimSuffix(ref, "/")
	for _, f := range ix.files {
		if f == p || strings.HasSuffix(f, "/"+p) || (strings.HasPrefix(p, "_") && strings.HasSuffix(f, p)) {
			return true
		}
	}
	if st, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", p)); err == nil && st.IsDir() {
		return true
	}
	return slices.Contains(ix.ignored, p)
}

// resolves reports whether the dotted reference segs names a
// declaration: a package member (of the repository's packages, or of the
// standard library's), a type, or the result of a call of a function or
// method of that name, followed by the fields and methods of each
// element's type in turn. A first element that is none of these and is
// not capitalized is taken for a variable of the prose (`db.Stats()`),
// and resolves.
func (ix *refIndex) resolves(segs []string) bool {
	first := strings.TrimSuffix(segs[0], "()")
	for _, p := range ix.pkgs[first] {
		if members(p.Scope().Lookup(strings.TrimSuffix(segs[1], "()")), segs[2:]) {
			return true
		}
	}
	for _, tn := range ix.types[first] {
		if members(tn, segs[1:]) {
			return true
		}
	}
	if strings.HasSuffix(segs[0], "()") {
		for _, fn := range ix.funcs[first] {
			if members(fn, segs[1:]) {
				return true
			}
		}
	}
	if len(ix.pkgs[first]) > 0 || len(ix.types[first]) > 0 || strings.HasSuffix(segs[0], "()") {
		return false
	}
	if p, err := ix.imp.std.Import(first); err == nil {
		return members(p.Scope().Lookup(strings.TrimSuffix(segs[1], "()")), segs[2:])
	}
	return first[0] < 'A' || first[0] > 'Z'
}

// members reports whether obj exists and rest names, in turn, a field or
// method of obj's type (a type's own, a variable's or field's, or the
// first result of a function or method).
func members(obj types.Object, rest []string) bool {
	if obj == nil {
		return false
	}
	if len(rest) == 0 {
		return true
	}
	var t types.Type
	switch o := obj.(type) {
	case *types.TypeName, *types.Var:
		t = o.Type()
	case *types.Func:
		if res := o.Type().(*types.Signature).Results(); res.Len() > 0 {
			t = res.At(0).Type()
		}
	}
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	var pkg *types.Package
	if n, ok := t.(*types.Named); ok {
		pkg = n.Obj().Pkg()
	}
	m, _, _ := types.LookupFieldOrMethod(t, true, pkg, strings.TrimSuffix(rest[0], "()"))
	return members(m, rest[1:])
}
