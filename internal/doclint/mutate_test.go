package doclint

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The mutation survey (TestMutationSurvey) runs only when -mutate names
// what to mutate:
//
//	go test ./internal/doclint -run TestMutationSurvey -v -timeout 0 \
//	    -mutate internal/btree,internal/wal
//
// Each item is a package directory, whose mutants are all run when there
// are at most surveySample of them and otherwise a seeded sample of at
// least surveySample that compile; or one mutant's name (as the survey
// prints it); or "ci", the mutants in ciMutants.
var mutate = flag.String("mutate", "", "run the mutation survey over these comma-separated package directories, mutant names or \"ci\"")

const (
	surveySeed    = 42
	surveySample  = 120
	surveyWorkers = 2
	// mutantTimeout bounds each go test run of a mutant; a mutant that
	// loops for good is counted as timed out.
	mutantTimeout = 30 * time.Second
)

// goldenTests are the root package's golden tests, which every mutant
// its own package's tests do not kill runs next: they pin the counts,
// the build's and a write stream's bytes and every plan shape.
const goldenTests = "^(TestCountsGolden|TestBuildGoldenBytes|TestWriteGoldenBytes|TestExplainGolden)$"

// ciMutants is CI's sample: each must be killed. Each was a survivor of
// the survey that a test added for it now kills.
var ciMutants = []string{
	"internal/wal/wal.go:127:20:swap-cmp",        // TestAppendReplayRoundTrip: the longest target
	"internal/core/pairstats.go:116:2:drop-stmt", // TestStatsSizeBytesOfAFewPairs: a freed slot is reused
	"internal/core/pairstats.go:196:46:swap-cmp", // TestRetractingAnExtremeMarksThePairDirty: a float extreme
	"internal/sim/disk.go:307:3:drop-stmt",       // TestFaultTriggers
	"internal/heap/heap.go:414:15:const+1",       // TestFullPageLeavesItsClass
	"internal/buffer/pool.go:306:2:drop-stmt",    // TestClockSecondChance: a new page's reference bit
	"internal/btree/btree.go:630:12:const+1",     // TestWritesChargeChangedPages: a failed split leaves its leaf clean
	"internal/table/load.go:266:4:drop-return",   // TestPageDirectoryLoadAbort: a failed CM fill fails the load
	"internal/table/reclaim.go:184:44:const+1",   // TestPlacementOnReclaimedPages
}

// equivalentMutants are the survivors no test can kill, each with the
// reason its change is unobservable. The survey fails on any other
// survivor.
var equivalentMutants = map[string]string{
	"internal/sim/disk.go:312:38:swap-cmp": "Float64 returns exactly a plan's ReadProb with probability 2^-53 a draw; no seeded stream a test uses draws it",

	"internal/buffer/pool.go:50:59:const-1":  "pages stay far below 2^39, so the file bits never meet the page bits at a shift of 39",
	"internal/buffer/pool.go:50:59:const+1":  "pages stay far below 2^40, so the file bits never meet the page bits at a shift of 41",
	"internal/buffer/pool.go:210:9:const+1":  "both callers drop a failed victim's frame index",
	"internal/buffer/pool.go:210:12:const+1": "both callers drop a failed victim's cost",
	"internal/buffer/pool.go:184:12:const+1": "two passes of the clock already reach every unpinned frame with its reference bit cleared; a third only runs when all are pinned, to the same error",

	"internal/heap/heap.go:174:24:const+1": "firstPreImages is a capacity hint: the list grows by append either way",
	"internal/heap/heap.go:230:37:const+1": "the spare bitmap word the rounding adds is never set: classes stop below it",
	"internal/heap/heap.go:324:10:const+1": "every TupleCost is at least a slot entry (4 bytes), so one byte of room fits nothing either",
	"internal/heap/heap.go:366:13:const+1": "c/65 differs from c/64 only at class 64, whose mask shifts by 0 and keeps the whole word",
	"internal/heap/heap.go:527:11:const+1": "PutAt reads only the first RID of its one-RID scratch array",
	"internal/heap/heap.go:642:10:const+1": "the placement that made the prune takes slot 0 either way: trimmed off and appended again, or kept erased and reused",
	"internal/heap/heap.go:791:11:const+1": "every caller of preIndex tests i < 0 or i >= 0",
	"internal/heap/heap.go:374:9:const+1":  "BestFit, firstIn's one caller, drops the page when it reports none",
	"internal/heap/heap.go:930:30:const+1": "a folded page's every slot has the page's one version, pv.at(0)'s",

	"internal/core/bucket.go:41:13:swap-cmp":     "width 1 buckets every value to itself, as the early return does",
	"internal/core/bucket.go:79:28:swap-cmp":     "a string exactly Len bytes long is its own Len-byte prefix",
	"internal/core/cm.go:323:25:const+1":         "the key buffer's capacity is a hint: AppendValue grows it",
	"internal/core/cm.go:337:4:drop-return":      "every key in a CM was encoded by keyenc or checked by DecodeAll when a checkpoint was read, so DecodeAll cannot fail here",
	"internal/core/cm.go:489:26:const-1":         "both read paths return the same n bytes; the cut-off only bounds what a lying length may allocate",
	"internal/core/cm.go:576:41:const-1":         "the map's size is a hint",
	"internal/core/pairstats.go:113:4:drop-stmt": "dropping a freed slot's string handles only lets their interned strings be collected before the slot is reused; the next pair's first value overwrites them and StatsSizeBytes counts live slots only",
	"internal/core/pairstats.go:126:19:swap-cmp": "a tie keeps an equal extreme",
	"internal/core/pairstats.go:134:19:swap-cmp": "a tie keeps an equal extreme; the CM compares floats as value.Compare does, so -0 and +0 are one value to it",
	"internal/core/pairstats.go:158:22:swap-cmp": "a tie keeps an equal extreme",
	"internal/core/pairstats.go:169:22:swap-cmp": "a tie keeps an equal extreme",

	"internal/btree/btree.go:601:14:const+1":    "a descent fails before it pins the leaf, the one level release(1) would mark dirty",
	"internal/btree/btree.go:661:10:swap-cmp":   "a gap that fits the cell exactly passes the compacted-size test that follows as well (see btree.go:662)",
	"internal/btree/btree.go:662:3:drop-return": "when the gap already fits the cell, the compacted-size test that follows answers true as well",
	"internal/btree/btree.go:678:18:swap-cmp":   "compacting a node whose gap fits the cell exactly keeps every entry in its slot; only the cell area's layout can differ, and nothing reads it but through the slots",
	"internal/btree/btree.go:769:48:const-1":    "a key the tree accepts takes at most a quarter page, so a leaf holds at least four and the clamp to one never binds",
	"internal/btree/btree.go:769:48:const+1":    "a leaf holds at least four keys the tree accepts, so a clamp to two never binds either (see btree.go:769)",
	"internal/btree/btree.go:865:10:const+1":    "the leaf buffer's reservation is a capacity hint: keys and values already cut keep their bytes if an append moves the buffer",
	"internal/btree/btree.go:871:17:swap-cmp":   "the leaf buffer's reservation is a capacity hint (see btree.go:865)",
	"internal/btree/btree.go:872:3:drop-stmt":   "the leaf buffer's reservation is a capacity hint (see btree.go:865)",
	"internal/btree/btree.go:874:2:drop-stmt":   "the leaf buffer's reset only keeps it from growing: appended past the last leaf's bytes, the keys and values cut read the same (see btree.go:865)",
	"internal/btree/btree.go:724:29:const+1":    "halve sets right on both branches before reading it",

	"internal/table/table.go:246:59:const+1":     "the entries' capacity is a hint",
	"internal/table/schema.go:171:6:negate-cond": "encodedSize sizes a write's arena, a capacity hint: a short arena grows by append and the encodings already cut keep their bytes",
	"internal/table/schema.go:172:4:drop-stmt":   "encodedSize is a capacity hint (see schema.go:171)",
	"internal/table/schema.go:172:12:const+1":    "encodedSize is a capacity hint (see schema.go:171)",
	"internal/table/schema.go:255:12:swap-cmp":   "off+2 == len(tuple) leaves no byte for the column fieldStart locates, so the tuple is short and the caller fails either way; only the column the error names differs, for a tuple no writer stores",
	"internal/table/schema.go:256:11:const+1":    "every caller drops fieldStart's offset when it returns an error",
	"internal/table/schema.go:373:24:const-1":    "every column list is then decoded field by field, which decodes a sorted list to the same values",
	"internal/table/schema.go:375:4:drop-stmt":   "the loop only goes on to set sorted false again",
	"internal/table/keysort.go:29:16:const-1":    "a width of zero takes every key order through the general sort, which orders keys the same",
	"internal/table/load.go:292:19:const+1":      "staging writes and appendTuple reads each row's fixed columns at the same stride, so a wider one only spaces them out",
	"internal/table/cmfill.go:105:10:swap-cmp":   "a field at constant offset 0 is where fieldStart finds it too",
	"internal/table/cmfill.go:124:50:swap-cmp":   "a string equal to the run's minimum replaces it with the same bytes",
	"internal/table/cmfill.go:126:18:swap-cmp":   "a string equal to the run's minimum is not above its maximum",
	"internal/table/reclaim.go:116:2:drop-stmt":  "clearing the queue's dropped tail only lets the reclaimed statements' versions be collected; the queue is cut to its kept prefix either way",
	"internal/table/schema.go:99:3:drop-stmt":    "without a shared layout every accessor builds one per call: the same layout, more slowly",
	"internal/table/write.go:448:2:drop-stmt":    "growing the ended list first is a capacity hint",
}

// A mutant is one small change to one file of a package: name is the
// file's module-relative path, the line and column of the changed node,
// and the operator; src is the whole changed file.
type mutant struct {
	name, file string
	src        []byte
}

// site is one place an operator applies: apply makes the change in the
// parsed file and undo takes it back.
type site struct {
	pos         token.Pos
	op          string
	apply, undo func()
}

// swapped pairs each ordering comparison with its boundary twin.
var swapped = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS,
	token.GTR: token.GEQ, token.GEQ: token.GTR,
}

// mutants lists every mutant of the non-test files of the package in
// dir (module-relative), ordered by file and position.
func mutants(root, dir string) ([]mutant, error) {
	names, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var out []mutant
	for _, path := range names {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		rel := filepath.ToSlash(filepath.Join(dir, filepath.Base(path)))
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		ms, err := fileMutants(rel, src)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// fileMutants applies each site of one file's source in turn and
// formats the changed file.
func fileMutants(rel string, src []byte) ([]mutant, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	ss := sites(f)
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].pos < ss[j].pos })
	out := make([]mutant, 0, len(ss))
	for _, s := range ss {
		p := fset.Position(s.pos)
		var buf bytes.Buffer
		s.apply()
		err := format.Node(&buf, fset, f)
		s.undo()
		if err != nil {
			return nil, fmt.Errorf("%s:%d:%d:%s: %w", rel, p.Line, p.Column, s.op, err)
		}
		out = append(out, mutant{name: fmt.Sprintf("%s:%d:%d:%s", rel, p.Line, p.Column, s.op), file: rel, src: buf.Bytes()})
	}
	return out, nil
}

// sites finds where the five operators apply in f: negate an if's
// condition, swap < with <= or > with >=, drop a statement, drop an
// early return (one that does not end its function), and move an
// integer literal by one.
func sites(f *ast.File) []site {
	final := map[ast.Stmt]bool{}
	markFinal := func(body *ast.BlockStmt) {
		if body != nil && len(body.List) > 0 {
			final[body.List[len(body.List)-1]] = true
		}
	}
	var out []site
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			markFinal(n.Body)
		case *ast.FuncLit:
			markFinal(n.Body)
		case *ast.IfStmt:
			cond := n.Cond
			out = append(out, site{cond.Pos(), "negate-cond",
				func() { n.Cond = &ast.UnaryExpr{Op: token.NOT, X: &ast.ParenExpr{X: cond}} },
				func() { n.Cond = cond }})
		case *ast.BinaryExpr:
			if to, ok := swapped[n.Op]; ok {
				from := n.Op
				out = append(out, site{n.OpPos, "swap-cmp", func() { n.Op = to }, func() { n.Op = from }})
			}
		case *ast.BasicLit:
			if n.Kind != token.INT {
				break
			}
			v, err := strconv.ParseInt(n.Value, 0, 64)
			if err != nil {
				break
			}
			lit := n.Value
			set := func(v int64) func() { return func() { n.Value = strconv.FormatInt(v, 10) } }
			undo := func() { n.Value = lit }
			out = append(out, site{n.Pos(), "const+1", set(v + 1), undo})
			if v > 0 {
				out = append(out, site{n.Pos(), "const-1", set(v - 1), undo})
			}
		case *ast.BlockStmt:
			out = append(out, dropSites(&n.List, final)...)
		case *ast.CaseClause:
			out = append(out, dropSites(&n.Body, final)...)
		case *ast.CommClause:
			out = append(out, dropSites(&n.Body, final)...)
		}
		return true
	})
	return out
}

// dropSites lists the statements of one statement list that can be
// dropped: an early return, or a statement that declares nothing.
func dropSites(list *[]ast.Stmt, final map[ast.Stmt]bool) []site {
	var out []site
	orig := *list
	for i, s := range orig {
		op := "drop-stmt"
		switch s := s.(type) {
		case *ast.ReturnStmt:
			if final[s] {
				continue
			}
			op = "drop-return"
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				continue
			}
		case *ast.BranchStmt:
			if s.Tok != token.BREAK && s.Tok != token.CONTINUE {
				continue
			}
		case *ast.ExprStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeferStmt, *ast.GoStmt:
		default:
			continue
		}
		out = append(out, site{s.Pos(), op,
			func() { *list = slices.Delete(slices.Clone(orig), i, i+1) },
			func() { *list = orig }})
	}
	return out
}

// outcome is what became of one mutant.
type outcome int

const (
	uncompiled outcome = iota
	killedByPackage
	killedByGoldens
	timedOut
	survived
)

func (o outcome) String() string {
	return [...]string{"did not compile", "killed", "killed by the goldens", "timed out", "survived"}[o]
}

// result is one mutant's outcome and the tests that failed on it, named
// package.Test.
type result struct {
	out     outcome
	killers []string
}

// failedTest matches a failed top-level test in go test's output.
var failedTest = regexp.MustCompile(`(?m)^\s*--- FAIL: ([^\s/]+)`)

// worker is one copy of the module that mutants are written into, one
// at a time.
type worker struct{ dir string }

// run writes m into the worker's copy, builds its package, runs its
// package's tests and, if they pass, the root goldens, and puts the
// file back.
func (w *worker) run(m mutant) (result, error) {
	path := filepath.Join(w.dir, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		return result{}, err
	}
	if err := os.WriteFile(path, m.src, 0o644); err != nil {
		return result{}, err
	}
	defer os.WriteFile(path, orig, 0o644)
	pkg := "./" + filepath.Dir(m.file)
	if _, err := w.goCmd("build", "-o", os.DevNull, pkg); err != nil {
		return result{out: uncompiled}, nil
	}
	for _, step := range []struct {
		args   []string
		prefix string
		out    outcome
	}{
		{[]string{pkg}, filepath.Dir(m.file), killedByPackage},
		{[]string{"-run", goldenTests, "."}, "repro", killedByGoldens},
	} {
		args := append([]string{"test", "-count=1", "-vet=off", "-timeout", mutantTimeout.String()}, step.args...)
		out, err := w.goCmd(args...)
		switch {
		case err == nil:
			continue
		case errors.Is(err, context.DeadlineExceeded) || bytes.Contains(out, []byte("panic: test timed out")):
			return result{out: timedOut}, nil
		case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
			return result{out: uncompiled}, nil
		}
		r := result{out: step.out}
		for _, k := range failedTest.FindAllSubmatch(out, -1) {
			name := step.prefix + "." + string(k[1])
			if !slices.Contains(r.killers, name) {
				r.killers = append(r.killers, name)
			}
		}
		if len(r.killers) == 0 {
			r.killers = []string{step.prefix + ".(no test named)"}
		}
		return r, nil
	}
	return result{out: survived}, nil
}

// goCmd runs the go command in the worker's copy, bounded a little past
// the test timeout.
func (w *worker) goCmd(args ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*mutantTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = w.dir
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	return out, err
}

// copyModule copies the module at root, without its .git directory and
// the bench module, into dst.
func copyModule(root, dst string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".git" || rel == "bench" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), src, 0o644)
	})
}

// runAll runs the mutants on the workers, in order, and stops handing
// them out once the finished ones include want that compiled. It
// returns the shortest prefix of ms holding want compiled mutants (all
// of ms when it holds fewer), with their results.
func runAll(t *testing.T, workers []*worker, ms []mutant, want int) ([]mutant, []result) {
	type done struct {
		i int
		r result
		w *worker
	}
	results := make([]*result, len(ms))
	free := slices.Clone(workers)
	finished := make(chan done)
	compiled, next, busy := 0, 0, 0
	for {
		for len(free) > 0 && next < len(ms) && compiled < want {
			w := free[len(free)-1]
			free = free[:len(free)-1]
			go func(i int) {
				r, err := w.run(ms[i])
				if err != nil {
					t.Errorf("%s: %v", ms[i].name, err)
				}
				finished <- done{i, r, w}
			}(next)
			next++
			busy++
		}
		if busy == 0 {
			break
		}
		d := <-finished
		busy--
		free = append(free, d.w)
		results[d.i] = &d.r
		if d.r.out != uncompiled {
			compiled++
		}
		t.Logf("%s: %s %s", ms[d.i].name, d.r.out, strings.Join(d.r.killers, " "))
	}
	n, got := 0, 0
	for n < next && got < want {
		if results[n].out != uncompiled {
			got++
		}
		n++
	}
	out := make([]result, n)
	for i := range out {
		out[i] = *results[i]
	}
	return ms[:n], out
}

// TestMutationSurvey runs the survey -mutate asks for (see mutate) and
// fails on every survivor equivalentMutants does not record, on every
// mutant it records that the survey runs and does not see survive, and
// on every named mutant that is not killed.
func TestMutationSurvey(t *testing.T) {
	if *mutate == "" {
		t.Skip("no -mutate")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*worker, surveyWorkers)
	for i := range workers {
		workers[i] = &worker{dir: t.TempDir()}
		if err := copyModule(root, workers[i].dir); err != nil {
			t.Fatal(err)
		}
	}
	byName := map[string]mutant{}
	var named []mutant
	var pkgs []string
	for _, item := range strings.Split(*mutate, ",") {
		switch {
		case item == "ci":
			for _, name := range ciMutants {
				named = append(named, lookupMutant(t, root, byName, name))
			}
		case strings.Contains(item, ".go:"):
			named = append(named, lookupMutant(t, root, byName, item))
		default:
			pkgs = append(pkgs, strings.TrimSuffix(item, "/"))
		}
	}
	if len(named) > 0 {
		ms, rs := runAll(t, workers, named, len(named))
		for i, r := range rs {
			if r.out != killedByPackage && r.out != killedByGoldens {
				t.Errorf("%s %s; it must be killed", ms[i].name, r.out)
			}
		}
	}
	kills := map[string][]string{}
	for _, pkg := range pkgs {
		all, err := mutants(root, pkg)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, m := range all {
			names[m.name] = true
		}
		for name := range equivalentMutants {
			if strings.HasPrefix(name, pkg+"/") && !names[name] {
				t.Errorf("equivalentMutants names %s, which is no mutant of %s", name, pkg)
			}
		}
		ms := slices.Clone(all)
		if len(ms) > surveySample {
			rand.New(rand.NewSource(surveySeed)).Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		}
		ms, rs := runAll(t, workers, ms, surveySample)
		var count [survived + 1]int
		equivalent := 0
		for i, r := range rs {
			count[r.out]++
			for _, k := range r.killers {
				kills[k] = append(kills[k], ms[i].name)
			}
			if _, ok := equivalentMutants[ms[i].name]; ok && r.out != survived {
				t.Errorf("%s is recorded equivalent, but it %s", ms[i].name, r.out)
			}
			if r.out != survived {
				continue
			}
			if _, ok := equivalentMutants[ms[i].name]; ok {
				equivalent++
			} else {
				t.Errorf("%s survived", ms[i].name)
			}
		}
		t.Logf("survey %s: %d mutants, %d run, %d did not compile, %d killed by its tests, %d only by the goldens, %d timed out, %d survived (%d recorded equivalent)",
			pkg, len(all), len(ms), count[uncompiled], count[killedByPackage], count[killedByGoldens], count[timedOut], count[survived], equivalent)
	}
	tests := make([]string, 0, len(kills))
	for k := range kills {
		tests = append(tests, k)
	}
	sort.Strings(tests)
	for _, k := range tests {
		t.Logf("kills %s %d: %s", k, len(kills[k]), strings.Join(kills[k], " "))
	}
}

// lookupMutant finds a mutant by name, generating its package's mutants
// into byName once.
func lookupMutant(t *testing.T, root string, byName map[string]mutant, name string) mutant {
	t.Helper()
	if m, ok := byName[name]; ok {
		return m
	}
	dir := filepath.Dir(strings.SplitN(name, ":", 2)[0])
	ms, err := mutants(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		byName[m.name] = m
	}
	m, ok := byName[name]
	if !ok {
		t.Fatalf("no mutant %s: the code it changed has moved or gone", name)
	}
	return m
}

// TestMutationOperators pins what each operator does to a small file,
// so a change to the generator shows up without running a survey.
func TestMutationOperators(t *testing.T) {
	src := `package p

func f(xs []int, c chan int) int {
	n := 0
	for i := 0; i < len(xs); i++ {
		if xs[i] >= 7 {
			return i
		}
		n += xs[i]
	}
	go func() { c <- n }()
	return n
}
`
	ms, err := fileMutants("p/p.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range ms {
		got = append(got, m.name)
	}
	want := []string{
		"p/p.go:4:7:const+1",
		"p/p.go:5:11:const+1",
		"p/p.go:5:16:swap-cmp",
		"p/p.go:6:6:negate-cond",
		"p/p.go:6:12:swap-cmp",
		"p/p.go:6:15:const+1",
		"p/p.go:6:15:const-1",
		"p/p.go:7:4:drop-return",
		"p/p.go:9:3:drop-stmt",
		"p/p.go:11:2:drop-stmt",
		"p/p.go:11:14:drop-stmt",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("mutants:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, c := range []struct{ name, line string }{
		{"p/p.go:6:6:negate-cond", "if !(xs[i] >= 7) {"},
		{"p/p.go:6:12:swap-cmp", "if xs[i] > 7 {"},
		{"p/p.go:6:15:const-1", "if xs[i] >= 6 {"},
	} {
		i := slices.IndexFunc(ms, func(m mutant) bool { return m.name == c.name })
		if !bytes.Contains(ms[i].src, []byte(c.line)) {
			t.Errorf("%s:\n%s\nhas no line %q", c.name, ms[i].src, c.line)
		}
	}
	for _, name := range []string{"p/p.go:7:4:drop-return", "p/p.go:9:3:drop-stmt"} {
		i := slices.IndexFunc(ms, func(m mutant) bool { return m.name == name })
		if len(ms[i].src) >= len(src) {
			t.Errorf("%s dropped nothing:\n%s", name, ms[i].src)
		}
	}
}
