// Clustered-index access path tests: predicates on the clustering
// column plan onto the clustered index (bucket bounds plus page
// directory) and return exactly the table scan's rows through churn and concurrent writers; UPDATE and DELETE
// plan their read side like a SELECT and leave byte-identical tables
// and CMs whichever path finds the rows; the §4 estimate tracks the
// simulated disk for the new path as it does for the others; and the
// planner's statistics follow the table instead of freezing at the
// first plan.
package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/value"
)

// itemsFixture builds the Figure-6 physical design the benchmark runs
// on: 60k correlated items clustered on cat (one clustered bucket per
// page), a secondary index and a CM on subcat.
func itemsFixture(t testing.TB, workers int) (*DB, *Table) {
	t.Helper()
	return itemsFixtureOn(t, Config{BufferPoolPages: 4096, Workers: workers})
}

// itemsFixtureOn is itemsFixture on an engine opened with cfg.
func itemsFixtureOn(t testing.TB, cfg Config) (*DB, *Table) {
	t.Helper()
	return itemsTable(t, cfg, 60000)
}

// cmOn returns the table's CM over exactly column col, or nil.
func cmOn(inner *table.Table, col int) *core.CM {
	for _, cm := range inner.CMs() {
		if slices.Equal(cm.Spec().UCols, []int{col}) {
			return cm
		}
	}
	return nil
}

// itemsTable is itemsFixtureOn over the first n correlated items.
func itemsTable(t testing.TB, cfg Config, n int) (*DB, *Table) {
	t.Helper()
	db := Open(cfg)
	tbl := emptyItems(t, db)
	if err := tbl.Load(itemsRows(n)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("ix_subcat", "subcat"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("subcat_cm", CMColumn{Name: "subcat"}); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// emptyItems creates the items table, clustered on cat with one
// clustered bucket per page, and loads nothing.
func emptyItems(t testing.TB, db *DB) *Table {
	t.Helper()
	tbl, err := db.CreateTable(TableSpec{
		Name: "items",
		Columns: []Column{
			{Name: "cat", Kind: Int}, {Name: "subcat", Kind: Int},
			{Name: "price", Kind: Int}, {Name: "desc", Kind: String},
		},
		ClusteredBy: []string{"cat"},
		BucketPages: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// itemsRows is the first n correlated items as rows of the items table.
func itemsRows(n int) []Row {
	items := datagen.CorrelatedItems(n)
	rows := make([]Row, len(items))
	for i, it := range items {
		rows[i] = Row{IntVal(it.Cat), IntVal(it.Subcat), IntVal(it.Price), StringVal(it.Desc)}
	}
	return rows
}

// clusteredQueries is the predicate matrix on the clustering column:
// point, IN (with a repeated and an absent value), closed and half-open
// ranges, each also with a residual predicate the sweep must re-filter.
var clusteredQueries = []struct {
	name  string
	preds []Pred
}{
	{"point", []Pred{Eq("cat", IntVal(7))}},
	{"in", []Pred{In("cat", IntVal(7), IntVal(2500), IntVal(7), IntVal(3999), IntVal(123456))}},
	{"range", []Pred{Between("cat", IntVal(100), IntVal(299))}},
	{"half-open", []Pred{Gt("cat", IntVal(3900))}},
	{"range+residual", []Pred{Between("cat", IntVal(100), IntVal(299)), Ne("subcat", IntVal(20)), Lt("price", IntVal(5000))}},
	{"point+residual", []Pred{Eq("cat", IntVal(7)), Ge("price", IntVal(0))}},
}

// churnCats rewrites the fixture around the queried cats so that live
// versions sit at the heap tail (outside their clustered buckets' page
// ranges) and dead versions stay in place: inserts into queried cats,
// an UPDATE that moves rows between cats (the clustering key itself
// changes), an UPDATE of a payload column, and DELETEs.
func churnCats(t *testing.T, tbl *Table) {
	t.Helper()
	for i := 0; i < 60; i++ {
		cat := []int64{7, 150, 2500, 3950}[i%4]
		if err := tbl.Insert(Row{IntVal(cat), IntVal(cat / 8), IntVal(int64(i)), StringVal("fresh")}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := tbl.db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "cat", Val: IntVal(7)}}, Eq("cat", IntVal(1000))); err != nil || n == 0 {
		t.Fatalf("moving update: n=%d err=%v", n, err)
	}
	if n, err := tbl.db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "price", Val: IntVal(1)}}, Between("cat", IntVal(200), IntVal(210))); err != nil || n == 0 {
		t.Fatalf("payload update: n=%d err=%v", n, err)
	}
	if n, err := tbl.db.DeleteCtx(context.Background(), tbl.Name(), In("cat", IntVal(120), IntVal(3999))); err != nil || n == 0 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
}

// TestClusteredEquivalenceThroughChurn holds the clustered-index scan
// to the table scan's exact rows in the exact physical order, for every
// predicate form, at workers 1/2/4/8, on the loaded table and again
// after churn; the narrow forms must also be what the planner picks on
// its own.
func TestClusteredEquivalenceThroughChurn(t *testing.T) {
	db, tbl := itemsFixture(t, 1)
	check := func(stage string) {
		t.Helper()
		for _, q := range clusteredQueries {
			db.workers = 1
			want := collectVia(t, tbl, TableScan, q.preds...)
			if len(want) == 0 {
				t.Fatalf("%s %s: matched nothing; fixture broken", stage, q.name)
			}
			for _, w := range []int{1, 2, 4, 8} {
				db.workers = w
				label := fmt.Sprintf("%s %s workers=%d", stage, q.name, w)
				rowsEqual(t, label, collectVia(t, tbl, ClusteredIndexScan, q.preds...), want)
				rowsEqual(t, label+" auto", collectVia(t, tbl, Auto, q.preds...), want)
			}
			info, err := db.ExplainSpec(QuerySpec{Table: tbl.Name(), Preds: q.preds})
			if err != nil {
				t.Fatal(err)
			}
			if info.Method != ClusteredIndexScan || info.Uses != "items.clustered" {
				t.Errorf("%s %s: planned %v/%q, want the clustered index", stage, q.name, info.Method, info.Uses)
			}
		}
	}
	check("loaded")
	churnCats(t, tbl)
	check("churned")
}

// TestClusteredSnapshotReadMidWrite pins snapshot isolation on the new
// path: while a writer statement is applied but unpublished — new
// versions appended and indexed, old versions ended — a clustered read
// still returns exactly the pre-statement rows, and exactly the
// post-statement rows once it publishes, agreeing with the table scan
// both times.
func TestClusteredSnapshotReadMidWrite(t *testing.T) {
	_, tbl := itemsFixture(t, 4)
	preds := []Pred{Between("cat", IntVal(40), IntVal(60))}
	before := collectVia(t, tbl, TableScan, preds...)

	var olds []heap.RID
	var news []value.Row
	tbl.inner.RLock()
	victims := exec.OrQuery{Disjuncts: []exec.Query{exec.NewQuery(exec.Between(0, value.NewInt(45), value.NewInt(55)))}}
	err := exec.SweepTuples(tbl.inner, victims, exec.WholeHeap(tbl.inner), 1, exec.DecodeTo(tbl.inner.Schema(), victims,
		func(rid heap.RID, row value.Row) bool {
			olds = append(olds, rid)
			moved := row.Clone()
			moved[0] = value.NewInt(50) // collapse the slice onto one cat
			moved[2] = value.NewInt(-1)
			news = append(news, moved)
			return true
		}))
	tbl.inner.RUnlock()
	if err != nil || len(olds) == 0 {
		t.Fatalf("collecting the victim slice: n=%d err=%v", len(olds), err)
	}
	tx := tbl.inner.BeginWrite()
	if err := tx.UpdateBatch(olds, news); err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertBatch([]value.Row{{value.NewInt(50), value.NewInt(6), value.NewInt(-2), value.NewString("unpublished")}}); err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "mid-flight clustered", collectVia(t, tbl, ClusteredIndexScan, preds...), before)
	rowsEqual(t, "mid-flight auto", collectVia(t, tbl, Auto, preds...), before)
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	after := collectVia(t, tbl, TableScan, preds...)
	if len(after) != len(before)+1 {
		t.Fatalf("published state has %d rows, want %d", len(after), len(before)+1)
	}
	rowsEqual(t, "published clustered", collectVia(t, tbl, ClusteredIndexScan, preds...), after)
}

// cmFingerprint flattens a CM into sorted "key|bucket|stats" lines.
// Min/Max are left out for entries a retraction marked dirty: there
// they are a bound, not a value a rebuild reproduces.
func cmFingerprint(t *testing.T, cm *core.CM) []string {
	t.Helper()
	var out []string
	err := cm.Walk(func(e core.Entry, _ []value.Value) bool {
		for i, b := range e.Buckets {
			s, n := e.Slots[i], len(cm.Spec().StatCols)
			si, sf, lo, hi := make([]int64, n), make([]float64, n), make([]value.Value, n), make([]value.Value, n)
			for c := range n {
				si[c], sf[c], lo[c], hi[c] = cm.PairStat(s, c)
			}
			line := fmt.Sprintf("%x|%d|n=%d si=%v sf=%v", e.Key, b, cm.PairCount(s), si, sf)
			if !cm.PairDirty(s) {
				line += fmt.Sprintf(" min=%v max=%v", lo, hi)
			}
			out = append(out, line)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestWritesPlanTheirReadSide runs the same UPDATE and DELETE statements
// on twin fixtures, once planned by the cost model — which must put the
// clustered index under the write node — and once compiled with the
// table scan forced, at one worker and at eight. Affected counts,
// the full physical-order table contents and the CM (pairs, counts and
// per-entry statistics) must come out identical, and the CM must equal
// one rebuilt from the final heap.
func TestWritesPlanTheirReadSide(t *testing.T) {
	type outcome struct {
		affected []int64
		rows     []Row
		cm       []string
		rebuilt  []string
	}
	run := func(workers int, force exec.Method) outcome {
		db, tbl := itemsFixture(t, workers)
		var out outcome

		// write compiles and runs one statement — an UPDATE, or a DELETE
		// when sets is nil — with the given read-side method.
		write := func(sets []Set, preds ...Pred) {
			t.Helper()
			q, err := buildQuery(tbl, preds)
			if err != nil {
				t.Fatal(err)
			}
			spec := plan.Spec{Disjuncts: []exec.Query{q}, Method: force}
			var wt *plan.WriteTree
			kind := "delete"
			if sets == nil {
				wt, err = plan.CompileDelete(tbl.inner, spec, planStats)
			} else {
				kind = "update"
				esets := make([]exec.SetClause, len(sets))
				for i, s := range sets {
					ci, _ := tbl.colIndex(s.Col)
					esets[i] = exec.SetClause{Col: ci, Val: s.Val.v}
				}
				wt, err = plan.CompileUpdate(tbl.inner, spec, esets, planStats)
			}
			if err != nil {
				t.Fatal(err)
			}
			if nodes := wt.Explain().Nodes; force == exec.MethodAuto &&
				(nodes[0].Detail != "clustered-index-scan(items.clustered)" || nodes[len(nodes)-1].Kind != kind) {
				t.Fatalf("%s plan = %+v, want the clustered index under the write node", kind, nodes)
			}
			n, err := wt.Run(db.workers)
			if err != nil {
				t.Fatal(err)
			}
			out.affected = append(out.affected, n)
		}
		update, del := write, func(preds ...Pred) { t.Helper(); write(nil, preds...) }

		// The benchmark's statement shape, a range that rewrites a CM
		// column, an update that moves the clustering key, and deletes
		// over a point, an IN list and a range that also covers rows the
		// earlier statements moved to the heap tail.
		update([]Set{{Col: "price", Val: IntVal(1)}}, Eq("cat", IntVal(7)))
		update([]Set{{Col: "subcat", Val: IntVal(499)}, {Col: "desc", Val: StringVal("rewritten")}},
			Between("cat", IntVal(300), IntVal(340)), Ne("price", IntVal(3)))
		update([]Set{{Col: "cat", Val: IntVal(8)}}, In("cat", IntVal(2000), IntVal(2001)))
		del(Eq("cat", IntVal(7)))
		del(In("cat", IntVal(320), IntVal(2500)), Gt("price", IntVal(100)))
		del(Between("cat", IntVal(5), IntVal(12)))

		out.rows = allRows(t, tbl)
		live := cmOn(tbl.inner, 1)
		out.cm = cmFingerprint(t, live)
		tbl.inner.LockWrite()
		rebuilt, err := tbl.inner.CreateCM(core.Spec{Name: "rebuilt", UCols: []int{1}})
		tbl.inner.UnlockWrite()
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt.Keys() != live.Keys() || rebuilt.Pairs() != live.Pairs() {
			t.Fatalf("live CM keys=%d pairs=%d, rebuilt keys=%d pairs=%d",
				live.Keys(), live.Pairs(), rebuilt.Keys(), rebuilt.Pairs())
		}
		out.rebuilt = cmFingerprint(t, rebuilt)
		return out
	}

	ref := run(1, exec.MethodTableScan)
	for _, n := range ref.affected {
		if n == 0 {
			t.Fatalf("a statement matched nothing (affected %v); fixture broken", ref.affected)
		}
	}
	// Against a rebuild only what a rebuild reproduces compares: strip
	// the extremes from both sides, keep counts and sums.
	stripMM := func(lines []string) string {
		out := make([]string, len(lines))
		for i, l := range lines {
			if at := strings.Index(l, " min="); at >= 0 {
				l = l[:at]
			}
			out[i] = l
		}
		return strings.Join(out, "\n")
	}
	if stripMM(ref.cm) != stripMM(ref.rebuilt) {
		t.Error("table-scan writes: live CM counts/sums differ from a rebuild")
	}
	for _, workers := range []int{1, 8} {
		got := run(workers, exec.MethodAuto)
		label := fmt.Sprintf("clustered writes workers=%d", workers)
		if fmt.Sprint(got.affected) != fmt.Sprint(ref.affected) {
			t.Errorf("%s: affected %v, table-scan writes %v", label, got.affected, ref.affected)
		}
		rowsEqual(t, label+" table contents", got.rows, ref.rows)
		if strings.Join(got.cm, "\n") != strings.Join(ref.cm, "\n") {
			t.Errorf("%s: CM differs from the table-scan writes' CM", label)
		}
		if stripMM(got.cm) != stripMM(got.rebuilt) {
			t.Errorf("%s: live CM counts/sums differ from a rebuild", label)
		}
	}
}

// TestWriteStatementsUseTheClusteredIndex drives the facade and SQL
// surfaces: EXPLAIN UPDATE of the benchmark's statement shows the
// clustered index under the update node, and a cold-cache DELETE of one
// cat of the 1 300-page table reads a handful of pages, not the heap.
func TestWriteStatementsUseTheClusteredIndex(t *testing.T) {
	db, tbl := itemsFixture(t, 2)
	res, err := db.Exec("EXPLAIN UPDATE items SET price = 1 WHERE cat = 7")
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first[0].Str() != "clustered-index-scan" || first[1].Str() != "items.clustered" || last[0].Str() != "update" {
		t.Errorf("EXPLAIN UPDATE = %v ... %v, want clustered-index-scan(items.clustered) under update", first, last)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Reads
	n, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("cat", IntVal(1234)))
	if err != nil || n == 0 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if reads := db.Stats().Reads - before; reads > 20 {
		t.Errorf("point DELETE read %d pages of a %d-page table", reads, tbl.HeapPages())
	}
	if left := collectVia(t, tbl, TableScan, Eq("cat", IntVal(1234))); len(left) != 0 {
		t.Errorf("%d rows survived the delete", len(left))
	}
}

// TestClusteredWriteReadsOnlyHeapPages counts what a write statement
// reads from a cold cache on the Figure 6 items table with a CM on subcat
// and no secondary index. The clustered index is memory-resident (bucket
// bounds plus page directory), so a write reads heap pages alone: a
// single-row INSERT reads the one page its row is placed on, and an
// UPDATE of one cat's price reads at most the pages of that cat's
// clustered bucket, because its new versions overwrite the old ones in
// their slots.
func TestClusteredWriteReadsOnlyHeapPages(t *testing.T) {
	db := Open(Config{BufferPoolPages: 4096})
	tbl := emptyItems(t, db)
	if err := tbl.Load(itemsRows(60000)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("subcat_cm", CMColumn{Name: "subcat"}); err != nil {
		t.Fatal(err)
	}
	inner := tbl.inner
	// coldReads runs one statement from a cold cache and returns the
	// pages it read.
	coldReads := func(sql string) uint64 {
		t.Helper()
		if err := db.ColdCache(); err != nil {
			t.Fatal(err)
		}
		before := db.Stats().Reads
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Affected == 0 {
			t.Fatalf("%s changed no row", sql)
		}
		return db.Stats().Reads - before
	}
	rng := rand.New(rand.NewSource(5))
	desc := strings.Repeat("x", 150)
	var updateReads, updates uint64
	for i := 0; i < 40; i++ {
		cat := int64(rng.Intn(datagen.CorrelatedCats))
		if i%2 == 0 {
			sql := fmt.Sprintf("INSERT INTO items VALUES (%d, %d, %d, '%s')", cat, cat/8, rng.Intn(10000), desc)
			if reads := coldReads(sql); reads != 1 {
				t.Errorf("statement %d: a cold single-row INSERT read %d pages, want 1", i, reads)
			}
			continue
		}
		inner.RLock()
		pages, _ := inner.PageDir().Refs(inner.ClusterBucketFor(value.Row{value.NewInt(cat)}))
		inner.RUnlock()
		reads := coldReads(fmt.Sprintf("UPDATE items SET price = %d WHERE cat = %d", rng.Intn(10000), cat))
		if reads > uint64(len(pages)) {
			t.Errorf("statement %d: a cold UPDATE of cat %d read %d pages, want at most its bucket's %d",
				i, cat, reads, len(pages))
		}
		updateReads += reads
		updates++
	}
	t.Logf("a cold UPDATE of one cat read %.2f pages on average", float64(updateReads)/float64(updates))
}

// TestClusteredCancelAndFault covers the new path's failure edges: a
// clustered read cancelled from its own row callback stops with the
// context's error, a cancelled DELETE and a faulted UPDATE that plan
// onto the clustered index leave the table untouched, and no frame
// stays pinned.
func TestClusteredCancelAndFault(t *testing.T) {
	db, tbl := itemsFixture(t, 4)
	preds := []Pred{Between("cat", IntVal(100), IntVal(900))}
	want := len(collectVia(t, tbl, TableScan, preds...))

	// One worker: the serial sweep polls its context at every heap page,
	// so the cancellation must cut the emission short.
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	var err error
	atWorkers(db, 1, func() {
		err = db.SelectSpec(ctx, QuerySpec{Table: "items", Via: ClusteredIndexScan, Preds: preds}, func(Row) bool {
			seen++
			cancel()
			return true
		})
	})
	if !errors.Is(err, context.Canceled) || seen >= want {
		t.Fatalf("cancelled clustered read: err=%v after %d of %d rows", err, seen, want)
	}

	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, err := db.DeleteCtx(dead, tbl.Name(), preds...); !errors.Is(err, context.Canceled) {
		t.Fatalf("DELETE under a dead context returned %v", err)
	}

	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	db.SetFaultPlan(&FaultPlan{EveryKth: 3})
	_, err = db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "price", Val: IntVal(-7)}}, preds...)
	db.SetFaultPlan(nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("UPDATE under a fault plan returned %v", err)
	}

	if got := len(collectVia(t, tbl, ClusteredIndexScan, preds...)); got != want {
		t.Errorf("%d rows after the failed statements, want %d", got, want)
	}
	if got := len(collectVia(t, tbl, TableScan, Eq("price", IntVal(-7)))); got != 0 {
		t.Errorf("the faulted UPDATE left %d rewritten rows", got)
	}
	if pinned := db.PinnedFrames(); pinned != 0 {
		t.Errorf("%d frames left pinned", pinned)
	}
}

// truthCase is one statement of a cost-model truth test: the predicates
// and the access path they must plan as.
type truthCase struct {
	name, method string
	preds        []Pred
}

// The cm cases of the truth tests. Not subcat 250: its first heap page
// happens to continue a write stream the fixture's first flush left in
// sim's read-ahead table, which makes that one probe all-sequential (no
// seek at all).
var cmAndScanTruthCases = []truthCase{
	{"cm point", "cm-scan", []Pred{Eq("subcat", IntVal(251))}},
	{"cm in-list", "cm-scan", []Pred{In("subcat", IntVal(3), IntVal(251), IntVal(480))}},
	{"table scan", "table-scan", []Pred{Ne("subcat", IntVal(3))}},
}

// checkCostModelTruth runs each case from a cold cache and requires its
// §4 estimate to stay within a factor of 1.5 of the virtual disk time
// the execution is charged.
func checkCostModelTruth(t *testing.T, db *DB, cases []truthCase) {
	t.Helper()
	for _, c := range cases {
		spec := QuerySpec{Table: "items", Preds: c.preds}
		if err := db.ColdCache(); err != nil {
			t.Fatal(err)
		}
		v0 := db.Stats().Elapsed
		info, err := db.ExplainAnalyzeSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		actual := db.Stats().Elapsed - v0
		if !strings.HasPrefix(info.Nodes[0].Detail, c.method) {
			t.Errorf("%s: planned %q, want %s", c.name, info.Nodes[0].Detail, c.method)
			continue
		}
		ratio := float64(info.EstimatedCost) / float64(actual)
		const tol = 1.5
		t.Logf("%s: estimated/measured = %.2f", c.name, ratio)
		if actual <= 0 || ratio < 1/tol || ratio > tol {
			t.Errorf("%s: estimated %v, measured %v (ratio %.2f) — outside a factor of %.1f",
				c.name, info.EstimatedCost, actual, ratio, tol)
		}
	}
}

// TestCostModelTruthClustered is Figure 10 for the engine's planned
// paths: from a cold cache, the §4 estimate of each statement stays
// within a factor of 1.5 of the virtual disk time its execution is
// charged: the table scan, and the CM and clustered paths, both costed
// from the bucket directory.
func TestCostModelTruthClustered(t *testing.T) {
	db, _ := itemsFixture(t, 1)
	checkCostModelTruth(t, db, slices.Concat(cmAndScanTruthCases, []truthCase{
		{"clustered point", "clustered-index-scan", []Pred{Eq("cat", IntVal(7))}},
		{"clustered in-list", "clustered-index-scan", []Pred{In("cat", IntVal(7), IntVal(1500), IntVal(3200))}},
		{"clustered narrow range", "clustered-index-scan", []Pred{Between("cat", IntVal(100), IntVal(299))}},
		{"clustered wide range", "clustered-index-scan", []Pred{Between("cat", IntVal(100), IntVal(2099))}},
	}))
}

// TestCostModelTruthConfiguredDisk: the planner prices with the disk the
// engine runs on, not with the paper's. On an engine opened with a 1 ms
// seek the estimates of a cm point probe, a cm IN-list and a table scan
// are still within 1.5x of what the disk charges (priced at the paper's
// 5.5 ms the two cm probes are 4–5x off), and the scan-vs-index
// crossover moves the way a cheaper seek says it must: an IN-list on the
// clustering column stays on the clustered index for more values before
// the plan falls back to the table scan.
func TestCostModelTruthConfiguredDisk(t *testing.T) {
	fast, fastTbl := itemsFixtureOn(t, Config{BufferPoolPages: 4096, Workers: 1, SeekCost: time.Millisecond})
	checkCostModelTruth(t, fast, cmAndScanTruthCases)

	// crossover is the longest IN-list of cats 40 apart (one bucket and
	// one seek each) that still plans onto the clustered index.
	crossover := func(tbl *Table) int {
		var cats []Value
		for n := 1; n <= 100; n++ {
			cats = append(cats, IntVal(int64(40*(n-1))))
			info, err := tbl.db.ExplainSpec(QuerySpec{Table: tbl.Name(), Preds: []Pred{In("cat", cats...)}})
			if err != nil {
				t.Fatal(err)
			}
			if info.Method != ClusteredIndexScan {
				return n - 1
			}
		}
		return 100
	}
	_, paperTbl := itemsFixture(t, 1)
	atPaper, atFast := crossover(paperTbl), crossover(fastTbl)
	t.Logf("clustered IN-list crossover: %d values at a 5.5 ms seek, %d at 1 ms", atPaper, atFast)
	if atPaper < 1 || atPaper >= 100 || atFast <= atPaper {
		t.Errorf("crossover at %d values with a 5.5 ms seek and %d with a 1 ms seek; the cheaper seek must move it out", atPaper, atFast)
	}
}

// TestClusteredCrossover walks a range on the clustering column from
// one value to the whole domain: narrow ranges plan onto the clustered
// index, a range spanning all but a seek's worth of the heap (3,800 of
// the 4,000 cats; the estimate crosses the scan's at 3,787) plans as the
// table scan, the estimate never exceeds the scan's and never decreases
// as the range widens — and a subcat probe on the same fixture is still
// the CM's.
func TestClusteredCrossover(t *testing.T) {
	db, tbl := itemsFixture(t, 1)
	scan, err := db.ExplainSpec(QuerySpec{Table: tbl.Name()})
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for _, c := range []struct {
		span int64
		want AccessMethod
	}{{0, ClusteredIndexScan}, {10, ClusteredIndexScan}, {199, ClusteredIndexScan}, {1000, ClusteredIndexScan},
		{3700, ClusteredIndexScan}, {3800, TableScan}, {3999, TableScan}} {
		info, err := db.ExplainSpec(QuerySpec{Table: tbl.Name(), Preds: []Pred{Between("cat", IntVal(0), IntVal(c.span))}})
		if err != nil {
			t.Fatal(err)
		}
		if info.Method != c.want {
			t.Errorf("span %d: planned %v (est %v), want %v", c.span, info.Method, info.EstimatedCost, c.want)
		}
		if info.EstimatedCost > scan.EstimatedCost || info.EstimatedCost < last {
			t.Errorf("span %d: estimate %v outside [previous %v, scan %v]", c.span, info.EstimatedCost, last, scan.EstimatedCost)
		}
		last = info.EstimatedCost
	}

	for k := int64(0); k < 500; k += 37 {
		info, err := db.ExplainSpec(QuerySpec{Table: "items", Cols: []string{"price"}, Preds: []Pred{Eq("subcat", IntVal(k))}})
		if err != nil {
			t.Fatal(err)
		}
		if info.Method != CMScan {
			t.Errorf("subcat = %d planned %v, want cm-scan", k, info.Method)
		}
	}
}

// TestPlannerStatsFollowTheTable is the regression test for statistics
// frozen at the first plan: a SELECT against the still-empty table must
// not pin cost_scan at zero (nor pair statistics at "no rows") for the
// loaded one, and heap growth under churn must show in the next
// estimate.
func TestPlannerStatsFollowTheTable(t *testing.T) {
	db := Open(Config{})
	mustExec := func(sql string) *Result {
		t.Helper()
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustExec("CREATE TABLE b (k INT, v INT, pad STRING) CLUSTERED BY (k)")
	mustExec("CREATE INDEX ix_v ON b (v)")
	// Plan (and run) against the empty table: under the bug this cached
	// pages = 0 and the index's pair statistics for good.
	mustExec("SELECT k FROM b WHERE v = 17")
	mustExec("SELECT k FROM b WHERE k = 1")

	var sb strings.Builder
	sb.WriteString("LOAD INTO b VALUES ")
	for i := 0; i < 50000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'padding-padding-padding-%d')", i/10, (i*7919)%50000, i)
	}
	mustExec(sb.String())

	tbl := db.Table("b")
	byV, err := db.ExplainSpec(QuerySpec{Table: tbl.Name(), Preds: []Pred{Eq("v", IntVal(17))}})
	if err != nil {
		t.Fatal(err)
	}
	if byV.Uses != "ix_v" || byV.EstimatedCost <= 0 {
		t.Errorf("after LOAD, v = 17 planned %v/%q est %v, want ix_v with a real estimate",
			byV.Method, byV.Uses, byV.EstimatedCost)
	}
	byK, err := db.ExplainSpec(QuerySpec{Table: tbl.Name(), Preds: []Pred{Eq("k", IntVal(1))}})
	if err != nil {
		t.Fatal(err)
	}
	if byK.Method != ClusteredIndexScan {
		t.Errorf("after LOAD, k = 1 planned %v, want the clustered index", byK.Method)
	}
	scan0, err := db.ExplainSpec(QuerySpec{Table: tbl.Name()})
	if err != nil {
		t.Fatal(err)
	}
	if scan0.EstimatedCost <= 0 {
		t.Fatalf("after LOAD, the table scan is estimated at %v", scan0.EstimatedCost)
	}

	// Churn: every UPDATE appends a version, the heap grows, and the
	// scan estimate must grow with it.
	pages0 := tbl.HeapPages()
	for i := 0; i < 3; i++ {
		mustExec("UPDATE b SET v = 1 WHERE k < 1500")
	}
	scan1, err := db.ExplainSpec(QuerySpec{Table: tbl.Name()})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.HeapPages() <= pages0 || scan1.EstimatedCost <= scan0.EstimatedCost {
		t.Errorf("heap %d -> %d pages but scan estimate %v -> %v",
			pages0, tbl.HeapPages(), scan0.EstimatedCost, scan1.EstimatedCost)
	}
}
