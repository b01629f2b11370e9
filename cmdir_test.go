// Page-directory tests for the CM-driven paths: a cm-scan, an OR union
// with CM disjuncts and cm-agg's hybrid sweep resolve clustered buckets
// to heap pages through the memory-resident bucket→page directory, so
// through churn they return exactly the forced table scan's rows while
// reading no index page at all; a reader pinned across a half-applied
// UPDATE sees the pre-statement rows; and the per-CM sweep gauges say
// how many of the swept pages were false positives.
package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/value"
)

// metricValue reads one metric by exact name.
func metricValue(t *testing.T, db *DB, name string) int64 {
	t.Helper()
	for _, m := range db.Metrics(name) {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("no metric %q", name)
	return 0
}

// coldReads runs stmt from a cold cache and returns how many disk pages
// it read and how many heap pages its scans visited.
func coldReads(t *testing.T, db *DB, stmt func()) (diskReads, heapPages int64) {
	t.Helper()
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	r0, h0 := metricValue(t, db, "disk.reads"), metricValue(t, db, "query.heap_pages")
	stmt()
	return metricValue(t, db, "disk.reads") - r0, metricValue(t, db, "query.heap_pages") - h0
}

// cmQueries is the predicate matrix on the CM's column. The subcats are
// the ones churnCats touches: 0, 18, 312 and 493 gain inserted rows at
// the heap tail, 125's rows move to cat 7 (a second, distant clustered
// bucket), 15 and 499 lose a cat to the DELETE, 25 is rewritten by the
// payload UPDATE. The range stops short of the rewritten cats: a page
// whose every version is dead is read through by a sweep but has no
// visible tuple for query.heap_pages to count.
var cmQueries = []struct {
	name  string
	preds []Pred
}{
	{"point", []Pred{Eq("subcat", IntVal(125))}},
	{"point tail", []Pred{Eq("subcat", IntVal(18))}},
	{"in", []Pred{In("subcat", IntVal(0), IntVal(312), IntVal(0), IntVal(493), IntVal(77777))}},
	{"range", []Pred{Between("subcat", IntVal(14), IntVal(24))}},
	{"point+residual", []Pred{Eq("subcat", IntVal(25)), Lt("price", IntVal(5000)), Ne("cat", IntVal(203))}},
}

// TestCMDirectoryEquivalenceThroughChurn holds every CM-driven path to
// the forced table scan's exact rows in the exact physical order — the
// cm-scan at workers 1/2/4, an OR union with a CM disjunct, and an
// aggregate that lowers to cm-agg (index-only on the loaded table,
// hybrid once the DELETE has dirtied an entry's extremes) — on the
// loaded table and again after churn. From a cold cache each of them
// reads exactly the heap pages its sweep visits: no index page.
func TestCMDirectoryEquivalenceThroughChurn(t *testing.T) {
	db, tbl := itemsFixture(t, 1)
	// runs executes spec at the given fan-out, from a cold cache, and
	// requires that every disk read was a heap page the sweep visited.
	runs := func(label string, workers int, spec QuerySpec) []Row {
		t.Helper()
		var rows []Row
		reads, heapPages := coldReads(t, db, func() {
			atWorkers(db, workers, func() { rows = mustSelect(t, db, spec) })
		})
		if reads != heapPages || reads == 0 {
			t.Errorf("%s: %d disk reads for %d heap pages swept — the probe read index pages", label, reads, heapPages)
		}
		return rows
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range cmQueries {
			want := collectVia(t, tbl, TableScan, q.preds...)
			if len(want) == 0 {
				t.Fatalf("%s %s: matched nothing; fixture broken", stage, q.name)
			}
			for _, w := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s %s workers=%d", stage, q.name, w)
				rowsEqual(t, label, runs(label, w, QuerySpec{Table: "items", Via: CMScan, Preds: q.preds}), want)
			}
		}

		// OR: two CM disjuncts, or a CM disjunct beside a clustered-index
		// disjunct, union their page lists with zero index I/O — the
		// clustered index resolves through the page directory too.
		for _, or := range []struct {
			name  string
			anyOf [][]Pred
			match func(cat, subcat int64) bool
		}{
			{"cm OR cm", [][]Pred{{Eq("subcat", IntVal(125))}, {Eq("subcat", IntVal(493))}},
				func(_, subcat int64) bool { return subcat == 125 || subcat == 493 }},
			{"cm OR clustered", [][]Pred{{Eq("subcat", IntVal(125))}, {Eq("cat", IntVal(7))}},
				func(cat, subcat int64) bool { return subcat == 125 || cat == 7 }},
		} {
			spec := QuerySpec{Table: "items", AnyOf: or.anyOf}
			info, err := db.ExplainSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if info.Nodes[0].Kind != "union" || !strings.Contains(info.Nodes[0].Detail, "cm-scan(subcat_cm)") {
				t.Fatalf("%s %s: planned %+v, want a union with a cm-scan disjunct", stage, or.name, info.Nodes[0])
			}
			var want []Row
			for _, r := range allRows(t, tbl) {
				if or.match(r[0].Int(), r[1].Int()) {
					want = append(want, r)
				}
			}
			for _, w := range []int{1, 4} {
				label := fmt.Sprintf("%s %s workers=%d", stage, or.name, w)
				rowsEqual(t, label, runs(label, w, spec), want)
			}
		}

		// cm-agg: MIN/MAX over the subcats the DELETE touched.
		agg := QuerySpec{Table: "items", Preds: []Pred{In("subcat", IntVal(15), IntVal(499), IntVal(300))},
			Aggs: []Agg{{Func: Count}, {Func: Min, Col: "price"}, {Func: Max, Col: "cat"}, {Func: Sum, Col: "price"}}}
		info, err := db.ExplainSpec(agg)
		if err != nil {
			t.Fatal(err)
		}
		hybrid := strings.Contains(info.Nodes[0].Detail, "hybrid sweep")
		if info.Nodes[0].Kind != "cm-agg" || hybrid != (stage == "churned") {
			t.Fatalf("%s: aggregate planned %+v; want cm-agg, hybrid only after churn", stage, info.Nodes[0])
		}
		scan := agg
		scan.Via = TableScan
		var want []Row
		atWorkers(db, 1, func() { want = mustSelect(t, db, scan) })
		for _, w := range []int{1, 4} {
			label := fmt.Sprintf("%s cm-agg workers=%d", stage, w)
			if hybrid {
				rowsEqual(t, label, runs(label, w, agg), want)
				continue
			}
			var got []Row
			atWorkers(db, w, func() { got = mustSelect(t, db, agg) })
			rowsEqual(t, label, got, want)
		}
	}
	check("loaded")
	churnCats(t, tbl)
	check("churned")
}

// TestCMSnapshotReadMidWrite is TestClusteredSnapshotReadMidWrite for
// the CM path. While a writer statement is applied but unpublished the
// page directory already counts the new versions' tail pages and still
// counts the ended versions' pages — neither set is retracted yet — so
// a cm-scan sweeps a superset and visibility
// leaves exactly the pre-statement rows; once it publishes, exactly the
// post-statement rows.
func TestCMSnapshotReadMidWrite(t *testing.T) {
	db, tbl := itemsFixture(t, 4)
	preds := []Pred{Between("subcat", IntVal(5), IntVal(7))}
	agg := QuerySpec{Table: "items", Preds: preds, Aggs: []Agg{{Func: Count}, {Func: Sum, Col: "price"}}}
	before := collectVia(t, tbl, TableScan, preds...)
	aggBefore := mustSelect(t, db, agg)

	var olds []heap.RID
	var news []value.Row
	tbl.inner.RLock()
	victims := exec.OrQuery{Disjuncts: []exec.Query{exec.NewQuery(exec.Between(0, value.NewInt(45), value.NewInt(55)))}}
	err := exec.SweepTuples(tbl.inner, victims, exec.WholeHeap(tbl.inner), 1, exec.DecodeTo(tbl.inner.Schema(), victims,
		func(rid heap.RID, row value.Row) bool {
			olds = append(olds, rid)
			moved := row.Clone()
			moved[0] = value.NewInt(50) // collapse the slice onto one cat ...
			moved[1] = value.NewInt(6)  // ... and one subcat, so CM pairs move too
			moved[2] = value.NewInt(-1)
			news = append(news, moved)
			return true
		}))
	tbl.inner.RUnlock()
	if err != nil || len(olds) == 0 {
		t.Fatalf("collecting the victim slice: n=%d err=%v", len(olds), err)
	}
	tx := tbl.inner.BeginWrite()
	if err := tx.UpdateBatch(imagesOf(t, tbl.inner, olds), withRows(news)); err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertBatch([]value.Row{{value.NewInt(50), value.NewInt(6), value.NewInt(-2), value.NewString("unpublished")}}); err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "mid-flight cm-scan", collectVia(t, tbl, CMScan, preds...), before)
	rowsEqual(t, "mid-flight auto", collectVia(t, tbl, Auto, preds...), before)
	aggMid := mustSelect(t, db, agg)
	rowsEqual(t, "mid-flight aggregate", aggMid, aggBefore)
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	after := collectVia(t, tbl, TableScan, preds...)
	if len(after) != len(before)+1 {
		t.Fatalf("published state has %d rows, want %d", len(after), len(before)+1)
	}
	rowsEqual(t, "published cm-scan", collectVia(t, tbl, CMScan, preds...), after)
	scan := agg
	scan.Via = TableScan
	var aggWant []Row
	atWorkers(db, 1, func() { aggWant = mustSelect(t, db, scan) })
	aggAfter := mustSelect(t, db, agg)
	rowsEqual(t, "published aggregate", aggAfter, aggWant)
}

// TestCMHealthGauges reads the per-CM sweep gauges off SHOW METRICS and
// EXPLAIN ANALYZE: pages_swept advances by the heap pages each cm-scan
// visits, false_positive_pages by those on which nothing survived the
// re-filter — none for a predicate the CM covers exactly, every page for
// one whose residual predicate rejects every row — and the directory's
// footprint is reported beside the CM's own size without changing it.
func TestCMHealthGauges(t *testing.T) {
	db, tbl := itemsFixture(t, 2)
	swept := func() int64 { return metricValue(t, db, "cm.subcat_cm.pages_swept") }
	falsePos := func() int64 { return metricValue(t, db, "cm.subcat_cm.false_positive_pages") }
	if swept() != 0 || falsePos() != 0 {
		t.Fatalf("fresh CM reports %d pages swept, %d false positives", swept(), falsePos())
	}

	exact, err := db.ExplainAnalyzeSpec(QuerySpec{Table: "items", Preds: []Pred{Eq("subcat", IntVal(251))}})
	if err != nil {
		t.Fatal(err)
	}
	a := exact.Nodes[0].Actual
	if !strings.HasPrefix(exact.Nodes[0].Detail, "cm-scan") || a.HeapPages == 0 || a.Rows == 0 {
		t.Fatalf("point probe ran as %+v with actuals %+v", exact.Nodes[0], a)
	}
	// A subcat spans whole cats, not whole pages: the sweep's first and
	// last page may hold only neighbours, every page between matches.
	if a.FalsePositivePages > 2 || swept() != a.HeapPages || falsePos() != a.FalsePositivePages {
		t.Errorf("exact probe: node says %d of %d pages false-positive, gauges say %d of %d",
			a.FalsePositivePages, a.HeapPages, falsePos(), swept())
	}

	s0, f0 := swept(), falsePos()
	none, err := db.ExplainAnalyzeSpec(QuerySpec{Table: "items", Via: CMScan,
		Preds: []Pred{Eq("subcat", IntVal(251)), Lt("price", IntVal(-1))}})
	if err != nil {
		t.Fatal(err)
	}
	b := none.Nodes[0].Actual
	if b.Rows != 0 || b.HeapPages != a.HeapPages || b.FalsePositivePages != b.HeapPages {
		t.Errorf("all-rejecting probe: %d rows, %d of %d pages false-positive (exact probe swept %d)",
			b.Rows, b.FalsePositivePages, b.HeapPages, a.HeapPages)
	}
	if swept()-s0 != b.HeapPages || falsePos()-f0 != b.HeapPages {
		t.Errorf("gauges moved by %d swept / %d false-positive, want %d each", swept()-s0, falsePos()-f0, b.HeapPages)
	}
	res, err := db.Exec("EXPLAIN ANALYZE SELECT cat FROM items WHERE subcat = 251 AND price < -1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, fmt.Sprintf("%d false-positive pages", b.HeapPages)) {
		t.Errorf("EXPLAIN ANALYZE message %q does not report the false-positive pages", res.Message)
	}

	// An aggregate folded over a cm-scan (price is not a CM column, so
	// this is no cm-agg) sweeps for the CM too.
	s0 = swept()
	folded, err := db.ExplainAnalyzeSpec(QuerySpec{Table: "items", Aggs: []Agg{{Func: Sum, Col: "price"}},
		Preds: []Pred{Eq("subcat", IntVal(251)), Ge("price", IntVal(0))}})
	if err != nil {
		t.Fatal(err)
	}
	if c := folded.Nodes[0]; !strings.HasPrefix(c.Detail, "cm-scan") || swept()-s0 != c.Actual.HeapPages || c.Actual.HeapPages != a.HeapPages {
		t.Errorf("aggregate over %q swept %d pages, gauge moved by %d, the plain probe swept %d",
			c.Detail, c.Actual.HeapPages, swept()-s0, a.HeapPages)
	}

	// With metrics off nothing is counted — the sweep pays nothing.
	db.SetMetricsEnabled(false)
	s1 := swept()
	collectVia(t, tbl, CMScan, Eq("subcat", IntVal(251)))
	db.SetMetricsEnabled(true)
	if swept() != s1 {
		t.Errorf("pages_swept moved by %d with metrics disabled", swept()-s1)
	}

	info := tbl.CMs()[0]
	dir := metricValue(t, db, "table.directory_bytes")
	buckets := int64(tbl.inner.Buckets().NumBuckets())
	if info.DirectoryBytes != dir || dir <= 0 || dir > 64*buckets {
		t.Errorf("directory: CMInfo says %d bytes, the gauge %d, for %d buckets (want at most 64 each)",
			info.DirectoryBytes, dir, buckets)
	}
	// The paper's serialized-CM size — what the benchmark's cm_size_ratio
	// divides — is the same 19 532 bytes it was before the directory.
	if info.SizeBytes != 19532 {
		t.Errorf("CMInfo.SizeBytes = %d, want 19532: the directory must not be folded into it", info.SizeBytes)
	}
}
