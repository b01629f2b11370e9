// EXPLAIN golden test: one statement per plan node shape, explained and
// analyzed through SQL and through the Go API, printed field by field
// (wall times masked) against testdata/explain.golden. The costs are
// the §4 model's float arithmetic; the golden is amd64's output.
package repro

import (
	"context"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
)

var updateExplainGolden = flag.Bool("update-explain-golden", false, "rewrite testdata/explain.golden from this run")

// explainGoldenPath is the golden TestExplainGolden compares against.
const explainGoldenPath = "testdata/explain.golden"

// TestExplainGolden pins what EXPLAIN and EXPLAIN ANALYZE print for
// every node shape: a forced scan per access method, the OR union and
// its filtered-scan fallback, pure and hybrid cm-agg, filter, project,
// agg, having, full and bounded sort, limit (LIMIT 0 too), UPDATE and a
// DELETE write tree. A SELECT goes through SQL's EXPLAIN [ANALYZE] and
// through ExplainSpec / ExplainAnalyzeSpec, and the two plans must print
// alike; each analyzed run starts from a cold cache, so its page counts
// are the statement's own.
func TestExplainGolden(t *testing.T) {
	db, tbl := explainFixture(t)
	var out strings.Builder

	forced := []QuerySpec{
		{Via: TableScan, Preds: []Pred{Eq("qty", IntVal(7))}},
		{Via: SortedIndexScan, Preds: []Pred{Eq("qty", IntVal(7))}},
		{Via: PipelinedIndexScan, Preds: []Pred{Eq("qty", IntVal(7))}},
		{Via: CMScan, CM: "cm_qty", Preds: []Pred{Eq("qty", IntVal(7))}},
		{Via: ClusteredIndexScan, Preds: []Pred{Between("cat", IntVal(10), IntVal(12))}},
	}
	for _, spec := range forced {
		spec.Table = "items"
		fmt.Fprintf(&out, "== Go %v\n", spec.Via)
		explained, analyzed := specPlans(t, db, spec)
		out.WriteString(explained + analyzed)
	}

	selects := []struct {
		sql  string
		spec QuerySpec
	}{
		{"SELECT * FROM items WHERE qty = 7", QuerySpec{Preds: []Pred{Eq("qty", IntVal(7))}}},
		{"SELECT * FROM items WHERE qty = 7 OR cat = 30",
			QuerySpec{AnyOf: [][]Pred{{Eq("qty", IntVal(7))}, {Eq("cat", IntVal(30))}}}},
		{"SELECT * FROM items WHERE qty = 7 OR city = 'boston'",
			QuerySpec{AnyOf: [][]Pred{{Eq("qty", IntVal(7))}, {Eq("city", StringVal("boston"))}}}},
		{"SELECT COUNT(*), AVG(qty) FROM items WHERE qty = 7",
			QuerySpec{Preds: []Pred{Eq("qty", IntVal(7))}, Aggs: []Agg{{Func: Count}, {Func: Avg, Col: "qty"}}}},
		{"SELECT COUNT(*), SUM(wide) FROM items WHERE wide BETWEEN 100 AND 300",
			QuerySpec{Preds: []Pred{Between("wide", IntVal(100), IntVal(300))}, Aggs: []Agg{{Func: Count}, {Func: Sum, Col: "wide"}}}},
		{"SELECT city, price FROM items WHERE qty = 7 AND city != 'toledo'",
			QuerySpec{Cols: []string{"city", "price"}, Preds: []Pred{Eq("qty", IntVal(7)), Ne("city", StringVal("toledo"))}}},
		{"SELECT city, COUNT(*), AVG(price) FROM items GROUP BY city",
			QuerySpec{GroupBy: []string{"city"}, Aggs: []Agg{{Func: Count}, {Func: Avg, Col: "price"}}}},
		{"SELECT city, COUNT(*) FROM items WHERE cat < 40 GROUP BY city HAVING COUNT(*) > 60",
			QuerySpec{Preds: []Pred{Lt("cat", IntVal(40))}, GroupBy: []string{"city"}, Aggs: []Agg{{Func: Count}},
				Having: []Pred{Gt("count(*)", IntVal(60))}}},
		{"SELECT city, COUNT(*) FROM items GROUP BY city ORDER BY COUNT(*) DESC LIMIT 2",
			QuerySpec{GroupBy: []string{"city"}, Aggs: []Agg{{Func: Count}}, OrderBy: []Order{{Col: "count(*)", Desc: true}}, Limit: 2}},
		{"SELECT cat, price FROM items WHERE qty = 7 ORDER BY price DESC",
			QuerySpec{Cols: []string{"cat", "price"}, Preds: []Pred{Eq("qty", IntVal(7))}, OrderBy: []Order{{Col: "price", Desc: true}}}},
		{"SELECT cat, price FROM items WHERE qty = 7 ORDER BY price DESC LIMIT 3",
			QuerySpec{Cols: []string{"cat", "price"}, Preds: []Pred{Eq("qty", IntVal(7))}, OrderBy: []Order{{Col: "price", Desc: true}}, Limit: 3}},
		{"SELECT cat FROM items LIMIT 5", QuerySpec{Cols: []string{"cat"}, Limit: 5}},
	}
	for _, s := range selects {
		s.spec.Table = "items"
		fmt.Fprintf(&out, "== %s\n", s.sql)
		explained, analyzed := sqlPlans(t, db, s.sql, &out)
		specExplained, specAnalyzed := specPlans(t, db, s.spec)
		if specExplained != explained || specAnalyzed != analyzed {
			t.Errorf("%s: SQL and ExplainSpec plans differ:\nSQL\n%s%s\nGo\n%s%s", s.sql, explained, analyzed, specExplained, specAnalyzed)
		}
		out.WriteString(explained + analyzed)
	}
	// SQL's LIMIT 0 has no QuerySpec form: a QuerySpec Limit of 0 is
	// unlimited.
	for _, q := range []string{"SELECT cat FROM items LIMIT 0", "SELECT cat FROM items ORDER BY price LIMIT 0"} {
		fmt.Fprintf(&out, "== %s\n", q)
		explained, analyzed := sqlPlans(t, db, q, &out)
		out.WriteString(explained + analyzed)
	}

	// Writes: EXPLAIN UPDATE compiles only; EXPLAIN ANALYZE UPDATE and
	// the analyzed DELETE really write. DELETE has no SQL EXPLAIN form,
	// so its write tree goes through the facade's write prologue alone.
	const upd = "UPDATE items SET price = 1.5, city = 'x' WHERE qty = 7"
	ps, err := tbl.planSpec(QuerySpec{Table: "items", Preds: []Pred{Eq("qty", IntVal(7))}})
	if err != nil {
		t.Fatal(err)
	}
	sets, err := tbl.setClauses([]Set{{Col: "price", Val: FloatVal(1.5)}, {Col: "city", Val: StringVal("x")}})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "== %s\n", upd)
	explained := sqlPlan(t, db, "EXPLAIN "+upd, &out)
	_, info, err := tbl.writeStmt(context.Background(), false, ps, sets, explainOnly)
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpPlan(&info); got != explained {
		t.Errorf("EXPLAIN UPDATE: SQL plan\n%s\nGo plan\n%s", explained, got)
	}
	out.WriteString(explained)
	analyzed := sqlPlan(t, db, "EXPLAIN ANALYZE "+upd, &out)
	out.WriteString(analyzed + "-- Go (the same UPDATE again)\n" + writePlan(t, db, tbl, ps, sets, false))

	del, err := tbl.planSpec(QuerySpec{Table: "items", Preds: []Pred{Eq("qty", IntVal(8))}})
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString("== Go DELETE FROM items WHERE qty = 8\n")
	_, info, err = tbl.writeStmt(context.Background(), true, del, nil, explainOnly)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(dumpPlan(&info) + writePlan(t, db, tbl, del, nil, true))

	if *updateExplainGolden {
		if err := os.WriteFile(explainGoldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(explainGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("EXPLAIN output differs from %s (rerun with -update-explain-golden to see it):\n%s",
			explainGoldenPath, lineDiff(string(want), out.String()))
	}
}

// explainFixture is a 12,000-row table on 1 KiB pages clustered on cat
// in buckets of about ten pages: qty tracks cat 2:1 and has an index and
// an exact CM, wide tracks cat closely under a CM of four values a key,
// and price and city are payload. It is large enough that the cost
// model picks probes, unions and cm-agg over a table scan.
func explainFixture(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := Open(Config{Workers: 1, PageSize: 1024})
	tbl, err := db.CreateTable(TableSpec{
		Name: "items",
		Columns: []Column{
			{Name: "cat", Kind: Int},
			{Name: "qty", Kind: Int},
			{Name: "wide", Kind: Int},
			{Name: "price", Kind: Float},
			{Name: "city", Kind: String},
		},
		ClusteredBy: []string{"cat"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"boston", "cambridge", "springfield", "toledo", "jackson"}
	rows := make([]Row, 12000)
	for i := range rows {
		cat := int64(i / 8)
		rows[i] = Row{IntVal(cat), IntVal(cat/2 + int64(i%3)), IntVal(cat + int64(i%3)),
			FloatVal(float64(i%50) + 0.5), StringVal(cities[i%len(cities)])}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("ix_qty", "qty"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("cm_qty", CMColumn{Name: "qty"}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("cm_wide", CMColumn{Name: "wide", Level: 2}); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// specPlans explains spec and analyzes it from a cold cache through the
// Go API, returning both plans printed.
func specPlans(t *testing.T, db *DB, spec QuerySpec) (explained, analyzed string) {
	t.Helper()
	info, err := db.ExplainSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	an, err := db.ExplainAnalyzeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return dumpPlan(&info), dumpPlan(&an)
}

// sqlPlans runs EXPLAIN and EXPLAIN ANALYZE of q through SQL, printing
// both result tables into out, and returns the plans the results carry.
func sqlPlans(t *testing.T, db *DB, q string, out *strings.Builder) (explained, analyzed string) {
	t.Helper()
	return sqlPlan(t, db, "EXPLAIN "+q, out), sqlPlan(t, db, "EXPLAIN ANALYZE "+q, out)
}

// sqlPlan runs one EXPLAIN statement — an EXPLAIN ANALYZE from a cold
// cache — printing its result table into out, and returns the plan the
// result carries.
func sqlPlan(t *testing.T, db *DB, stmt string, out *strings.Builder) string {
	t.Helper()
	label := "EXPLAIN"
	if strings.HasPrefix(stmt, "EXPLAIN ANALYZE ") {
		label = "EXPLAIN ANALYZE"
		if err := db.ColdCache(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	fmt.Fprintf(out, "-- %s\n%s", label, dumpResult(res))
	return dumpPlan(res.Plan)
}

// writePlan runs a resolved UPDATE (sets) or DELETE (del) analyzed from
// a cold cache through the facade's write prologue and prints its plan.
func writePlan(t *testing.T, db *DB, tbl *Table, ps plan.Spec, sets []exec.SetClause, del bool) string {
	t.Helper()
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	n, info, err := tbl.writeStmt(context.Background(), del, ps, sets, runAnalyzed)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("  affected %d\n%s", n, dumpPlan(&info))
}

// analyzedIn matches the wall time in an EXPLAIN ANALYZE summary.
var analyzedIn = regexp.MustCompile(`rows in [^;]+;`)

// dumpResult prints an EXPLAIN result table and its message, wall
// times masked.
func dumpResult(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %s\n", strings.Join(res.Columns, " | "))
	timed := res.Columns[len(res.Columns)-1] == "actual_time"
	for _, r := range res.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		if timed {
			cells[len(cells)-1] = maskTime(cells[len(cells)-1] != "0s")
		}
		fmt.Fprintf(&sb, "  %s\n", strings.Join(cells, " | "))
	}
	if res.Message != "" {
		fmt.Fprintf(&sb, "  message: %s\n", analyzedIn.ReplaceAllString(res.Message, "rows in T;"))
	}
	if res.Affected != 0 {
		fmt.Fprintf(&sb, "  affected %d\n", res.Affected)
	}
	return sb.String()
}

// dumpPlan prints every field of a plan, wall times masked.
func dumpPlan(pi *PlanInfo) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  plan: method=%v uses=%q est=%v decoded=%d/%d\n",
		pi.Method, pi.Uses, pi.EstimatedCost, pi.DecodedCols, pi.TotalCols)
	for _, n := range pi.Nodes {
		fmt.Fprintf(&sb, "    %s %q est=%v", n.Kind, n.Detail, n.EstCost)
		if a := n.Actual; a != nil {
			fmt.Fprintf(&sb, " | rows=%d in=%d heap=%d reads=%d hits=%d fp=%d chunks=%d time=%s",
				a.Rows, a.TuplesIn, a.HeapPages, a.DiskReads, a.BufferHits, a.FalsePositivePages, a.Chunks, maskTime(a.Elapsed > 0))
		}
		sb.WriteString("\n")
	}
	if a := pi.Analyzed; a != nil {
		fmt.Fprintf(&sb, "    run: rows=%d tuples=%d heap=%d reads=%d hits=%d misses=%d time=%s\n",
			a.Rows, a.TuplesExamined, a.HeapPages, a.DiskReads, a.BufferHits, a.BufferMisses, maskTime(a.Elapsed > 0))
	}
	return sb.String()
}

// maskTime prints a measured wall time as T, and a zero one as 0: which
// nodes report a phase time is part of the plan, how long it took is not.
func maskTime(measured bool) string {
	if measured {
		return "T"
	}
	return "0"
}

// lineDiff lists the lines where got departs from want.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&sb, "line %d:\n- %s\n+ %s\n", i+1, wl, gl)
		}
	}
	return sb.String()
}
