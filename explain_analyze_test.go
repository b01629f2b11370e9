package repro

import (
	"context"
	"strings"
	"testing"
	"time"
)

// analyzeGround runs spec through ExplainAnalyzeSpec from a cold cache
// with the disk read counter captured independently around the run,
// returning the analyzed plan and the ground-truth page-read delta the
// actuals must reconcile against.
func analyzeGround(t *testing.T, db *DB, spec QuerySpec) (PlanInfo, uint64) {
	t.Helper()
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Reads
	info, err := db.ExplainAnalyzeSpec(spec)
	if err != nil {
		t.Fatalf("ExplainAnalyzeSpec: %v", err)
	}
	return info, db.Stats().Reads - before
}

// checkAnalyzedPlan asserts the invariants every analyzed plan must
// hold: an Analyzed summary whose cardinality and disk reads match the
// independently measured truth, and actuals present on every node with
// the access node carrying the run's I/O.
func checkAnalyzedPlan(t *testing.T, name string, info PlanInfo, wantRows int, wantReads uint64) {
	t.Helper()
	a := info.Analyzed
	if a == nil {
		t.Fatalf("%s: Analyzed is nil", name)
	}
	if a.Rows != int64(wantRows) {
		t.Errorf("%s: analyzed %d rows, ground truth %d", name, a.Rows, wantRows)
	}
	if a.DiskReads != wantReads {
		t.Errorf("%s: analyzed %d disk reads, sim.Disk counted %d", name, a.DiskReads, wantReads)
	}
	if len(info.Nodes) == 0 {
		t.Fatalf("%s: no plan nodes", name)
	}
	for i, n := range info.Nodes {
		if n.Actual == nil {
			t.Fatalf("%s: node %d (%s) has no actuals", name, i, n.Kind)
		}
	}
	access := info.Nodes[0]
	if access.Actual.DiskReads != wantReads {
		t.Errorf("%s: access node reports %d disk reads, sim.Disk counted %d",
			name, access.Actual.DiskReads, wantReads)
	}
	if access.Actual.HeapPages != a.HeapPages {
		t.Errorf("%s: access node heap pages %d, summary %d",
			name, access.Actual.HeapPages, a.HeapPages)
	}
}

// TestExplainAnalyzeAccessMethods reconciles the analyzed actuals
// against ground truth across all five access paths and the OR union:
// result cardinality against a plain run of the same spec, and the
// access node's page actuals against the sim.Disk read counter captured
// around the run.
func TestExplainAnalyzeAccessMethods(t *testing.T) {
	db, _ := planFixture(t)
	cases := []struct {
		name string
		spec QuerySpec
	}{
		{"cm", QuerySpec{Table: "plans", Via: CMScan, Preds: []Pred{Eq("u", IntVal(25))}}},
		{"sorted", QuerySpec{Table: "plans", Via: SortedIndexScan, Preds: []Pred{Eq("s", IntVal(100))}}},
		{"pipelined", QuerySpec{Table: "plans", Via: PipelinedIndexScan, Preds: []Pred{Eq("r", IntVal(77))}}},
		{"clustered", QuerySpec{Table: "plans", Via: ClusteredIndexScan, Preds: []Pred{Between("c", IntVal(50), IntVal(80))}}},
		{"scan", QuerySpec{Table: "plans", Via: TableScan, Preds: []Pred{Ne("u", IntVal(3))}}},
		{"auto", QuerySpec{Table: "plans", Preds: []Pred{Eq("u", IntVal(25))}}},
		{"auto clustered", QuerySpec{Table: "plans", Preds: []Pred{In("c", IntVal(7), IntVal(300))}}},
		{"union", QuerySpec{Table: "plans", AnyOf: [][]Pred{
			{Eq("u", IntVal(25))}, {Eq("s", IntVal(100))},
		}}},
		{"union clustered", QuerySpec{Table: "plans", AnyOf: [][]Pred{
			{Eq("u", IntVal(25))}, {Eq("c", IntVal(700))},
		}}},
	}
	for _, c := range cases {
		rows, err := selectRows(db, c.spec)
		if err != nil {
			t.Fatalf("%s: truth run: %v", c.name, err)
		}
		truth := len(rows)
		if truth == 0 {
			t.Fatalf("%s: fixture matches no rows", c.name)
		}

		info, reads := analyzeGround(t, db, c.spec)
		checkAnalyzedPlan(t, c.name, info, truth, reads)
		if reads == 0 {
			t.Errorf("%s: cold-cache run read 0 pages — ground truth not engaged", c.name)
		}
		access := info.Nodes[0]
		if strings.HasPrefix(c.name, "union") && access.Kind != "union" {
			t.Errorf("%s: access node kind %q", c.name, access.Kind)
		}
		if strings.HasSuffix(c.name, "clustered") && !strings.Contains(access.Detail, "clustered-index-scan(plans.clustered)") {
			t.Errorf("%s: access node %q does not read the clustered index", c.name, access.Detail)
		}
		if access.Actual.Rows != int64(truth) {
			t.Errorf("%s: access node emitted %d rows, truth %d", c.name, access.Actual.Rows, truth)
		}
		if access.Actual.TuplesIn < int64(truth) {
			t.Errorf("%s: tuples examined %d < rows %d", c.name, access.Actual.TuplesIn, truth)
		}
		if info.Analyzed.HeapPages <= 0 {
			t.Errorf("%s: heap-visiting plan reports %d heap pages", c.name, info.Analyzed.HeapPages)
		}
		if info.Analyzed.Elapsed <= 0 || access.Actual.Elapsed <= 0 {
			t.Errorf("%s: zero elapsed time (run %v, access %v)",
				c.name, info.Analyzed.Elapsed, access.Actual.Elapsed)
		}
	}
}

// TestExplainAnalyzeOperatorChain forces the heap aggregation chain
// (scan -> agg -> having -> sort -> limit) and reconciles each
// operator's actual cardinalities against a plain run of the same and
// of relaxed specs.
func TestExplainAnalyzeOperatorChain(t *testing.T) {
	db, _ := planFixture(t)
	spec := QuerySpec{
		Table:   "plans",
		Via:     TableScan,
		Preds:   []Pred{Between("u", IntVal(20), IntVal(40))},
		Aggs:    []Agg{{Func: Count}, {Func: Avg, Col: "s"}},
		GroupBy: []string{"u"},
		Having:  []Pred{Gt("count(*)", IntVal(0))},
		OrderBy: []Order{{Col: "count(*)", Desc: true}},
		Limit:   5,
	}
	truth := len(mustSelect(t, db, spec))
	noLimit := spec
	noLimit.Limit = 0
	groups := len(mustSelect(t, db, noLimit))
	if truth != 5 || groups <= truth {
		t.Fatalf("fixture: limit run %d rows, unlimited %d groups — want truncation", truth, groups)
	}
	matched := len(mustSelect(t, db, QuerySpec{Table: "plans", Via: TableScan, Preds: spec.Preds}))

	info, reads := analyzeGround(t, db, spec)
	checkAnalyzedPlan(t, "chain", info, truth, reads)

	byKind := map[string]*NodeActuals{}
	for _, n := range info.Nodes {
		byKind[n.Kind] = n.Actual
	}
	for _, kind := range []string{"scan", "agg", "having", "sort", "limit"} {
		if byKind[kind] == nil {
			t.Fatalf("plan has no %s node: %+v", kind, info.Nodes)
		}
	}
	if got := byKind["scan"].Rows; got != int64(matched) {
		t.Errorf("scan node emitted %d rows, predicate matches %d", got, matched)
	}
	if in, out := byKind["agg"].TuplesIn, byKind["agg"].Rows; in != int64(matched) || out != int64(groups) {
		t.Errorf("agg node %d in / %d out, want %d / %d", in, out, matched, groups)
	}
	if in, out := byKind["having"].TuplesIn, byKind["having"].Rows; in != int64(groups) || out != int64(groups) {
		t.Errorf("having node %d in / %d out, want %d / %d", in, out, groups, groups)
	}
	// The limit stops consuming after 5 rows, so the sort node sorts
	// every group but emits only the survivors.
	if in, out := byKind["sort"].TuplesIn, byKind["sort"].Rows; in != int64(groups) || out != int64(truth) {
		t.Errorf("sort node %d in / %d out, want %d / %d", in, out, groups, truth)
	}
	if got := byKind["limit"].Rows; got != int64(truth) {
		t.Errorf("limit node emitted %d rows, want %d", got, truth)
	}
}

// TestExplainAnalyzeCMAggIndexOnly pins the zero-heap-read path: an
// index-only cm-agg answer must analyze with zero disk reads and zero
// heap page visits, from a cold cache.
func TestExplainAnalyzeCMAggIndexOnly(t *testing.T) {
	db, _ := cmaggFixture(t, 1, 600)
	spec := QuerySpec{
		Table: "items",
		Preds: []Pred{Eq("qty", IntVal(7))},
		Aggs:  []Agg{{Func: Count}, {Func: Avg, Col: "qty"}},
	}
	// First planning after a load lazily computes table statistics with
	// a few page reads; warm that cache so the measured run isolates the
	// plan's own I/O (the repo's index-only acceptance test does the
	// same).
	if _, err := db.ExplainSpec(spec); err != nil {
		t.Fatal(err)
	}
	info, reads := analyzeGround(t, db, spec)
	if len(info.Nodes) == 0 || info.Nodes[0].Kind != "cm-agg" {
		t.Fatalf("plan nodes = %+v, want cm-agg access node", info.Nodes)
	}
	if !strings.Contains(info.Nodes[0].Detail, "index-only") {
		t.Fatalf("cm-agg detail = %q, want index-only", info.Nodes[0].Detail)
	}
	checkAnalyzedPlan(t, "cm-agg", info, 1, reads)
	if reads != 0 {
		t.Errorf("index-only cm-agg read %d pages from cold cache, want 0", reads)
	}
	a := info.Nodes[0].Actual
	if a.HeapPages != 0 || a.TuplesIn != 0 {
		t.Errorf("index-only cm-agg touched the heap: %d pages, %d tuples", a.HeapPages, a.TuplesIn)
	}
	if a.Rows != 1 {
		t.Errorf("cm-agg node emitted %d rows, want 1", a.Rows)
	}
}

// TestExplainAnalyzeSQL drives the SQL surface end to end: EXPLAIN
// ANALYZE SELECT renders the actuals table with the analyzed summary,
// EXPLAIN ANALYZE UPDATE really writes (PostgreSQL semantics), and
// plain EXPLAIN keeps its legacy shape.
func TestExplainAnalyzeSQL(t *testing.T) {
	db := Open(Config{})
	script := `
CREATE TABLE kv (k INT, v INT) CLUSTERED BY (k);
LOAD INTO kv VALUES (1, 10), (2, 20), (3, 30), (4, 40);
`
	if _, err := db.ExecScriptCtx(context.Background(), script); err != nil {
		t.Fatal(err)
	}

	res, err := db.Exec("EXPLAIN ANALYZE SELECT * FROM kv WHERE k >= 2")
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"node", "detail", "est_cost", "actual_rows", "actual_pages", "actual_time"}
	if strings.Join(res.Columns, ",") != strings.Join(wantCols, ",") {
		t.Fatalf("EXPLAIN ANALYZE columns = %v, want %v", res.Columns, wantCols)
	}
	if len(res.Rows) == 0 || res.Rows[0][0].Str() != "scan" {
		t.Fatalf("EXPLAIN ANALYZE rows = %+v, want scan access node first", res.Rows)
	}
	if got := res.Rows[0][3].Int(); got != 3 {
		t.Errorf("actual_rows = %d, want 3", got)
	}
	if !strings.HasPrefix(res.Message, "analyzed: 3 rows in ") {
		t.Errorf("summary message = %q", res.Message)
	}
	if res.Plan == nil || res.Plan.Analyzed == nil || res.Plan.Analyzed.Rows != 3 {
		t.Errorf("Plan.Analyzed = %+v, want 3 rows", res.Plan)
	}

	// EXPLAIN ANALYZE UPDATE executes the update for real.
	res, err = db.Exec("EXPLAIN ANALYZE UPDATE kv SET v = 99 WHERE k >= 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Errorf("EXPLAIN ANALYZE UPDATE affected %d rows, want 2", res.Affected)
	}
	var updateRows int64 = -1
	for _, r := range res.Rows {
		if r[0].Str() == "update" {
			updateRows = r[3].Int()
		}
	}
	if updateRows != 2 {
		t.Errorf("update node actual_rows = %d, want 2", updateRows)
	}
	check, err := db.Exec("SELECT v FROM kv WHERE k = 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(check.Rows) != 1 || check.Rows[0][0].Int() != 99 {
		t.Errorf("after EXPLAIN ANALYZE UPDATE, v = %+v, want 99", check.Rows)
	}

	// An UPDATE whose WHERE names absent keys beside a present one probes
	// the secondary index for all of them and writes only the present row.
	bdb, _ := planFixtureOn(t, Config{PageSize: 1024})
	res, err = bdb.Exec("EXPLAIN ANALYZE UPDATE plans SET s = 1 WHERE r IN (5, 40000, 40001)")
	if err != nil {
		t.Fatal(err)
	}
	if access := res.Plan.Nodes[0]; access.Detail != "sorted-index-scan(ix_r)" && access.Detail != "pipelined-index-scan(ix_r)" {
		t.Fatalf("UPDATE read side = %q, want a probe of ix_r", access.Detail)
	}
	if res.Affected != 1 {
		t.Errorf("EXPLAIN ANALYZE UPDATE affected %d rows, want 1", res.Affected)
	}

	// Plain EXPLAIN keeps the legacy four-column shape.
	res, err = db.Exec("EXPLAIN SELECT * FROM kv WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Columns, ",") != "method,uses,est_cost,decoded_cols" {
		t.Errorf("EXPLAIN columns = %v", res.Columns)
	}
	if res.Plan.Analyzed != nil {
		t.Error("plain EXPLAIN carries an Analyzed summary")
	}
}

// TestShowMetricsSQL exercises SHOW METRICS and its LIKE filter, and
// pins the enablement contract: storage counters always advance, while
// the query-layer metrics freeze when metrics are disabled.
func TestShowMetricsSQL(t *testing.T) {
	db, _ := planFixture(t)
	defer db.SetMetricsEnabled(true)

	readMetric := func(name string) int64 {
		t.Helper()
		res, err := db.Exec("SHOW METRICS LIKE '" + name + "'")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != name {
			t.Fatalf("SHOW METRICS LIKE %q = %+v", name, res.Rows)
		}
		return res.Rows[0][1].Int()
	}
	runSelect := func() {
		t.Helper()
		if _, err := db.Exec("SELECT * FROM plans WHERE u = 25"); err != nil {
			t.Fatal(err)
		}
	}

	// The server.* counters belong to internal/server, which registers
	// them through MetricCounter when a server is built over the DB; do
	// as it does. Registering a name again hands back the same counter —
	// two servers over one DB add into one.
	serverNames := []string{"server.stream_chunks", "server.backpressure_waits_ns",
		"server.coalesced_batches", "server.coalesced_stmts", "server.auth_failures"}
	for _, name := range serverNames {
		db.MetricCounter(name).Inc()
		db.MetricCounter(name).Inc()
		if v := readMetric(name); v != 2 {
			t.Errorf("%s = %d after two registrants bumped it once each, want 2", name, v)
		}
	}

	res, err := db.Exec("SHOW METRICS")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Columns, ",") != "metric,value" {
		t.Fatalf("SHOW METRICS columns = %v", res.Columns)
	}
	names := map[string]bool{}
	for _, r := range res.Rows {
		names[r[0].Str()] = true
	}
	for _, want := range append([]string{"disk.reads", "pool.hits", "wal.appends",
		"table.rows_written", "query.latency_ns.count", "query.rows_scanned"}, serverNames...) {
		if !names[want] {
			t.Errorf("SHOW METRICS lacks %s", want)
		}
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	runSelect()
	if v := readMetric("disk.reads"); v <= 0 {
		t.Errorf("disk.reads = %d after a cold-cache select", v)
	}
	if v := readMetric("table.rows_written"); v != 30000 {
		t.Errorf("table.rows_written = %d, want 30000", v)
	}

	// LIKE filters by SQL pattern.
	res, err = db.Exec("SHOW METRICS LIKE 'pool.shard%'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no per-shard pool metrics")
	}
	for _, r := range res.Rows {
		if !strings.HasPrefix(r[0].Str(), "pool.shard") {
			t.Errorf("LIKE 'pool.shard%%' returned %q", r[0].Str())
		}
	}

	// Enabled: query-layer counters advance with each statement.
	runSelect()
	q0, l0 := readMetric("query.rows_scanned"), readMetric("query.latency_ns.count")
	runSelect()
	if q1 := readMetric("query.rows_scanned"); q1 <= q0 {
		t.Errorf("query.rows_scanned flat at %d with metrics on", q1)
	}
	if l1 := readMetric("query.latency_ns.count"); l1 <= l0 {
		t.Errorf("query.latency_ns.count flat at %d with metrics on", l1)
	}

	// Write statements are statements too: an UPDATE, a DELETE and a
	// 40-row INSERT each add exactly one observation to the latency
	// histogram (and so reach the slow-query log).
	insert := "INSERT INTO plans VALUES " + strings.TrimSuffix(strings.Repeat("(6, 3, 3, 1), ", 40), ", ")
	for _, stmt := range []string{"UPDATE plans SET r = 1 WHERE c = 5", "DELETE FROM plans WHERE c = 6", insert} {
		l0 := readMetric("query.latency_ns.count")
		if res, err := db.Exec(stmt); err != nil || res.Affected != 40 {
			t.Fatalf("%s: affected %v, err %v", stmt, res, err)
		}
		if l1 := readMetric("query.latency_ns.count"); l1 != l0+1 {
			t.Errorf("%s: query.latency_ns.count %d -> %d, want one observation", stmt, l0, l1)
		}
	}

	// Disabled: query-layer counters freeze; storage counters keep
	// counting (they are always-on).
	db.SetMetricsEnabled(false)
	q0, l0 = readMetric("query.rows_scanned"), readMetric("query.latency_ns.count")
	h0 := readMetric("pool.hits")
	runSelect()
	if q1 := readMetric("query.rows_scanned"); q1 != q0 {
		t.Errorf("query.rows_scanned moved %d -> %d with metrics off", q0, q1)
	}
	if l1 := readMetric("query.latency_ns.count"); l1 != l0 {
		t.Errorf("query.latency_ns.count moved %d -> %d with metrics off", l0, l1)
	}
	if h1 := readMetric("pool.hits"); h1 <= h0 {
		t.Errorf("pool.hits flat at %d — storage counters must stay on", h1)
	}
}

// TestScriptResultMeasurements pins the per-statement measurements
// ExecScriptCtx reports (the wire protocol and the slow-query log read
// them): statement text, elapsed wall time, result rows and the disk
// page-read delta — each statement's own, never a group's.
func TestScriptResultMeasurements(t *testing.T) {
	db, _ := planFixture(t)
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	results, err := db.ExecScriptCtx(context.Background(), "SELECT * FROM plans WHERE u = 25; SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	sel := results[0]
	if sel.Err != nil {
		t.Fatal(sel.Err)
	}
	if sel.SQL != "SELECT * FROM plans WHERE u = 25" {
		t.Errorf("statement text = %q", sel.SQL)
	}
	if sel.Rows != len(sel.Res.Rows) || sel.Rows == 0 {
		t.Errorf("Rows = %d, result has %d", sel.Rows, len(sel.Res.Rows))
	}
	if sel.Elapsed <= 0 {
		t.Errorf("Elapsed = %v", sel.Elapsed)
	}
	if sel.PagesRead == 0 {
		t.Error("cold-cache SELECT reports 0 pages read")
	}
	if results[1].SQL != "SHOW TABLES" {
		t.Errorf("second statement text = %q", results[1].SQL)
	}

	// Two identical probes from a cold cache: the first reads the pages,
	// the second finds them pooled, and their wall times are disjoint
	// slices of the script's. At the parent commit the two ran as one
	// SELECT batch and both reported the batch's 10 pages and wall time.
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	twice, err := db.ExecScriptCtx(context.Background(), "SELECT * FROM plans WHERE u = 25; SELECT * FROM plans WHERE u = 25")
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range twice {
		if r.Err != nil || r.Rows != sel.Rows || r.Elapsed <= 0 {
			t.Fatalf("probe %d: err %v, %d rows (want %d), elapsed %v", i+1, r.Err, r.Rows, sel.Rows, r.Elapsed)
		}
	}
	if twice[0].PagesRead == 0 || twice[1].PagesRead != 0 {
		t.Errorf("pages read = %d then %d, want >0 from the cold cache then 0 from the pool",
			twice[0].PagesRead, twice[1].PagesRead)
	}
	if sum := twice[0].Elapsed + twice[1].Elapsed; sum > wall {
		t.Errorf("elapsed %v + %v = %v exceeds the script's %v wall time: not each statement's own",
			twice[0].Elapsed, twice[1].Elapsed, sum, wall)
	}
}
