package plan

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
)

// Rows is Run with the result buffered; rows are cloned out of the
// executor's scratch space.
func (tr *Tree) Rows(workers int) ([]value.Row, error) {
	var out []value.Row
	err := tr.Run(workers, Sink{Row: func(r value.Row) bool {
		out = append(out, r.Clone())
		return true
	}})
	return out, err
}

// fixture builds a small correlated table with an identity CM on col 1
// (u) and no secondary index, directly on the internal layers.
func fixture(t *testing.T) *table.Table { return fixtureOf(t, 400) }

// fixtureOf is fixture at n rows (c = i/4, u = c/2).
func fixtureOf(t *testing.T, n int) *table.Table {
	t.Helper()
	disk := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(disk, 1024)
	sch := table.NewSchema(
		table.Column{Name: "c", Kind: value.Int},
		table.Column{Name: "u", Kind: value.Int},
		table.Column{Name: "v", Kind: value.Int},
	)
	tbl, err := table.New(pool, nil, table.Config{Name: "t", Schema: sch, ClusteredCols: []int{0}, BucketTuples: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, n)
	for i := range rows {
		c := int64(i / 4)
		rows[i] = value.Row{value.NewInt(c), value.NewInt(c / 2), value.NewInt(int64(i % 7))}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateCM(core.Spec{Name: "cm_u", UCols: []int{1}}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// kinds flattens a compiled tree's node kinds bottom-up.
func kinds(tr *Tree) []string {
	info := tr.Explain()
	out := make([]string, len(info.Nodes))
	for i, n := range info.Nodes {
		out[i] = n.Kind
	}
	return out
}

// TestBuildOptimizeShapes pins the operator chains the pipeline builds
// for representative specs.
func TestBuildOptimizeShapes(t *testing.T) {
	tbl := fixture(t)
	sp := exec.NewExactStats()
	eqU := exec.NewQuery(exec.Eq(1, value.NewInt(10)))

	cases := []struct {
		name string
		spec Spec
		want []string
	}{
		{"bare scan", Spec{}, []string{"scan"}},
		{"filtered", Spec{Disjuncts: []exec.Query{eqU}}, []string{"scan", "filter"}},
		{"projected", Spec{Disjuncts: []exec.Query{eqU}, Proj: []int{2}},
			[]string{"scan", "filter", "project"}},
		{"sorted limited", Spec{Disjuncts: []exec.Query{eqU}, Proj: []int{2},
			OrderBy: []Order{{Col: 2}}, Limit: 3},
			[]string{"scan", "filter", "project", "sort", "limit"}},
		// At this scale summed probe costs exceed the (tiny) scan cost,
		// so the OR plans as the filtered-scan fallback; the union shape
		// is pinned at the facade level (TestExplainOrUnionNodes).
		{"or fallback", Spec{Disjuncts: []exec.Query{eqU, exec.NewQuery(exec.Eq(1, value.NewInt(20)))}},
			[]string{"scan", "filter"}},
		{"heap agg", Spec{Disjuncts: []exec.Query{eqU},
			Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 2}}, GroupBy: []int{2}},
			[]string{"scan", "filter", "agg"}},
		{"cm agg", Spec{Disjuncts: []exec.Query{eqU},
			Aggs: []exec.AggSpec{{Kind: exec.AggCount, Col: -1}, {Kind: exec.AggAvg, Col: 1}}},
			[]string{"cm-agg"}},
		{"cm agg having sort", Spec{
			Aggs: []exec.AggSpec{{Kind: exec.AggCount, Col: -1}}, GroupBy: []int{1},
			Having:  []exec.Pred{exec.Gt(1, value.NewInt(2))},
			OrderBy: []Order{{Col: 1, Desc: true}}},
			[]string{"cm-agg", "having", "sort"}},
	}
	for _, c := range cases {
		tr, err := Compile(tbl, c.spec, sp)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := kinds(tr)
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("%s: kinds = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPipelineContract pins the Build → Optimize → Run discipline and
// the error surface: running before optimizing fails, forced methods
// without structures fail, OR with a forced method fails at Build.
func TestPipelineContract(t *testing.T) {
	tbl := fixture(t)
	sp := exec.NewExactStats()
	eqU := exec.NewQuery(exec.Eq(1, value.NewInt(10)))

	tr, err := Build(tbl, Spec{Disjuncts: []exec.Query{eqU}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(1, Sink{Row: func(value.Row) bool { return true }}); err == nil {
		t.Error("Run before Optimize succeeded")
	}
	if err := tr.Optimize(sp); err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // u = 10 covers c in {20, 21}, 4 tuples each
		t.Errorf("Rows = %d, want 8", len(rows))
	}

	if _, err := Build(tbl, Spec{Method: exec.MethodCM,
		Disjuncts: []exec.Query{eqU, eqU}}); err == nil {
		t.Error("OR with forced method accepted")
	}
	if _, err := Compile(tbl, Spec{Method: exec.MethodSorted, Disjuncts: []exec.Query{eqU}}, sp); err == nil {
		t.Error("forced index scan without an index accepted")
	}
	if _, err := Build(tbl, Spec{Disjuncts: []exec.Query{eqU},
		Having: []exec.Pred{exec.Gt(0, value.NewInt(1))}}); err == nil {
		t.Error("HAVING on a plain select accepted")
	}
}

// TestCMAggMatchesHeap cross-checks the two aggregate executors inside
// the plan layer: the cm-agg tree and a forced table-scan tree must
// produce identical rows, and the cm-agg tree must report index-only
// decode (0 columns).
func TestCMAggMatchesHeap(t *testing.T) {
	tbl := fixture(t)
	sp := exec.NewExactStats()
	spec := Spec{
		Disjuncts: []exec.Query{exec.NewQuery(exec.Between(1, value.NewInt(5), value.NewInt(20)))},
		Aggs: []exec.AggSpec{{Kind: exec.AggCount, Col: -1}, {Kind: exec.AggSum, Col: 2},
			{Kind: exec.AggMin, Col: 2}, {Kind: exec.AggMax, Col: 2}},
		GroupBy: []int{1},
	}
	cmTree, err := Compile(tbl, spec, sp)
	if err != nil {
		t.Fatal(err)
	}
	if kinds(cmTree)[0] != "cm-agg" {
		t.Fatalf("expected cm-agg, got %v", kinds(cmTree))
	}
	if cmTree.Explain().DecodedCols != 0 {
		t.Errorf("cm-agg decoded cols = %d, want 0", cmTree.Explain().DecodedCols)
	}
	forced := spec
	forced.Method = exec.MethodTableScan
	heapTree, err := Compile(tbl, forced, sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cmTree.Rows(4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := heapTree.Rows(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cm-agg %d rows, heap %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j].String() != want[i][j].String() {
				t.Errorf("row %d col %d: %v vs %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestWriteTreeShapes pins the one write tree behind UPDATE and DELETE:
// the write node sits on the compiled read chain, a DELETE's read side
// materializes only the predicated columns (and shows no project node
// for it), both statements refuse read-side shapes a write cannot
// have, and they really write.
func TestWriteTreeShapes(t *testing.T) {
	tbl := fixture(t)
	sp := exec.NewExactStats()
	where := Spec{Disjuncts: []exec.Query{exec.NewQuery(exec.Between(0, value.NewInt(10), value.NewInt(19)))}}
	nodeKinds := func(info PlanInfo) string {
		out := make([]string, len(info.Nodes))
		for i, n := range info.Nodes {
			out[i] = n.Kind
		}
		return strings.Join(out, ",")
	}

	upd, err := CompileUpdate(tbl, where, []exec.SetClause{{Col: 2, Val: value.NewInt(9)}}, sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := nodeKinds(upd.Explain()); got != "scan,filter,update" {
		t.Errorf("UPDATE chain = %s", got)
	}
	if got := upd.Explain().DecodedCols; got != 3 {
		t.Errorf("UPDATE decodes %d columns, want the whole row", got)
	}
	del, err := CompileDelete(tbl, where, sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := nodeKinds(del.Explain()); got != "scan,filter,delete" {
		t.Errorf("DELETE chain = %s", got)
	}
	if got := del.Explain().DecodedCols; got != 1 {
		t.Errorf("DELETE decodes %d columns, want only the predicated one", got)
	}

	for name, bad := range map[string]Spec{
		"aggregate":  {Aggs: []exec.AggSpec{{Kind: exec.AggCount, Col: -1}}},
		"order by":   {OrderBy: []Order{{Col: 0}}},
		"limit":      {Limit: 1},
		"projection": {Proj: []int{0}},
	} {
		if _, err := CompileDelete(tbl, bad, sp); err == nil || !strings.Contains(err.Error(), "DELETE") {
			t.Errorf("DELETE with %s: err = %v", name, err)
		}
		if _, err := CompileUpdate(tbl, bad, []exec.SetClause{{Col: 2, Val: value.NewInt(9)}}, sp); err == nil || !strings.Contains(err.Error(), "UPDATE") {
			t.Errorf("UPDATE with %s: err = %v", name, err)
		}
	}

	if n, err := upd.Run(2); err != nil || n != 40 {
		t.Fatalf("UPDATE wrote %d rows, err %v; want 40", n, err)
	}
	if n, err := del.Run(2); err != nil || n != 40 {
		t.Fatalf("DELETE removed %d rows, err %v; want 40", n, err)
	}
	left, err := Compile(tbl, Spec{}, sp)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := left.Rows(1)
	if err != nil || len(rows) != 360 {
		t.Fatalf("%d rows left, err %v; want 360", len(rows), err)
	}
}

// TestForcedClusteredNeedsTheClusteringColumn pins the forced method's
// contract: it resolves to the clustered index when the leading
// clustering column carries an indexable predicate and errors otherwise.
func TestForcedClusteredNeedsTheClusteringColumn(t *testing.T) {
	tbl := fixture(t)
	sp := exec.NewExactStats()
	tr, err := Compile(tbl, Spec{Method: exec.MethodClustered,
		Disjuncts: []exec.Query{exec.NewQuery(exec.In(0, value.NewInt(3), value.NewInt(70)))}}, sp)
	if err != nil {
		t.Fatal(err)
	}
	if info := tr.Explain(); info.Method != exec.MethodClustered || info.Uses != "t.clustered" {
		t.Errorf("forced clustered plan = %v/%q", info.Method, info.Uses)
	}
	rows, err := tr.Rows(4)
	if err != nil || len(rows) != 8 {
		t.Errorf("forced clustered scan returned %d rows, err %v; want 8", len(rows), err)
	}
	for _, q := range []exec.Query{
		exec.NewQuery(exec.Eq(1, value.NewInt(10))),
		exec.NewQuery(exec.Ne(0, value.NewInt(10))),
	} {
		if _, err := Compile(tbl, Spec{Method: exec.MethodClustered, Disjuncts: []exec.Query{q}}, sp); err == nil {
			t.Errorf("forced clustered scan accepted %s", q.String())
		}
	}
}

// TestSelectProbesItsCMOnce pins the SELECT half of "one probe": a
// compiled SELECT tree sweeps the heap pages its planner resolved, so
// emptying the CM between Compile and Run — what a second probe would
// then find is nothing — loses no row, for a plain cm-scan, a fold over
// one and an OR union of two CM legs; a tree compiled after the Reset
// finds nothing.
func TestSelectProbesItsCMOnce(t *testing.T) {
	sp := exec.NewExactStats()
	eq := func(u int64) exec.Query { return exec.NewQuery(exec.Eq(1, value.NewInt(u))) }
	count := []exec.AggSpec{{Kind: exec.AggCount, Col: -1}}
	for _, c := range []struct {
		name string
		spec Spec
		want string // node kind of the access path
		rows int
	}{
		{"cm-scan", Spec{Disjuncts: []exec.Query{eq(10)}, Method: exec.MethodCM}, "scan", 8},
		{"fold over a cm-scan", Spec{Disjuncts: []exec.Query{eq(10)}, Method: exec.MethodCM, Aggs: count, GroupBy: []int{2}}, "scan", 7},
		{"union of cm-scans", Spec{Disjuncts: []exec.Query{eq(10), eq(700)}}, "union", 16},
	} {
		tbl := fixtureOf(t, 60000)
		tr, err := Compile(tbl, c.spec, sp)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := kinds(tr)[0]; got != c.want {
			t.Fatalf("%s: access node %q, want %q", c.name, got, c.want)
		}
		tbl.CMs()[0].Reset()
		rows, err := tr.Rows(2)
		if err != nil || len(rows) != c.rows {
			t.Errorf("%s: %d rows after the CM was emptied, err %v; want %d — the run probed again", c.name, len(rows), err, c.rows)
		}
		if c.spec.IsAggregate() {
			continue // an empty fold still yields its groups' zero rows
		}
		again, err := Compile(tbl, c.spec, sp)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rows, err := again.Rows(2); err != nil || len(rows) != 0 {
			t.Errorf("%s: a tree compiled over the emptied CM returned %d rows, err %v", c.name, len(rows), err)
		}
	}
}

// TestWriteTreeProbesAgainAtRun pins the other half: a WriteTree runs
// after its compile latch is released, so a matching row another writer
// published in between — in a clustered bucket, on a heap page, the
// compiled probe never resolved — is still written.
func TestWriteTreeProbesAgainAtRun(t *testing.T) {
	tbl := fixtureOf(t, 20000)
	sp := exec.NewExactStats()
	where := Spec{Disjuncts: []exec.Query{exec.NewQuery(exec.Eq(1, value.NewInt(10)))}, Method: exec.MethodCM}
	upd, err := CompileUpdate(tbl, where, []exec.SetClause{{Col: 2, Val: value.NewInt(9)}}, sp)
	if err != nil {
		t.Fatal(err)
	}
	del, err := CompileDelete(tbl, where, sp)
	if err != nil {
		t.Fatal(err)
	}
	tx := tbl.BeginWrite()
	if err := tx.InsertBatch([]value.Row{{value.NewInt(4000), value.NewInt(10), value.NewInt(0)}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	if n, err := upd.Run(2); err != nil || n != 9 {
		t.Errorf("UPDATE wrote %d rows, err %v; want 9: the 8 loaded and the one published after Compile", n, err)
	}
	if n, err := del.Run(2); err != nil || n != 9 {
		t.Errorf("DELETE removed %d rows, err %v; want 9", n, err)
	}
}

// TestTableScanLegRejected: a hand-built access path holding a leg that
// resolves to no page list must fail, not quietly drop the disjunct's
// rows (chooseAccess never builds one: a disjunct that can only scan
// sends the whole statement to the whole-heap sweep).
func TestTableScanLegRejected(t *testing.T) {
	tbl := fixture(t)
	eqU := exec.NewQuery(exec.Eq(1, value.NewInt(10)))
	for name, spec := range map[string]Spec{
		"select":    {Disjuncts: []exec.Query{eqU}},
		"aggregate": {Disjuncts: []exec.Query{eqU}, Method: exec.MethodTableScan, Aggs: []exec.AggSpec{{Kind: exec.AggCount, Col: -1}}},
	} {
		tr, err := Compile(tbl, spec, exec.NewExactStats())
		if err != nil {
			t.Fatal(err)
		}
		tr.legs = []leg{{method: exec.MethodTableScan}}
		if rows, err := tr.Rows(1); err == nil {
			t.Errorf("%s over a table-scan leg returned %v; it under-reports", name, rows)
		}
	}
}

// TestLimitPricesThePagesItReads: a plain unsorted select with a LIMIT
// is priced by the pages its sweep reads before it has the rows. With
// no predicate every tuple matches, so the scan reads a run of
// ceil(k / tuples per page) pages; LIMIT 0 reads nothing. A CM leg
// stops within the share of its probed pages that holds k of the rows
// the index's pair statistics expect. A scan under a predicate, a
// sorted select and an aggregate keep their whole-path prices.
func TestLimitPricesThePagesItReads(t *testing.T) {
	tbl := fixtureOf(t, 200000)
	if _, err := tbl.CreateIndex("ix_u", []int{1}); err != nil {
		t.Fatal(err)
	}
	sp := exec.NewExactStats()
	h, ts := exec.Hardware(tbl), sp.TableStats(tbl)
	cost := func(spec Spec) time.Duration {
		t.Helper()
		tr, err := Compile(tbl, spec, sp)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Explain().EstimatedCost
	}
	scan := costmodel.Scan(h, ts)
	if got, want := cost(Spec{Limit: 5}), costmodel.PageRuns(h, ts, 1, int64(math.Ceil(5/ts.TupsPerPage))); got != want || got >= scan {
		t.Errorf("LIMIT 5 scan priced %v, want %v (the full scan is %v)", got, want, scan)
	}
	if got := cost(Spec{Limit: -1}); got != 0 {
		t.Errorf("LIMIT 0 priced %v, want 0", got)
	}
	onV := []exec.Query{exec.NewQuery(exec.Eq(2, value.NewInt(3)))}
	if got := cost(Spec{Disjuncts: onV, Limit: 5}); got != scan {
		t.Errorf("LIMIT 5 under a predicate no structure serves priced %v, want the whole scan %v", got, scan)
	}

	// u IN (three values far apart): three runs of probed pages, of
	// which the first row needs one.
	inU := []exec.Query{exec.NewQuery(exec.In(1, value.NewInt(10), value.NewInt(10000), value.NewInt(20000)))}
	whole := cost(Spec{Disjuncts: inU})
	probe, _, err := exec.ProbeCM(tbl, tbl.CMs()[0], inU[0])
	if err != nil {
		t.Fatal(err)
	}
	if runs, _ := exec.PageRuns(tbl, probe.Pages); runs != 3 {
		t.Fatalf("the probe opens %d runs, want 3", runs)
	}
	if got, want := cost(Spec{Disjuncts: inU, Limit: 1}), costmodel.PageRuns(h, ts, 1, 1); got != want || got >= whole {
		t.Errorf("LIMIT 1 CM scan priced %v, want %v (unlimited %v)", got, want, whole)
	}
	if got := cost(Spec{Disjuncts: inU, Limit: 1000}); got != whole {
		t.Errorf("a LIMIT above the expected rows priced %v, want the whole sweep %v", got, whole)
	}
	sorted := Spec{Disjuncts: inU, OrderBy: []Order{{Col: 2}}, Limit: 1}
	agg := Spec{Disjuncts: inU, Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 2}}, GroupBy: []int{2}, Limit: 1}
	for name, spec := range map[string]Spec{"sorted": sorted, "aggregate": agg} {
		unlimited := spec
		unlimited.Limit = 0
		if got, want := cost(spec), cost(unlimited); got != want {
			t.Errorf("%s LIMIT 1 priced %v, want its unlimited price %v", name, got, want)
		}
	}
}
