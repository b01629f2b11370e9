package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// cmaggFixture builds a correlated table at the given worker count with
// an identity CM over qty, a bucketed (level-2, width-4) CM over wide,
// and a secondary index on qty — the structures the cm-agg equivalence
// suite forces against each other.
func cmaggFixture(t *testing.T, workers int, n int) (*DB, *Table) {
	t.Helper()
	db := Open(Config{Workers: workers})
	tbl, err := db.CreateTable(TableSpec{
		Name: "items",
		Columns: []Column{
			{Name: "cat", Kind: Int},
			{Name: "qty", Kind: Int},
			{Name: "wide", Kind: Int},
			{Name: "price", Kind: Float},
			{Name: "city", Kind: String},
		},
		ClusteredBy:  []string{"cat"},
		BucketTuples: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"boston", "cambridge", "springfield", "toledo", "jackson"}
	rows := make([]Row, n)
	for i := range rows {
		cat := int64(i / 8)
		rows[i] = Row{
			IntVal(cat),
			IntVal(cat/2 + int64(i%3)),
			IntVal(cat + int64(i%3)), // tracks the clustering: few buckets per CM key
			FloatVal(float64(i%50) + 0.5),
			StringVal(cities[i%len(cities)]),
		}
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

// cmaggSpecs is the query matrix of the equivalence suite: point,
// IN-list (also with repeated keys) and range predicates over the
// identity CM, range and point predicates over the bucketed CM (interior
// buckets pure, boundary buckets swept), grouped and ungrouped shapes, a
// predicate-free COUNT, and range and IN-list predicates on the
// clustering column.
func cmaggSpecs() []QuerySpec {
	all := []Agg{{Func: Count}, {Func: Sum, Col: "qty"}, {Func: Avg, Col: "qty"},
		{Func: Min, Col: "qty"}, {Func: Max, Col: "city"}}
	return []QuerySpec{
		{Table: "items", Preds: []Pred{Eq("qty", IntVal(7))}, Aggs: all},
		{Table: "items", Preds: []Pred{In("qty", IntVal(3), IntVal(8), IntVal(11))}, Aggs: all},
		{Table: "items", Preds: []Pred{Between("qty", IntVal(3), IntVal(9))}, Aggs: all},
		{Table: "items", Preds: []Pred{Gt("qty", IntVal(5)), Le("qty", IntVal(14))}, Aggs: all},
		{Table: "items", Aggs: all}, // no WHERE: whole-table pushdown
		{Table: "items", Preds: []Pred{Eq("qty", IntVal(99999))}, Aggs: all}, // empty input
		{Table: "items", Preds: []Pred{Between("qty", IntVal(3), IntVal(9))}, Aggs: all[:3], GroupBy: []string{"qty"}},
		// The bucketed CM: interior buckets answer from statistics,
		// boundary buckets sweep (Between 10..30 spans buckets 8..28).
		{Table: "items", Preds: []Pred{Between("wide", IntVal(10), IntVal(30))}, Aggs: []Agg{{Func: Count}, {Func: Sum, Col: "wide"}, {Func: Min, Col: "wide"}}},
		{Table: "items", Preds: []Pred{Eq("wide", IntVal(13))}, Aggs: []Agg{{Func: Count}, {Func: Avg, Col: "wide"}}},
		// One key spelled twice — the literal IN (5, 5), and IN values of
		// one bucket — is one entry: statistics folded twice would show
		// as a doubled COUNT. A second predicate on the column still
		// applies to a key found by direct lookup.
		{Table: "items", Preds: []Pred{In("qty", IntVal(5), IntVal(5))}, Aggs: all},
		{Table: "items", Preds: []Pred{In("wide", IntVal(13), IntVal(14), IntVal(15), IntVal(40))}, Aggs: []Agg{{Func: Count}, {Func: Sum, Col: "wide"}}},
		{Table: "items", Preds: []Pred{In("qty", IntVal(7), IntVal(3), IntVal(12)), Gt("qty", IntVal(3))}, Aggs: all},
		// Predicates on the clustering column: no CM covers them, the
		// clustered-index scan feeds the heap fold.
		{Table: "items", Preds: []Pred{Between("cat", IntVal(10), IntVal(40)), Ne("qty", IntVal(9))}, Aggs: all, GroupBy: []string{"city"}},
		{Table: "items", Preds: []Pred{In("cat", IntVal(2), IntVal(3), IntVal(70))}, Aggs: all},
	}
}

// TestCMAggEquivalence pins the cm-agg path byte-identical to the
// heap-visiting aggregation across every forced access method, serial
// and at 8 workers, including the impure-bucket hybrid fallback of the
// bucketed CM.
func TestCMAggEquivalence(t *testing.T) {
	serial, _ := cmaggFixture(t, 1, 600)
	parallel, _ := cmaggFixture(t, 8, 600)
	for si, spec := range cmaggSpecs() {
		_, want, err := serial.SelectAggregateCtx(context.Background(), withVia(spec, TableScan))
		if err != nil {
			t.Fatalf("spec %d reference: %v", si, err)
		}
		for _, db := range []*DB{serial, parallel} {
			for _, via := range []AccessMethod{Auto, TableScan, SortedIndexScan, PipelinedIndexScan, CMScan, ClusteredIndexScan} {
				s := withVia(spec, via)
				if via == SortedIndexScan || via == PipelinedIndexScan {
					// The secondary index only applies to qty predicates.
					if len(spec.Preds) == 0 || specCol(spec) != "qty" {
						continue
					}
				}
				if via == CMScan && (len(spec.Preds) == 0 || specCol(spec) == "cat") {
					continue // forced CM scan needs a predicated CM column
				}
				if via == ClusteredIndexScan && specCol(spec) != "cat" {
					continue // forced clustered scan needs the clustering column
				}
				_, got, err := db.SelectAggregateCtx(context.Background(), s)
				if err != nil {
					t.Fatalf("spec %d via %v (workers=%d): %v", si, via, db.Workers(), err)
				}
				rowsEqual(t, fmt.Sprintf("spec %d via %v workers=%d", si, via, db.Workers()), got, want)
			}
		}
	}
}

// withVia copies a spec with a forced access method.
func withVia(spec QuerySpec, via AccessMethod) QuerySpec {
	spec.Via = via
	return spec
}

// specCol names the first predicated column of a spec (test helper).
func specCol(spec QuerySpec) string {
	if len(spec.Preds) == 0 {
		return ""
	}
	return spec.Preds[0].col
}

// TestCMAggIndexOnly is the acceptance test for the paper-shaped
// workload: with a covering identity CM, the aggregate answers with
// zero disk reads from a cold cache (no heap page, no index page), and
// EXPLAIN surfaces the cm-agg node; the forced heap path reads pages
// and returns the identical result.
func TestCMAggIndexOnly(t *testing.T) {
	db, _ := cmaggFixture(t, 4, 600)
	spec := QuerySpec{
		Table: "items",
		Preds: []Pred{Eq("qty", IntVal(7))},
		Aggs:  []Agg{{Func: Count}, {Func: Avg, Col: "qty"}},
	}

	info, err := db.ExplainSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Nodes) == 0 || info.Nodes[0].Kind != "cm-agg" {
		t.Fatalf("plan nodes = %+v, want cm-agg access node", info.Nodes)
	}
	if !strings.Contains(info.Nodes[0].Detail, "index-only") {
		t.Errorf("cm-agg detail = %q, want index-only", info.Nodes[0].Detail)
	}
	if info.Uses != "cm_qty" {
		t.Errorf("Uses = %q, want cm_qty", info.Uses)
	}
	if info.DecodedCols != 0 {
		t.Errorf("DecodedCols = %d, want 0 (no tuple materialized)", info.DecodedCols)
	}

	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	_, got, err := db.SelectAggregateCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if reads := db.Stats().Reads; reads != 0 {
		t.Errorf("index-only aggregate read %d pages, want 0", reads)
	}

	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	_, want, err := db.SelectAggregateCtx(context.Background(), withVia(spec, TableScan))
	if err != nil {
		t.Fatal(err)
	}
	if reads := db.Stats().Reads; reads == 0 {
		t.Error("forced heap sweep read 0 pages — counter not engaged")
	}
	rowsEqual(t, "index-only vs heap", got, want)

	// The SQL surface shows the same node in the method cell.
	res, err := db.Exec("EXPLAIN SELECT count(*), avg(qty) FROM items WHERE qty = 7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "cm-agg" {
		t.Errorf("EXPLAIN method cell = %q, want cm-agg", res.Rows[0][0].Str())
	}
}

// TestCMAggHybridImpureBuckets pins the hybrid plan: a range over the
// bucketed CM answers interior buckets from statistics and sweeps only
// the boundary buckets, reading fewer pages than the forced heap path
// while returning the identical rows. Small pages make the scan
// expensive enough (as in the planner fixture) that the §4 model's
// seek-dominated impure-bucket term wins.
func TestCMAggHybridImpureBuckets(t *testing.T) {
	db := Open(Config{Workers: 4, PageSize: 1024})
	tbl, err := db.CreateTable(TableSpec{
		Name: "items",
		Columns: []Column{
			{Name: "cat", Kind: Int},
			{Name: "wide", Kind: Int},
			{Name: "qty", Kind: Int},
		},
		ClusteredBy: []string{"cat"}, // default bucketing: ~10 pages per bucket
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12000
	rows := make([]Row, n)
	for i := range rows {
		cat := int64(i / 8)
		rows[i] = Row{IntVal(cat), IntVal(cat + int64(i%3)), IntVal(int64(i % 7))}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("cm_wide", CMColumn{Name: "wide", Level: 2}); err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{
		Table: "items",
		Preds: []Pred{Between("wide", IntVal(100), IntVal(300))},
		Aggs:  []Agg{{Func: Count}, {Func: Sum, Col: "wide"}},
	}
	info, err := db.ExplainSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Nodes) == 0 || info.Nodes[0].Kind != "cm-agg" {
		t.Fatalf("plan nodes = %+v, want cm-agg", info.Nodes)
	}
	if !strings.Contains(info.Nodes[0].Detail, "hybrid sweep") {
		t.Errorf("cm-agg detail = %q, want hybrid sweep of impure buckets", info.Nodes[0].Detail)
	}
	if info.DecodedCols == 0 {
		t.Error("hybrid plan reports 0 decoded cols; the sweep materializes columns")
	}

	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	_, got, err := db.SelectAggregateCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	hybridReads := db.Stats().Reads

	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	_, want, err := db.SelectAggregateCtx(context.Background(), withVia(spec, TableScan))
	if err != nil {
		t.Fatal(err)
	}
	scanReads := db.Stats().Reads
	rowsEqual(t, "hybrid vs heap", got, want)
	if hybridReads == 0 {
		t.Error("hybrid plan read 0 pages; boundary buckets must sweep")
	}
	if hybridReads >= scanReads {
		t.Errorf("hybrid read %d pages, full sweep %d — pushdown saved nothing", hybridReads, scanReads)
	}
}

// TestCMAggRetraction pins Algorithm-1 retraction through the stats:
// after inserts and deletes (including deleting extreme values, which
// dirties min/max and forces those entries onto the hybrid sweep),
// cm-agg answers remain byte-identical to the heap path.
func TestCMAggRetraction(t *testing.T) {
	db, tbl := cmaggFixture(t, 4, 400)
	// Insert outliers into an existing qty group, then delete rows
	// including the group minimum so the entry's min/max go stale.
	for i := 0; i < 20; i++ {
		err := tbl.Insert(Row{IntVal(int64(i)), IntVal(7), IntVal(int64(200 + i)),
			FloatVal(0.25), StringVal("aaaa")})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("city", StringVal("aaaa"))); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("qty", IntVal(3))); err != nil {
		t.Fatal(err)
	}

	specs := []QuerySpec{
		{Table: "items", Preds: []Pred{Eq("qty", IntVal(7))},
			Aggs: []Agg{{Func: Count}, {Func: Sum, Col: "qty"}, {Func: Min, Col: "city"}, {Func: Max, Col: "wide"}}},
		{Table: "items", Aggs: []Agg{{Func: Count}}},
		{Table: "items", Preds: []Pred{Between("qty", IntVal(4), IntVal(12))},
			Aggs: []Agg{{Func: Count}, {Func: Avg, Col: "qty"}}, GroupBy: []string{"qty"}},
	}
	for i, spec := range specs {
		_, want, err := db.SelectAggregateCtx(context.Background(), withVia(spec, TableScan))
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := db.SelectAggregateCtx(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, fmt.Sprintf("post-retraction spec %d", i), got, want)
	}

	// COUNT(*) still answers index-only after retraction: counts
	// subtract exactly.
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	if _, _, err := db.SelectAggregateCtx(context.Background(), specs[1]); err != nil {
		t.Fatal(err)
	}
	if reads := db.Stats().Reads; reads != 0 {
		t.Errorf("post-retraction COUNT(*) read %d pages, want 0", reads)
	}
}

// TestCMAggIneligibleShapes pins the fallback boundaries: float
// SUM/AVG, predicates or grouping off the CM attribute, Ne predicates
// and forced methods must not plan cm-agg (and still answer correctly).
func TestCMAggIneligibleShapes(t *testing.T) {
	db, _ := cmaggFixture(t, 4, 400)
	ineligible := []QuerySpec{
		// AVG over a float column stays on the heap (byte-identity).
		{Table: "items", Preds: []Pred{Eq("qty", IntVal(7))}, Aggs: []Agg{{Func: Avg, Col: "price"}}},
		// A predicate off the CM attribute.
		{Table: "items", Preds: []Pred{Eq("qty", IntVal(7)), Eq("city", StringVal("boston"))},
			Aggs: []Agg{{Func: Count}}},
		// Grouping off the CM attribute.
		{Table: "items", Preds: []Pred{Eq("qty", IntVal(7))}, Aggs: []Agg{{Func: Count}}, GroupBy: []string{"city"}},
		// Ne never probes.
		{Table: "items", Preds: []Pred{Ne("qty", IntVal(7))}, Aggs: []Agg{{Func: Count}}},
	}
	for i, spec := range ineligible {
		info, err := db.ExplainSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if info.Nodes[0].Kind == "cm-agg" {
			t.Errorf("spec %d planned cm-agg: %+v", i, info.Nodes)
		}
		_, want, err := db.SelectAggregateCtx(context.Background(), withVia(spec, TableScan))
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := db.SelectAggregateCtx(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, fmt.Sprintf("ineligible spec %d", i), got, want)
	}

	// A forced method never takes the cm-agg shortcut.
	info, err := db.ExplainSpec(QuerySpec{Table: "items", Via: CMScan,
		Preds: []Pred{Eq("qty", IntVal(7))}, Aggs: []Agg{{Func: Count}}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes[0].Kind != "scan" {
		t.Errorf("forced CMScan aggregate planned %+v", info.Nodes)
	}
}
