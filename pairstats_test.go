package repro

import (
	"context"
	"testing"
)

// TestFirstColdPlanScansNoHeap builds the Figure 6 fixture on a 128-page
// pool and runs one subcat point probe from a cold cache. The plan that
// weighs ix_subcat prices it from the pair statistics CreateIndex
// counted, so the statement reads only the pages it answers from, not a
// full heap scan for the statistics (≈ 1,340 pages).
func TestFirstColdPlanScansNoHeap(t *testing.T) {
	db, tbl := itemsTable(t, Config{BufferPoolPages: 128}, 60000)
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Reads
	rows := len(mustSelect(t, db, QuerySpec{Table: tbl.Name(), Preds: []Pred{Eq("subcat", IntVal(125))}}))
	reads := db.Stats().Reads - before
	t.Logf("first cold subcat probe: %d rows, %d pages read", rows, reads)
	if rows == 0 {
		t.Fatal("the probe matched nothing; fixture broken")
	}
	if reads > 16 {
		t.Errorf("the first cold statement read %d pages, want at most 16", reads)
	}
}

// TestRowsSincePairStats reads table.rows_since_pair_stats: 0 while no
// index has counted statistics, 0 after a load recounts an index created
// before it and after CreateIndex counts a new one, and then every row
// version an UPDATE writes — the old version it ends plus the new one,
// as table.rows_written counts them.
func TestRowsSincePairStats(t *testing.T) {
	db := Open(Config{})
	tbl := emptyItems(t, db)
	gauge := func(when string, want int64) {
		t.Helper()
		if got := metricValue(t, db, "table.rows_since_pair_stats"); got != want {
			t.Errorf("%s: table.rows_since_pair_stats = %d, want %d", when, got, want)
		}
	}
	if err := tbl.CreateIndex("ix_subcat", "subcat"); err != nil {
		t.Fatal(err)
	}
	gauge("index over the empty table", 0)
	if err := tbl.Load(itemsRows(6000)); err != nil {
		t.Fatal(err)
	}
	gauge("after Load", 0)
	if err := tbl.CreateIndex("ix_price", "price"); err != nil {
		t.Fatal(err)
	}
	gauge("after CreateIndex", 0)

	written := metricValue(t, db, "table.rows_written")
	var updated int64
	for _, where := range []Pred{Lt("cat", IntVal(40)), Between("cat", IntVal(1000), IntVal(1019))} {
		n, err := tbl.db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "price", Val: IntVal(1)}}, where)
		if err != nil {
			t.Fatal(err)
		}
		updated += n
	}
	n := metricValue(t, db, "table.rows_written") - written
	if updated == 0 || n != 2*updated {
		t.Fatalf("%d rows updated wrote %d row versions, want two each", updated, n)
	}
	gauge("after the UPDATEs", n)
}
