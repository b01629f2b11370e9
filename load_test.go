// Bulk-load tests: Load writes the heap to disk as one sequential run of
// pages, and rows that share a clustered key keep their input order.
package repro

import (
	"context"
	"math/rand"
	"testing"
)

// TestLoadWritesHeapInPageOrder loads the benchmark's cold fixture
// (60,000 correlated items through a 128-page pool, two clock shards)
// and counts the seeks the load pays. Left to eviction, the two shards
// write the load's dirty pages as two interleaved ascending runs, and
// every switch between them is a seek: 128 of them. Written back as the
// load leaves each page, the heap is one sequential stream: the load
// writes every page but the open tail, with no seek past the first, and
// ColdCache writes the tail.
func TestLoadWritesHeapInPageOrder(t *testing.T) {
	db := Open(Config{BufferPoolPages: 128})
	tbl := emptyItems(t, db)
	rows := itemsRows(60000)
	before := db.Stats()
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	seeks, writes := after.Seeks-before.Seeks, after.Writes-before.Writes
	t.Logf("Load: %d writes, %d seeks, %v virtual", writes, seeks, after.Elapsed-before.Elapsed)
	pages := uint64(tbl.HeapPages())
	if writes < pages-1 {
		t.Errorf("Load wrote %d pages, fewer than the %d full pages it left behind", writes, pages-1)
	}
	if seeks > 2 {
		t.Errorf("Load paid %d seeks, want at most 2: heap pages should reach disk in page order", seeks)
	}
	if n := db.PinnedFrames(); n != 0 {
		t.Errorf("%d frames still pinned after Load", n)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if total := db.Stats().Writes - before.Writes; total < pages {
		t.Errorf("Load and ColdCache wrote %d pages, fewer than the heap's %d", total, pages)
	}
}

// TestLoadKeepsInputOrderWithinAKey loads rows whose clustered keys
// repeat, in shuffled key order, and reads them back with a full scan:
// the keys come back sorted and, within each key, the rows come back in
// the order Load was given them.
func TestLoadKeepsInputOrderWithinAKey(t *testing.T) {
	db := Open(Config{})
	tbl, err := db.CreateTable(TableSpec{
		Name:        "dups",
		Columns:     []Column{{Name: "k", Kind: Int}, {Name: "seq", Kind: Int}},
		ClusteredBy: []string{"k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n, keys = 5000, 7
	rng := rand.New(rand.NewSource(3))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{IntVal(int64(rng.Intn(keys))), IntVal(int64(i))}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	got, lastK, lastSeq := 0, int64(-1), int64(-1)
	err = db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: TableScan}, func(r Row) bool {
		k, seq := r[0].Int(), r[1].Int()
		switch {
		case k < lastK:
			t.Fatalf("row %d: key %d after key %d", got, k, lastK)
		case k == lastK && seq < lastSeq:
			t.Fatalf("key %d: input row %d comes back after input row %d", k, seq, lastSeq)
		}
		got, lastK, lastSeq = got+1, k, seq
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("scan returned %d rows, want %d", got, n)
	}
}
