// Bulk-load tests: Load writes the heap to disk as one sequential run of
// pages, rows that share a clustered key keep their input order, a load
// over an index leaves no page of the index's empty tree behind, a CM
// created before the load holds what one created after it does, and
// Load reads the caller's rows without copying or keeping them.
package repro

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
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

// TestLoadOverAnIndexStoresWhatCreateIndexDoes: an index created before
// Load gets a tree built from the loaded rows in place of its empty one,
// and the empty tree's page goes back to the disk, so the store holds
// exactly what Load followed by CreateIndex leaves (disk.store_bytes).
func TestLoadOverAnIndexStoresWhatCreateIndexDoes(t *testing.T) {
	stored := func(indexFirst bool) int64 {
		t.Helper()
		db := Open(Config{})
		tbl := emptyItems(t, db)
		index := func() {
			if err := tbl.CreateIndex("ix_subcat", "subcat"); err != nil {
				t.Fatal(err)
			}
		}
		if indexFirst {
			index()
		}
		if err := tbl.Load(itemsRows(2000)); err != nil {
			t.Fatal(err)
		}
		if !indexFirst {
			index()
		}
		return db.Metrics("disk.store_bytes")[0].Value
	}
	if over, after := stored(true), stored(false); over != after {
		t.Errorf("Load over the index stores %d bytes, Load then CreateIndex %d", over, after)
	}
}

// TestLoadOverACMBuildsWhatCreateCMDoes: CMs created before Load are
// filled once the rows are in, by CreateCM's own fill, whose scan sees
// the load's unpublished rows; so each serializes to the bytes of the
// same CM created after the load. One CM is unbucketed and one buckets
// its column, the fill's two ways to a key.
func TestLoadOverACMBuildsWhatCreateCMDoes(t *testing.T) {
	serialized := func(cmFirst bool) [][]byte {
		t.Helper()
		db := Open(Config{})
		tbl := emptyItems(t, db)
		create := func() {
			if err := tbl.CreateCM("subcat_cm", CMColumn{Name: "subcat"}); err != nil {
				t.Fatal(err)
			}
			if err := tbl.CreateCM("price_cm", CMColumn{Name: "price", Width: 100}); err != nil {
				t.Fatal(err)
			}
		}
		if cmFirst {
			create()
		}
		if err := tbl.Load(itemsRows(2000)); err != nil {
			t.Fatal(err)
		}
		if !cmFirst {
			create()
		}
		var out [][]byte
		for _, cm := range tbl.inner.CMs() {
			var b bytes.Buffer
			if err := cm.Serialize(&b); err != nil {
				t.Fatal(err)
			}
			if cm.Pairs() == 0 {
				t.Fatalf("CM %s is empty after the load", cm.Spec().Name)
			}
			out = append(out, b.Bytes())
		}
		return out
	}
	over, after := serialized(true), serialized(false)
	for i := range after {
		if !bytes.Equal(over[i], after[i]) {
			t.Errorf("CM %d: created before Load it serializes to %d bytes, after Load to %d, and they differ", i, len(over[i]), len(after[i]))
		}
	}
}

// TestLoadKeepsNoRow: the facade hands Load the caller's rows as they
// are, and the table keeps none of them. Overwriting every row after the
// load changes nothing the table holds, and once the caller drops them,
// the rows' array and a row's values are collected.
func TestLoadKeepsNoRow(t *testing.T) {
	db := Open(Config{})
	tbl := emptyItems(t, db)
	rows := itemsRows(3000)
	var want int64
	for _, r := range rows {
		want += r[2].Int()
	}
	collected := make(chan string, 2)
	runtime.SetFinalizer(&rows[0], func(*Row) { collected <- "the rows' array" })
	runtime.SetFinalizer(&rows[1][0], func(*Value) { collected <- "a row's values" })
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i][2] = IntVal(-1)
	}
	var got int64
	if err := db.SelectSpec(context.Background(), QuerySpec{Table: "items", Via: TableScan}, func(r Row) bool {
		got += r[2].Int()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("the table's prices sum to %d after the caller overwrote its rows, want %d", got, want)
	}
	rows = nil
	deadline := time.Now().Add(5 * time.Second)
	for n := 0; n < 2; {
		select {
		case <-collected:
			n++
		default:
			if time.Now().After(deadline) {
				t.Fatalf("after the load, %d of 2 caller objects were collected: the table keeps the caller's rows", n)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	runtime.KeepAlive(tbl)
}
