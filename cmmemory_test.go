package repro

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/heap"
)

// liveHeapBytes is the heap still reachable once collections stop
// freeing anything: package unique drops dead interned strings' table
// entries in the background after one collection, and only the next
// frees them.
func liveHeapBytes() int64 {
	last := int64(-1)
	for range 20 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if n := int64(ms.HeapAlloc); n != last {
			last = n
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	return last
}

// TestCreateCMLiveBytes is the CM's in-memory size gate: on the 60,000-row
// Figure 6 fixture (the benchmark's), the live heap CreateCM adds — the
// key map, the bucket runs and every pair's statistics over all four
// columns — stays within 10 % of the 254,000 bytes it measured when the
// statistics became pointer-free columns (1,110,800 bytes before, with a
// heap-allocated statistics block per pair).
func TestCreateCMLiveBytes(t *testing.T) {
	db := Open(Config{BufferPoolPages: 128})
	tbl := emptyItems(t, db)
	if err := tbl.Load(itemsRows(60000)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("ix_subcat", "subcat"); err != nil {
		t.Fatal(err)
	}
	before := liveHeapBytes()
	if err := tbl.CreateCM("subcat_cm", CMColumn{Name: "subcat"}); err != nil {
		t.Fatal(err)
	}
	delta := liveHeapBytes() - before
	runtime.KeepAlive(db)
	t.Logf("CreateCM live heap: %d bytes (%.3f MiB); the CM's statistics account %d of them",
		delta, float64(delta)/(1<<20), tbl.CMs()[0].StatsBytes)
	const bound = 254_000 * 11 / 10
	if delta > bound {
		t.Errorf("CreateCM keeps %d live bytes, bound %d", delta, bound)
	}
}

// TestLoadLiveBytes is the bulk load's in-memory size gate: the live heap
// Load of the 60,000-row Figure 6 fixture adds through a 128-page pool —
// the simulated disk's pages, the clustered directory and the heap's
// MVCC versions — stays within 2 % of the 11,139,400 bytes it measured
// once a frame held the disk's page instead of a copy (12,148,000
// before, with a second 8 KiB buffer for each of the 128 frames the
// load fills; 13,090,000 before a loaded page's versions folded into one
// page-level version, with a 16-byte version per slot).
func TestLoadLiveBytes(t *testing.T) {
	db := Open(Config{BufferPoolPages: 128})
	tbl := emptyItems(t, db)
	rows := itemsRows(60000)
	before := liveHeapBytes()
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	delta := liveHeapBytes() - before
	runtime.KeepAlive(rows)
	runtime.KeepAlive(db)
	t.Logf("Load live heap: %d bytes (%.3f MiB) for %d heap pages",
		delta, float64(delta)/(1<<20), tbl.HeapPages())
	const bound = 11_139_400 * 102 / 100
	if delta > bound {
		t.Errorf("Load keeps %d live bytes, bound %d", delta, bound)
	}
}

// TestVersionBytesGauge: table.version_bytes reads the heap's version
// state, and the pages a published write touched fold back once no
// snapshot can tell. After the Figure 6 fixture's Load every page holds
// one page-level version, 16 bytes a heap page, and an in-place UPDATE of
// one cat's rows published with no pin leaves the gauge there. With a
// snapshot pinned before such an UPDATE, the pages its rows sit on keep
// their per-slot arrays, 16 bytes a slot, past the pin's release, until
// the next write's drain freezes them.
func TestVersionBytesGauge(t *testing.T) {
	db := Open(Config{BufferPoolPages: 128})
	tbl := emptyItems(t, db)
	if err := tbl.Load(itemsRows(60000)); err != nil {
		t.Fatal(err)
	}
	loaded := metricValue(t, db, "table.version_bytes")
	if pages := tbl.HeapPages(); loaded != 16*pages {
		t.Fatalf("table.version_bytes = %d after the load, want 16 × %d pages", loaded, pages)
	}
	gauge := func(stage string, want int64) {
		t.Helper()
		if got := metricValue(t, db, "table.version_bytes"); got != want {
			t.Errorf("%s: table.version_bytes = %d, want %d (%d after the load)", stage, got, want, loaded)
		}
	}
	update := func(cat int) {
		t.Helper()
		if _, err := db.Exec(fmt.Sprintf("UPDATE items SET price = %d WHERE cat = %d", cat, cat)); err != nil {
			t.Fatal(err)
		}
	}
	update(7)
	gauge("an UPDATE published with no pin", loaded)

	// Every slot of the loaded heap holds a tuple: count each page's, and
	// note the pages cat 8's rows sit on.
	slots, touched := map[int64]int64{}, map[int64]bool{}
	inner := tbl.inner
	inner.RLock()
	err := inner.Heap().Scan(func(rid heap.RID, tuple []byte) bool {
		slots[rid.Page]++
		row, err := inner.Schema().DecodeRow(tuple)
		if err != nil {
			t.Error(err)
			return false
		}
		if row[0].I == 8 {
			touched[rid.Page] = true
		}
		return true
	})
	inner.RUnlock()
	if err != nil || len(touched) == 0 {
		t.Fatalf("finding cat 8's pages: %d pages, %v", len(touched), err)
	}
	raised := loaded
	for p := range touched {
		raised += 16 * slots[p]
	}
	_, release := inner.PinSnapshot()
	update(8)
	gauge("an UPDATE behind a pin", raised)
	release()
	gauge("the pin released, before the next write", raised)
	update(9)
	gauge("the next write drained", loaded)
}

// TestVersionBytesBoundedUnderChurn runs a fixed, seeded stream of 10,000
// statements on the Figure 6 fixture, mixed like the benchmark's mixed_rw
// — 70 % point probes, 15 % aggregates, 10 % one-cat UPDATEs and 5 %
// one-row INSERTs — and reads table.version_bytes at the end of every
// decile. Each write's pages fold back at its publish, so the last
// decile's reading stays within 10 % of the 21,344 bytes it measured
// when that freeze arrived (16 bytes a heap page); before it, every page
// a write had touched kept its per-slot array, and the reading was
// 1,024,496 bytes and still climbing (172,016 at the first decile).
func TestVersionBytesBoundedUnderChurn(t *testing.T) {
	db, _ := itemsFixture(t, 1)
	rng := rand.New(rand.NewPCG(45, 70))
	const statements = 10_000
	var deciles []int64
	for i := range statements {
		var stmt string
		switch r := i % 20; {
		case r < 14:
			stmt = fmt.Sprintf("SELECT price FROM items WHERE subcat = %d", rng.IntN(datagen.CorrelatedSubcats))
		case r < 17:
			stmt = fmt.Sprintf("SELECT COUNT(*), AVG(price) FROM items WHERE subcat = %d", rng.IntN(datagen.CorrelatedSubcats))
		case r < 19:
			stmt = fmt.Sprintf("UPDATE items SET price = %d WHERE cat = %d", rng.IntN(10_000), rng.IntN(datagen.CorrelatedCats))
		default:
			c := rng.IntN(datagen.CorrelatedCats)
			stmt = fmt.Sprintf("INSERT INTO items VALUES (%d, %d, %d, 'new')", c, c/8, rng.IntN(10_000))
		}
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("statement %d, %s: %v", i, stmt, err)
		}
		if (i+1)%(statements/10) == 0 {
			deciles = append(deciles, metricValue(t, db, "table.version_bytes"))
		}
	}
	last := deciles[len(deciles)-1]
	t.Logf("table.version_bytes by decile: %v", deciles)
	const bound = 21_344 * 11 / 10
	if last > bound {
		t.Errorf("table.version_bytes reads %d bytes at the last decile, bound %d", last, bound)
	}
}

// TestResidentPagesCostNoHeap: a resident page costs no heap beyond its
// frame-table slot, because a frame holds the simulated disk's own page
// rather than a second buffer. After the Figure 6 build, a cold cache
// and a full table scan, all 1,334 heap pages are resident at pool 4096
// and 128 of them at pool 128, each read in by a Get miss; yet the two
// live heaps differ only by the larger pool's frame table (its frames
// and shard page tables): within 10 % of the 404,000 bytes measured once
// frames stopped copying pages (≈ 9.9 MiB more at pool 4096 while each
// resident page had a second 8 KiB buffer).
func TestResidentPagesCostNoHeap(t *testing.T) {
	rows := itemsRows(60000)
	live := func(pool int) int64 {
		before := liveHeapBytes()
		db := Open(Config{BufferPoolPages: pool})
		tbl := buildItems(t, db, rows)
		if err := db.ColdCache(); err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: TableScan}, func(Row) bool { n++; return true }); err != nil || n != len(rows) {
			t.Fatalf("pool %d: the full scan saw %d rows, err %v", pool, n, err)
		}
		delta := liveHeapBytes() - before
		runtime.KeepAlive(db)
		return delta
	}
	small, large := live(128), live(4096)
	runtime.KeepAlive(rows)
	t.Logf("Figure 6 build and full scan, live heap: %d bytes at pool 128, %d at pool 4096 (%d more)", small, large, large-small)
	const bound = 404_000 * 11 / 10
	if large-small > bound {
		t.Errorf("pool 4096 keeps %d live bytes more than pool 128, bound %d: resident pages cost heap", large-small, bound)
	}
}
