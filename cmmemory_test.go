package repro

import (
	"runtime"
	"testing"
	"time"

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
// the simulated disk's pages, the frames the build fills, the clustered
// directory and the heap's MVCC versions — stays within 2 % of the
// 12,148,000 bytes it measured once a loaded page's versions folded into
// one page-level version (13,090,000 before, with a 16-byte version per
// slot).
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
	const bound = 12_148_000 * 102 / 100
	if delta > bound {
		t.Errorf("Load keeps %d live bytes, bound %d", delta, bound)
	}
}

// TestVersionBytesGauge: table.version_bytes reads the heap's version
// state. After the Figure 6 fixture's Load every page holds one
// page-level version, at most 16 bytes a heap page; an in-place UPDATE
// of one cat's rows raises it by exactly the per-slot arrays of the pages
// those rows sit on, 16 bytes a slot.
func TestVersionBytesGauge(t *testing.T) {
	db := Open(Config{BufferPoolPages: 128})
	tbl := emptyItems(t, db)
	if err := tbl.Load(itemsRows(60000)); err != nil {
		t.Fatal(err)
	}
	loaded := metricValue(t, db, "table.version_bytes")
	if pages := tbl.HeapPages(); loaded <= 0 || loaded > 16*pages {
		t.Fatalf("table.version_bytes = %d after the load, want at most 16 × %d pages", loaded, pages)
	}

	// Every slot of the loaded heap holds a tuple: count each page's, and
	// note the pages cat 7's rows sit on.
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
		if row[0].I == 7 {
			touched[rid.Page] = true
		}
		return true
	})
	inner.RUnlock()
	if err != nil || len(touched) == 0 {
		t.Fatalf("finding cat 7's pages: %d pages, %v", len(touched), err)
	}
	want := loaded
	for p := range touched {
		want += 16 * slots[p]
	}
	if _, err := db.Exec("UPDATE items SET price = 1 WHERE cat = 7"); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, db, "table.version_bytes"); got != want {
		t.Errorf("table.version_bytes = %d after an UPDATE touching %d pages, want %d (%d before)",
			got, len(touched), want, loaded)
	}
}
