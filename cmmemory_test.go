package repro

import (
	"runtime"
	"testing"
	"time"
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
