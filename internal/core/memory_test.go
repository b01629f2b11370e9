package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/value"
)

// liveHeap is the heap still reachable once collections stop freeing
// anything. One collection is not enough after interned strings die:
// package unique drops their table entries in the background after a
// collection, and only the next one frees them.
func liveHeap() int64 {
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

// TestStatsSizeBytesMatchesLiveHeap holds StatsSizeBytes to the memory
// the statistics really take: two CMs over the same rows, one keeping
// statistics on an int, a float and a string column and one keeping
// none, differ in live heap by what their StatsSizeBytes differ by,
// within 10 %. The string column either repeats three values, so its
// extremes share three interned copies, or gives every row its own
// value, so nearly every pair holds strings no other pair does and the
// interning table's bookkeeping per string shows.
func TestStatsSizeBytesMatchesLiveHeap(t *testing.T) {
	pad := strings.Repeat("x", 150)
	for _, distinct := range []int{3, 1 << 30} {
		t.Run(fmt.Sprintf("distinct=%d", min(distinct, 30000)), func(t *testing.T) {
			rows := make([]value.Row, 30000)
			for i := range rows {
				rows[i] = value.Row{
					value.NewInt(int64(i % 700)),
					value.NewInt(int64(i * 7919 % 10000)),
					value.NewFloat(float64(i) / 3),
					value.NewString(fmt.Sprintf("%d%s", i%distinct, pad)), // a fresh copy per row
				}
			}
			build := func(statCols []int) *CM {
				cm := New(Spec{Name: "m", UCols: []int{0}, StatCols: statCols})
				for i, r := range rows {
					cm.AddRow(r, int32(i/50))
				}
				return cm
			}
			base := liveHeap()
			with := build([]int{1, 2, 3})
			mid := liveHeap()
			without := build(nil)
			end := liveHeap()
			measured := (mid - base) - (end - mid)
			accounted := with.StatsSizeBytes() - without.StatsSizeBytes()
			t.Logf("%d pairs: statistics take %d live bytes, StatsSizeBytes accounts %d (%d with, %d without)",
				with.Pairs(), measured, accounted, with.StatsSizeBytes(), without.StatsSizeBytes())
			if d := float64(accounted-measured) / float64(measured); d < -0.1 || d > 0.1 {
				t.Errorf("StatsSizeBytes is off the live heap by %.1f%%", 100*d)
			}
			runtime.KeepAlive(rows)
			runtime.KeepAlive(with)
			runtime.KeepAlive(without)
		})
	}
}

// TestMaintenanceAllocatesNothing: adding a row to a pair the CM already
// holds, and retracting one that leaves the pair alive, allocate nothing
// — the key is encoded into the CM's scratch and the statistics columns
// are updated in place, string extremes included.
func TestMaintenanceAllocatesNothing(t *testing.T) {
	cm := New(Spec{Name: "m", UCols: []int{0, 2}, StatCols: []int{0, 1, 2}})
	row := value.Row{value.NewInt(7), value.NewInt(250), value.NewString("springfield")}
	for range 3 {
		cm.AddRow(row, 4)
	}
	if allocs := testing.AllocsPerRun(100, func() { cm.AddRow(row, 4) }); allocs != 0 {
		t.Errorf("AddRow on an existing pair allocates %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := cm.RemoveRow(row, 4); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RemoveRow on a pair that stays allocates %.1f objects, want 0", allocs)
	}
	if e, ok := cm.Find(cm.AppendKeyForRow(nil, row)); !ok || cm.PairCount(e.Slots[0]) != 3 {
		t.Fatalf("after 104 adds and 101 removals the pair holds %v, want count 3", e)
	}
}
