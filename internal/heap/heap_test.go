package heap

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/sim"
)

func newHeap(t *testing.T, pageSize, frames int) *File {
	t.Helper()
	d := sim.NewDisk(sim.Config{PageSize: pageSize})
	return NewFile(buffer.NewPool(d, frames))
}

func TestAppendGetRoundTrip(t *testing.T) {
	h := newHeap(t, 256, 8)
	var rids []RID
	for i := 0; i < 50; i++ {
		rid, err := h.AppendAt([]byte(fmt.Sprintf("tuple-%03d", i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.TupleCount() != 50 {
		t.Errorf("tuple count = %d", h.TupleCount())
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("tuple-%03d", i)
		if string(got) != want {
			t.Errorf("Get(%v) = %q, want %q", rid, got, want)
		}
	}
}

func TestTuplesSpanMultiplePages(t *testing.T) {
	h := newHeap(t, 128, 8)
	for i := 0; i < 40; i++ {
		if _, err := h.AppendAt(make([]byte, 40), 1); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 2 {
		t.Errorf("expected multiple pages, got %d", h.NumPages())
	}
}

func TestOversizedTupleRejected(t *testing.T) {
	h := newHeap(t, 128, 4)
	if _, err := h.AppendAt(make([]byte, 130), 1); err == nil {
		t.Error("oversized tuple accepted")
	}
}

// TestZeroBeginRejected pins that no tuple can begin at timestamp 0,
// which would make it visible to snapshots taken before its statement.
func TestZeroBeginRejected(t *testing.T) {
	h := newHeap(t, 128, 4)
	if _, err := h.AppendAt([]byte("x"), 0); err == nil {
		t.Error("tuple with a zero begin timestamp accepted")
	}
	if h.NumPages() != 0 || h.TupleCount() != 0 {
		t.Errorf("rejected tuple left %d pages, %d tuples", h.NumPages(), h.TupleCount())
	}
}

func TestScanOrderAndCompleteness(t *testing.T) {
	h := newHeap(t, 256, 8)
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := h.AppendAt([]byte{byte(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	var seen []byte
	var last RID
	first := true
	err := h.Scan(func(rid RID, tuple []byte) bool {
		if !first && (rid.Page < last.Page || rid.Page == last.Page && rid.Slot <= last.Slot) {
			t.Errorf("scan out of order: %v then %v", last, rid)
		}
		last, first = rid, false
		seen = append(seen, tuple[0])
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("scan saw %d tuples", len(seen))
	}
	for i, b := range seen {
		if int(b) != i {
			t.Fatalf("tuple %d = %d", i, b)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	h := newHeap(t, 256, 8)
	for i := 0; i < 20; i++ {
		if _, err := h.AppendAt([]byte{byte(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if err := h.Scan(func(RID, []byte) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("scan visited %d tuples after stop", count)
	}
}

func TestDelete(t *testing.T) {
	h := newHeap(t, 256, 8)
	rid1, err := h.AppendAt([]byte("one"), 1)
	if err != nil {
		t.Fatal(err)
	}
	rid2, err := h.AppendAt([]byte("two"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rid1); err != nil {
		t.Fatal(err)
	}
	if got, err := h.Get(rid1); err != nil || got != nil {
		t.Errorf("deleted tuple Get = %q, %v", got, err)
	}
	if got, _ := h.Get(rid2); string(got) != "two" {
		t.Error("delete damaged neighbour")
	}
	if h.TupleCount() != 1 {
		t.Errorf("tuple count after delete = %d", h.TupleCount())
	}
	// Idempotent.
	if err := h.Delete(rid1); err != nil {
		t.Fatal(err)
	}
	if h.TupleCount() != 1 {
		t.Error("double delete decremented count twice")
	}
	// Scan skips deleted tuples.
	n := 0
	if err := h.Scan(func(RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("scan visited %d tuples", n)
	}
}

func TestGetErrors(t *testing.T) {
	h := newHeap(t, 256, 8)
	if _, err := h.Get(RID{Page: 0, Slot: 0}); err == nil {
		t.Error("Get on empty heap should fail")
	}
	if _, err := h.AppendAt([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(RID{Page: 0, Slot: 9}); err == nil {
		t.Error("Get with bad slot should fail")
	}
	if err := h.Delete(RID{Page: 7}); err == nil {
		t.Error("Delete with bad page should fail")
	}
}

func TestScanPagesRange(t *testing.T) {
	h := newHeap(t, 128, 8)
	for i := 0; i < 60; i++ {
		if _, err := h.AppendAt(make([]byte, 30), 1); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 3 {
		t.Skip("need at least 3 pages")
	}
	var pages []int64
	if err := h.ScanPagesAt(1, 1, 0, func(rid RID, _ []byte) bool {
		pages = append(pages, rid.Page)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(pages) == 0 {
		t.Fatal("no tuples on page 1")
	}
	for _, p := range pages {
		if p != 1 {
			t.Errorf("ScanPagesAt(1,1) visited page %d", p)
		}
	}
	// Out-of-range bounds clamp instead of failing.
	n := 0
	if err := h.ScanPagesAt(-5, 999, 0, func(RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 60 {
		t.Errorf("clamped scan saw %d", n)
	}
}

func TestTuplesOnPage(t *testing.T) {
	h := newHeap(t, 256, 8)
	var rids []RID
	for i := 0; i < 10; i++ {
		rid, err := h.AppendAt([]byte("abcdef"), 1)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	onPage := func() int {
		n := 0
		if err := h.ScanPagesAt(0, 0, 0, func(RID, []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := onPage(); n != 10 {
		t.Errorf("tuples on page 0 = %d", n)
	}
	if err := h.Delete(rids[3]); err != nil {
		t.Fatal(err)
	}
	if n := onPage(); n != 9 {
		t.Errorf("tuples on page 0 after delete = %d", n)
	}
}

func TestAppendGetPropertyRandomSizes(t *testing.T) {
	h := newHeap(t, 512, 16)
	type stored struct {
		rid  RID
		data []byte
	}
	var all []stored
	f := func(raw []byte) bool {
		if len(raw) > 100 {
			raw = raw[:100]
		}
		rid, err := h.AppendAt(raw, 1)
		if err != nil {
			return false
		}
		all = append(all, stored{rid, append([]byte(nil), raw...)})
		got, err := h.Get(rid)
		if err != nil {
			return false
		}
		return string(got) == string(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// All earlier tuples still intact.
	for _, s := range all {
		got, err := h.Get(s.rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(s.data) {
			t.Fatalf("tuple at %v corrupted", s.rid)
		}
	}
}

func TestView(t *testing.T) {
	disk := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(disk, 16)
	h := NewFile(pool)
	a, err := h.AppendAt([]byte("alpha"), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.AppendAt([]byte("beta"), 1)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	if err := h.ViewAt(a, 0, func(tuple []byte) error {
		got = string(tuple)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != "alpha" {
		t.Errorf("ViewAt = %q, want alpha", got)
	}
	if err := h.Delete(b); err != nil {
		t.Fatal(err)
	}
	called := false
	if err := h.ViewAt(b, 0, func([]byte) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("ViewAt invoked fn for a deleted tuple")
	}
	if err := h.ViewAt(RID{Page: 99, Slot: 0}, 0, func([]byte) error { return nil }); err == nil {
		t.Error("ViewAt accepted an out-of-range RID")
	}
	boom := fmt.Errorf("boom")
	if err := h.ViewAt(a, 0, func([]byte) error { return boom }); err != boom {
		t.Errorf("ViewAt swallowed fn's error: %v", err)
	}
}
