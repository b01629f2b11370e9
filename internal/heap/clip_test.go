package heap

import (
	"fmt"
	"testing"
)

// TestClipLeavesExactVersions: after a load's Clip every page's version
// array has cap == len, and a later PutAt that adds a slot to a page
// grows that page alone — its neighbours' versions stay as they were and
// every tuple stays readable.
func TestClipLeavesExactVersions(t *testing.T) {
	h := newHeap(t, 256, 8)
	begins := map[RID]uint64{}
	put := func(page int64, ts uint64) {
		t.Helper()
		rid, err := h.PutAt(page, []byte(fmt.Sprintf("tuple-%03d", ts)), ts)
		if err != nil {
			t.Fatal(err)
		}
		begins[rid] = ts
	}
	// Four pages of three tuples each: every page keeps room for more.
	for ts := uint64(1); ts <= 12; ts++ {
		put(int64((ts-1)/3), ts)
	}
	h.Clip()
	for p, pv := range h.vers {
		if len(pv) != 3 || cap(pv) != len(pv) {
			t.Errorf("page %d: %d versions in an array of %d", p, len(pv), cap(pv))
		}
	}
	put(1, 13)
	put(1, 14)
	if n := len(h.vers[1]); n != 5 {
		t.Fatalf("page 1 holds %d versions after two more tuples, want 5", n)
	}
	for rid, ts := range begins {
		if got := h.vers[rid.Page][rid.Slot].begin; got != ts {
			t.Errorf("%v: version begins at %d, want %d", rid, got, ts)
		}
		got, err := h.Get(rid)
		if err != nil || string(got) != fmt.Sprintf("tuple-%03d", ts) {
			t.Errorf("Get(%v) = %q, %v", rid, got, err)
		}
	}
}
