package heap

import (
	"fmt"
	"testing"
)

// TestClipLeavesExactVersions: after a load's Clip a page whose slots all
// share one begin holds its page-level version and no per-slot array, a
// page with differing begins or an ended slot keeps an array of exactly
// its length, and a write to one folded page builds that page's array
// alone — its neighbours stay folded and every tuple stays readable.
func TestClipLeavesExactVersions(t *testing.T) {
	h := newHeap(t, 256, 8)
	begins, texts := map[RID]uint64{}, map[RID]string{}
	put := func(page int64, ts uint64) {
		t.Helper()
		text := fmt.Sprintf("tuple-%03d", len(texts))
		rid, err := h.PutAt(page, []byte(text), ts)
		if err != nil {
			t.Fatal(err)
		}
		begins[rid], texts[rid] = ts, text
	}
	// Five pages of three tuples each, every page keeping room for more:
	// pages 0, 2 and 3 begin at one timestamp, page 1 at two, and page 4
	// at one with a slot ended.
	for p, ts := range [][3]uint64{{1, 1, 1}, {1, 2, 1}, {1, 1, 1}, {3, 3, 3}, {1, 1, 1}} {
		for _, b := range ts {
			put(int64(p), b)
		}
	}
	ended := RID{Page: 4, Slot: 1}
	if err := h.SetEnd(ended, 4); err != nil {
		t.Fatal(err)
	}
	h.Clip()

	isFolded := func(p int64) bool {
		pv := h.vers[p]
		return pv.folded() && pv.slots == nil && pv.len() == 3
	}
	for _, p := range []int64{0, 2, 3} {
		if !isFolded(p) {
			t.Errorf("page %d did not fold: %+v", p, h.vers[p])
		}
	}
	for _, p := range []int64{1, 4} {
		if pv := h.vers[p]; pv.folded() || len(pv.slots) != 3 || cap(pv.slots) != 3 {
			t.Errorf("page %d: folded %v, %d versions in an array of %d; want an exact array of 3",
				p, pv.folded(), len(pv.slots), cap(pv.slots))
		}
	}
	if got, want := h.VersionBytes(), 5*pageLevelSize+2*3*versionSize; got != want {
		t.Errorf("VersionBytes after Clip = %d, want %d", got, want)
	}

	// A new tuple on page 2 builds page 2's array alone.
	put(2, 9)
	if pv := h.vers[2]; pv.folded() || pv.len() != 4 {
		t.Fatalf("page 2 after a placement: folded %v with %d versions, want an array of 4", pv.folded(), pv.len())
	}
	for _, p := range []int64{0, 3} {
		if !isFolded(p) {
			t.Errorf("page %d unfolded by a write to page 2", p)
		}
	}
	for rid, ts := range begins {
		if got := h.vers[rid.Page].at(int(rid.Slot)).begin; got != ts {
			t.Errorf("%v: version begins at %d, want %d", rid, got, ts)
		}
		var got string
		if err := h.ViewAt(rid, 3, func(b []byte) error { got = string(b); return nil }); err != nil {
			t.Fatal(err)
		}
		if want := texts[rid]; (ts <= 3) != (got == want) {
			t.Errorf("ViewAt(%v, 3) = %q for a tuple begun at %d, want %q", rid, got, ts, want)
		}
		latest, err := h.Get(rid)
		if want := texts[rid]; err != nil || (string(latest) == want) == (rid == ended) {
			t.Errorf("Get(%v) = %q, %v; want %q unless ended", rid, latest, err, want)
		}
	}
}
