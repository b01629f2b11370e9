package heap

import (
	"fmt"
	"testing"
)

// TestFreezeRefoldsPages: every page a placement opens starts folded, a
// write to one folded page builds that page's per-slot array alone, and
// Freeze folds a page back to its newest begin exactly when every slot is
// live and un-ended, no slot holds a pre-image and that begin is at or
// before the horizon — after which every snapshot from the horizon on
// reads the page as before, and VersionBytes is back to the page-level
// versions alone.
func TestFreezeRefoldsPages(t *testing.T) {
	h := newHeap(t, 256, 8)
	texts := map[RID]string{}
	put := func(page int64, ts uint64) RID {
		t.Helper()
		text := fmt.Sprintf("tuple-%03d", len(texts))
		rid, err := h.PutAt(page, []byte(text), ts)
		if err != nil {
			t.Fatal(err)
		}
		texts[rid] = text
		return rid
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	isFolded := func(p int64, begin uint64) bool {
		pv := h.vers[p]
		return pv.folded() && pv.slots == nil && pv.pre == nil && pv.begin == begin && pv.len() == 3
	}
	// Four pages of three tuples each, every page keeping room for more:
	// pages 0 and 2 begin at one timestamp, page 1 at two, page 3 at one
	// with a slot replaced in place.
	for p, ts := range [][3]uint64{{1, 1, 1}, {1, 2, 1}, {1, 1, 1}, {1, 1, 1}} {
		for _, b := range ts {
			put(int64(p), b)
		}
	}
	replaced := RID{Page: 3, Slot: 1}
	must(h.ReplaceAt(replaced, []byte("TUPLE-010"), []byte(texts[replaced]), 3))
	old := texts[replaced]
	texts[replaced] = "TUPLE-010"
	for _, p := range []int64{0, 2} {
		if !isFolded(p, 1) {
			t.Errorf("page %d did not stay folded: %+v", p, h.vers[p])
		}
	}
	if got, want := h.VersionBytes(), 4*pageLevelSize+(4+3)*versionSize; got != want {
		t.Errorf("VersionBytes = %d, want %d: page 1's array grown to 4, page 3's built at 3", got, want)
	}

	// Page 1's newest begin is 2: a horizon of 1 keeps its versions, 2
	// folds them.
	h.Freeze(1, 1)
	if h.vers[1].folded() {
		t.Fatal("Freeze folded page 1 below its newest begin")
	}
	h.Freeze(1, 2)
	if !isFolded(1, 2) {
		t.Fatalf("Freeze at page 1's newest begin left %+v", h.vers[1])
	}

	// Page 3 holds a pre-image: no horizon folds it until it is dropped,
	// and then only a horizon at or past the replacement's begin.
	h.Freeze(3, 9)
	if h.vers[3].folded() {
		t.Fatal("Freeze folded a page holding a pre-image")
	}
	var before string
	must(h.ViewAt(replaced, 2, func(b []byte) error { before = string(b); return nil }))
	if before != old {
		t.Fatalf("snapshot 2 reads %q at the replaced slot, want its pre-image %q", before, old)
	}
	must(h.DropPreImage(replaced))
	h.Freeze(3, 2)
	if h.vers[3].folded() {
		t.Fatal("Freeze folded page 3 below its newest begin")
	}
	h.Freeze(3, 3)
	if !isFolded(3, 3) {
		t.Fatalf("Freeze after the drop left %+v", h.vers[3])
	}

	// An ended slot, then a dead one, keep page 2 unfolded; the slot's
	// reuse at 5 makes it foldable again.
	ended := RID{Page: 2, Slot: 2}
	must(h.SetEnd(ended, 4))
	h.Freeze(2, 9)
	if h.vers[2].folded() {
		t.Fatal("Freeze folded a page with an ended slot")
	}
	must(h.MarkDead(ended, len(texts[ended])))
	delete(texts, ended)
	h.Freeze(2, 9)
	if h.vers[2].folded() {
		t.Fatal("Freeze folded a page with a dead slot")
	}
	if rid := put(2, 5); rid != ended {
		t.Fatalf("the placement took %v, want the dead slot %v", rid, ended)
	}
	h.Freeze(2, 5)
	if !isFolded(2, 5) {
		t.Fatalf("Freeze after the slot's reuse left %+v", h.vers[2])
	}
	if got, want := h.VersionBytes(), 4*pageLevelSize; got != want {
		t.Errorf("VersionBytes with every page folded = %d, want %d", got, want)
	}

	// Every slot reads as it did from the newest horizon on; a write to
	// page 1 builds page 1's array alone.
	put(1, 6)
	if pv := h.vers[1]; pv.folded() || pv.len() != 4 {
		t.Fatalf("page 1 after a placement: folded %v with %d versions, want an array of 4", pv.folded(), pv.len())
	}
	for _, p := range []int64{0, 2, 3} {
		if !h.vers[p].folded() {
			t.Errorf("page %d unfolded by a write to page 1", p)
		}
	}
	for rid, text := range texts {
		for _, snap := range []uint64{0, 5, 6} {
			want := text
			if rid == (RID{Page: 1, Slot: 3}) && snap == 5 {
				want = "" // begun at 6
			}
			var got string
			must(h.ViewAt(rid, snap, func(b []byte) error { got = string(b); return nil }))
			if got != want {
				t.Errorf("ViewAt(%v, %d) = %q, want %q", rid, snap, got, want)
			}
		}
	}

	// A page of one slot folds too, once its pre-image is dropped.
	one := put(4, 1)
	must(h.ReplaceAt(one, []byte("TUPLE-ONE"), []byte(texts[one]), 7))
	must(h.DropPreImage(one))
	h.Freeze(4, 7)
	if pv := h.vers[4]; !pv.folded() || pv.begin != 7 || pv.len() != 1 {
		t.Fatalf("Freeze of a one-slot page left %+v", pv)
	}
}
