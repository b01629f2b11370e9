package heap

import (
	"bytes"
	"testing"
)

// appendAll appends each tuple at begin and returns their RIDs.
func appendAll(t *testing.T, h *File, begin uint64, tuples ...string) []RID {
	t.Helper()
	rids := make([]RID, len(tuples))
	for i, s := range tuples {
		rid, err := h.AppendAt([]byte(s), begin)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	return rids
}

// TestReplaceAtRefusals covers what ReplaceAt must refuse — a tuple of
// another length, an ended slot, a dead slot, an erased slot, a slot
// that already holds a pre-image, and a zero timestamp — and checks
// that a refusal changes neither the slot nor the pre-images.
func TestReplaceAtRefusals(t *testing.T) {
	h := newHeap(t, 256, 8)
	rids := appendAll(t, h, 1, "live", "ends", "dies", "gone")
	live, ended, dead, erased := rids[0], rids[1], rids[2], rids[3]
	if err := h.SetEnd(ended, 2); err != nil {
		t.Fatal(err)
	}
	if err := h.SetEnd(dead, 2); err != nil {
		t.Fatal(err)
	}
	if err := h.MarkDead(dead, 4); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(erased); err != nil {
		t.Fatal(err)
	}

	refusals := []struct {
		name  string
		rid   RID
		tuple string
		ts    uint64
	}{
		{"a longer tuple", live, "lives", 3},
		{"a shorter tuple", live, "liv", 3},
		{"a zero timestamp", live, "LIVE", 0},
		{"an ended slot", ended, "ENDS", 3},
		{"a dead slot", dead, "DIES", 3},
		{"an erased slot", erased, "GONE", 3},
		{"a slot out of range", RID{Page: 0, Slot: 9}, "NONE", 3},
	}
	for _, r := range refusals {
		if err := h.ReplaceAt(r.rid, []byte(r.tuple), r.ts); err == nil {
			t.Errorf("ReplaceAt accepted %s", r.name)
		}
	}
	if got, _ := h.Get(live); string(got) != "live" || h.PreImages() != 0 {
		t.Fatalf("after the refusals the live slot reads %q with %d pre-images", got, h.PreImages())
	}

	if err := h.ReplaceAt(live, []byte("LIVE"), 3); err != nil {
		t.Fatal(err)
	}
	if err := h.ReplaceAt(live, []byte("L1VE"), 4); err == nil {
		t.Error("ReplaceAt accepted a slot that already holds a pre-image")
	}
	if got, _ := h.Get(live); string(got) != "LIVE" || h.PreImages() != 1 {
		t.Fatalf("after the second replacement was refused the slot reads %q with %d pre-images", got, h.PreImages())
	}
	if err := h.RestoreAt(ended); err == nil {
		t.Error("RestoreAt accepted a slot without a pre-image")
	}
	if err := h.DropPreImage(ended); err == nil {
		t.Error("DropPreImage accepted a slot without a pre-image")
	}
}

// TestPreImageVisibility replaces a tuple begun at 2 with one begun at 5
// and reads the slot through every reader: ScanPagesAt, ViewAt and
// Visible. Snapshot 1 sees neither version, snapshots 2 to 4 the old
// bytes, and snapshot 5 and the latest sentinel 0 the new ones. The
// replacement leaves the page's space, the slot count and the live-tuple
// count as they were. RestoreAt brings the old version back live;
// replaced again, DropPreImage leaves the new version alone and counts
// one reclaimed version, and Delete takes a pre-image with the slot.
func TestPreImageVisibility(t *testing.T) {
	h := newHeap(t, 256, 8)
	appendAll(t, h, 1, "before")
	rid := appendAll(t, h, 2, "old-bytes")[0]
	appendAll(t, h, 1, "after")
	room, slots, tuples := h.Room(rid.Page), h.Slots(), h.TupleCount()

	// read returns what each reader shows of rid at snap ("" for nothing).
	read := func(snap uint64) (scan, view string, visible bool) {
		t.Helper()
		if err := h.ScanPagesAt(0, h.NumPages()-1, snap, func(r RID, tuple []byte) bool {
			if r == rid {
				scan = string(tuple)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := h.ViewAt(rid, snap, func(tuple []byte) error {
			view, visible = string(tuple), true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return scan, view, visible
	}
	expect := func(stage string, want map[uint64]string) {
		t.Helper()
		for snap, w := range want {
			scan, view, visible := read(snap)
			if scan != w || view != w || visible != (w != "") {
				t.Errorf("%s, snapshot %d: scan %q, view %q, visible %v; want %q", stage, snap, scan, view, visible, w)
			}
		}
	}

	if err := h.ReplaceAt(rid, []byte("new-bytes"), 5); err != nil {
		t.Fatal(err)
	}
	expect("replaced", map[uint64]string{1: "", 2: "old-bytes", 4: "old-bytes", 5: "new-bytes", 9: "new-bytes", 0: "new-bytes"})
	if h.Room(rid.Page) != room || h.Slots() != slots || h.TupleCount() != tuples {
		t.Errorf("replacement moved room %d→%d, slots %d→%d, tuples %d→%d",
			room, h.Room(rid.Page), slots, h.Slots(), tuples, h.TupleCount())
	}
	if got, _ := h.Get(rid); !bytes.Equal(got, []byte("new-bytes")) {
		t.Errorf("Get after the replacement = %q", got)
	}

	if err := h.RestoreAt(rid); err != nil {
		t.Fatal(err)
	}
	expect("restored", map[uint64]string{1: "", 2: "old-bytes", 5: "old-bytes", 0: "old-bytes"})
	if h.PreImages() != 0 {
		t.Errorf("%d pre-images after RestoreAt", h.PreImages())
	}

	if err := h.ReplaceAt(rid, []byte("new-bytes"), 5); err != nil {
		t.Fatal(err)
	}
	reclaimed := h.ReclaimedVersions()
	if err := h.DropPreImage(rid); err != nil {
		t.Fatal(err)
	}
	expect("dropped", map[uint64]string{2: "", 4: "", 5: "new-bytes", 0: "new-bytes"})
	if h.PreImages() != 0 || h.ReclaimedVersions() != reclaimed+1 {
		t.Errorf("DropPreImage left %d pre-images and %d reclaimed versions, want 0 and %d",
			h.PreImages(), h.ReclaimedVersions(), reclaimed+1)
	}

	if err := h.ReplaceAt(rid, []byte("third-one"), 7); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	expect("deleted", map[uint64]string{5: "", 6: "", 7: "", 0: ""})
	if h.PreImages() != 0 {
		t.Errorf("%d pre-images after Delete", h.PreImages())
	}
}
