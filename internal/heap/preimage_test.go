package heap

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
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
// another length, a pre-image that is not the slot's bytes, an ended
// slot, a dead slot, a slot that already holds a pre-image, and a zero
// timestamp — and checks that a refusal changes neither the slot nor the
// pre-images. RestoreAt refuses a pre-image not reopened first.
func TestReplaceAtRefusals(t *testing.T) {
	h := newHeap(t, 256, 8)
	rids := appendAll(t, h, 1, "live", "ends", "dies")
	live, ended, dead := rids[0], rids[1], rids[2]
	if err := h.SetEnd(ended, 2); err != nil {
		t.Fatal(err)
	}
	if err := h.SetEnd(dead, 2); err != nil {
		t.Fatal(err)
	}
	if err := h.MarkDead(dead, 4); err != nil {
		t.Fatal(err)
	}

	refusals := []struct {
		name       string
		rid        RID
		tuple, pre string
		ts         uint64
		why        string // in the error, where the refusal has more than one possible reason
	}{
		{"a longer tuple", live, "lives", "live", 3, ""},
		{"a shorter tuple", live, "liv", "live", 3, ""},
		{"a pre-image of other bytes", live, "LIVE", "lave", 3, ""},
		{"a zero timestamp", live, "LIVE", "live", 0, ""},
		{"an ended slot", ended, "ENDS", "ends", 3, ""},
		{"a dead slot", dead, "DIES", "dies", 3, ""},
		{"a slot out of range", RID{Page: 0, Slot: 9}, "NONE", "none", 3, "slot out of range"},
	}
	for _, r := range refusals {
		if err := h.ReplaceAt(r.rid, []byte(r.tuple), []byte(r.pre), r.ts); err == nil || !strings.Contains(err.Error(), r.why) {
			t.Errorf("ReplaceAt of %s: %v", r.name, err)
		}
	}
	if got, _ := h.Get(live); string(got) != "live" || h.PreImages() != 0 || h.pool.PinnedFrames() != 0 {
		t.Fatalf("after the refusals the live slot reads %q with %d pre-images, %d frames pinned", got, h.PreImages(), h.pool.PinnedFrames())
	}

	if err := h.ReplaceAt(live, []byte("LIVE"), []byte("live"), 3); err != nil {
		t.Fatal(err)
	}
	// A page's first pre-image starts its list with room for more.
	if c := cap(h.vers[live.Page].pre); c != firstPreImages {
		t.Errorf("the page's pre-image list holds %d, want %d", c, firstPreImages)
	}
	if err := h.ReplaceAt(live, []byte("L1VE"), []byte("LIVE"), 4); err == nil {
		t.Error("ReplaceAt accepted a slot that already holds a pre-image")
	}
	if got, _ := h.Get(live); string(got) != "LIVE" || h.PreImages() != 1 {
		t.Fatalf("after the second replacement was refused the slot reads %q with %d pre-images", got, h.PreImages())
	}
	// A page that cannot be read fails the replacement, which changes
	// nothing and pins nothing.
	more := appendAll(t, h, 1, "more")[0]
	if err := h.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	h.pool.Invalidate()
	h.pool.Disk().SetFaultPlan(&sim.FaultPlan{FailReadN: 1})
	err := h.ReplaceAt(more, []byte("MORE"), []byte("more"), 5)
	h.pool.Disk().SetFaultPlan(nil)
	if err == nil || h.PreImages() != 1 || h.pool.PinnedFrames() != 0 {
		t.Fatalf("ReplaceAt under a read fault: %v, %d pre-images, %d frames pinned", err, h.PreImages(), h.pool.PinnedFrames())
	}
	if err := h.RestoreAt(ended); err == nil {
		t.Error("RestoreAt accepted a slot without a pre-image")
	}
	if err := h.RestoreAt(live); err == nil {
		t.Error("RestoreAt accepted a pre-image that was not reopened")
	}
	if err := h.ReopenPreImage(more); err == nil {
		t.Error("ReopenPreImage accepted a live slot without a pre-image")
	}
	if err := h.ReopenPreImage(ended); err == nil {
		t.Error("ReopenPreImage accepted a slot without a pre-image")
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
// count as they were. ReopenPreImage shows every snapshot the old
// version again, the live-tuple count unchanged, and RestoreAt puts it
// back in the slot; replaced again, DropPreImage leaves the new version
// alone and counts one reclaimed version.
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

	if err := h.ReplaceAt(rid, []byte("new-bytes"), []byte("old-bytes"), 5); err != nil {
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

	if err := h.ReopenPreImage(rid); err != nil {
		t.Fatal(err)
	}
	expect("reopened", map[uint64]string{1: "", 2: "old-bytes", 5: "old-bytes", 0: "old-bytes"})
	if h.TupleCount() != tuples {
		t.Errorf("reopening moved the live-tuple count %d→%d", tuples, h.TupleCount())
	}
	if err := h.RestoreAt(rid); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Get(rid); !bytes.Equal(got, []byte("old-bytes")) || h.TupleCount() != tuples {
		t.Errorf("after RestoreAt the slot reads %q with %d live tuples", got, h.TupleCount())
	}
	expect("restored", map[uint64]string{1: "", 2: "old-bytes", 5: "old-bytes", 0: "old-bytes"})
	if h.PreImages() != 0 {
		t.Errorf("%d pre-images after RestoreAt", h.PreImages())
	}

	if err := h.ReplaceAt(rid, []byte("new-bytes"), []byte("old-bytes"), 5); err != nil {
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

}
