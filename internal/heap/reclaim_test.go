package heap

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// modelTuple is the reclaim fuzzer's expectation for one tuple.
type modelTuple struct {
	data  []byte
	ended bool
}

// reclaimModel drives a heap through its reclamation API beside a map
// of what every live and ended tuple must hold.
type reclaimModel struct {
	t  *testing.T
	h  *File
	m  map[RID]*modelTuple
	ts uint64
}

// pick returns the n-th model tuple (in RID order) satisfying keep.
func (rm *reclaimModel) pick(n byte, keep func(*modelTuple) bool) (RID, *modelTuple, bool) {
	var rids []RID
	for rid, mt := range rm.m {
		if keep(mt) {
			rids = append(rids, rid)
		}
	}
	if len(rids) == 0 {
		return RID{}, nil, false
	}
	slices.SortFunc(rids, func(a, b RID) int {
		return cmp.Or(cmp.Compare(a.Page, b.Page), cmp.Compare(a.Slot, b.Slot))
	})
	rid := rids[int(n)%len(rids)]
	return rid, rm.m[rid], true
}

// put stores a tuple on page — which the accounting vouched for — and
// records it.
func (rm *reclaimModel) put(page int64, tuple []byte) {
	rm.t.Helper()
	rid, err := rm.h.PutAt(page, tuple, rm.ts)
	if err != nil {
		rm.t.Fatalf("PutAt(%d) of %d bytes on a page the accounting offered: %v", page, len(tuple), err)
	}
	if _, taken := rm.m[rid]; taken {
		rm.t.Fatalf("PutAt handed out %v, which still holds a live or ended tuple", rid)
	}
	rm.m[rid] = &modelTuple{data: tuple}
}

// step applies one operation decoded from op and arg.
func (rm *reclaimModel) step(op, arg byte) {
	rm.t.Helper()
	rm.ts++
	h := rm.h
	tuple := bytes.Repeat([]byte{byte(rm.ts)}, 1+int(arg)%60)
	live := func(mt *modelTuple) bool { return !mt.ended }
	ended := func(mt *modelTuple) bool { return mt.ended }
	switch op % 8 {
	case 0: // tail append
		rid, err := h.AppendAt(tuple, rm.ts)
		if err != nil {
			rm.t.Fatalf("AppendAt: %v", err)
		}
		rm.m[rid] = &modelTuple{data: tuple}
	case 1: // best-fit placement of a group of one to three tuples
		tuples := 1 + int(arg)%3
		cost := tuples * TupleCost(len(tuple))
		if page, ok := h.BestFit(cost, tuples); ok {
			if !h.Fits(page, cost, tuples) {
				rm.t.Fatalf("BestFit(%d, %d) offered page %d, which does not fit", cost, tuples, page)
			}
			for i := 0; i < tuples; i++ {
				rm.put(page, tuple)
			}
		}
	case 2: // placement on a chosen page, when the accounting says it fits
		page := int64(arg) % (h.NumPages() + 1)
		if page == h.NumPages() || h.Fits(page, TupleCost(len(tuple)), 1) {
			rm.put(page, tuple)
		}
	case 3: // end a live version
		if rid, mt, ok := rm.pick(arg, live); ok {
			if err := h.SetEnd(rid, rm.ts); err != nil {
				rm.t.Fatalf("SetEnd(%v): %v", rid, err)
			}
			mt.ended = true
		}
	case 4: // an ended version goes dead
		if rid, mt, ok := rm.pick(arg, ended); ok {
			if err := h.MarkDead(rid, len(mt.data)); err != nil {
				rm.t.Fatalf("MarkDead(%v): %v", rid, err)
			}
			delete(rm.m, rid)
		}
	case 5: // a live version goes at once, as an aborted statement's does
		if rid, mt, ok := rm.pick(arg, live); ok {
			if err := h.SetEnd(rid, rm.ts); err != nil {
				rm.t.Fatalf("SetEnd(%v): %v", rid, err)
			}
			if err := h.MarkDead(rid, len(mt.data)); err != nil {
				rm.t.Fatalf("MarkDead(%v): %v", rid, err)
			}
			delete(rm.m, rid)
		}
	case 6: // an ended version comes back (abort)
		if rid, mt, ok := rm.pick(arg, ended); ok {
			if err := h.ClearEnd(rid); err != nil {
				rm.t.Fatalf("ClearEnd(%v): %v", rid, err)
			}
			mt.ended = false
		}
	case 7: // freeze a page: every version begun so far is published
		if n := h.NumPages(); n > 0 {
			h.Freeze(int64(arg)%n, rm.ts)
		}
	}
}

// check holds every page to the model and to its own accounting.
func (rm *reclaimModel) check() {
	rm.t.Helper()
	if err := rm.checkErr(); err != nil {
		rm.t.Fatal(err)
	}
}

func (rm *reclaimModel) checkErr() error {
	h := rm.h
	var liveN, deadN int64
	for rid, mt := range rm.m {
		if !mt.ended {
			liveN++
		}
		visible := false
		if err := h.ViewAt(rid, 0, func([]byte) error { visible = true; return nil }); err != nil {
			return err
		}
		if visible == mt.ended {
			return fmt.Errorf("%v: latest visibility %v, model ended=%v", rid, visible, mt.ended)
		}
	}
	if h.TupleCount() != liveN {
		return fmt.Errorf("TupleCount %d, model has %d live", h.TupleCount(), liveN)
	}
	for p := int64(0); p < h.NumPages(); p++ {
		fr, err := h.pool.Get(h.file, p)
		if err != nil {
			return err
		}
		d := append([]byte(nil), fr.Data...)
		h.pool.Unpin(fr, false)

		n, cell := pageNumSlots(d), pageCellStart(d)
		pv := &h.vers[p]
		if pv.len() != n {
			return fmt.Errorf("page %d: %d slots, %d versions", p, n, pv.len())
		}
		if headerSize+n*slotSize > cell {
			return fmt.Errorf("page %d: slot directory runs into the tuple bytes", p)
		}
		var spans [][2]int
		var dead, erased []uint16
		held := 0
		for s := 0; s < n; s++ {
			off, length := slotAt(d, s)
			v := pv.at(s)
			rid := RID{Page: p, Slot: uint16(s)}
			mt, inModel := rm.m[rid]
			switch {
			case v.begin == gone && length > 0:
				dead = append(dead, uint16(s))
			case v.begin == gone:
				erased = append(erased, uint16(s))
			case !inModel:
				return fmt.Errorf("%v holds a version the model never saw", rid)
			default:
				held += length
				if !bytes.Equal(d[off:off+length], mt.data) {
					return fmt.Errorf("%v holds %q, model %q", rid, d[off:off+length], mt.data)
				}
			}
			if inModel && v.begin == gone {
				return fmt.Errorf("%v is reclaimed but the model still holds it", rid)
			}
			if length > 0 {
				if off < cell || off+length > len(d) {
					return fmt.Errorf("%v spans [%d,%d) outside the tuple area [%d,%d)", rid, off, off+length, cell, len(d))
				}
				spans = append(spans, [2]int{off, off + length})
			}
		}
		slices.SortFunc(spans, func(a, b [2]int) int { return a[0] - b[0] })
		for i := 1; i < len(spans); i++ {
			if spans[i][0] < spans[i-1][1] {
				return fmt.Errorf("page %d: tuples overlap at %v and %v", p, spans[i-1], spans[i])
			}
		}

		sp := h.space[p]
		if int(sp.free) != pageFree(d) {
			return fmt.Errorf("page %d: account says %d free, the page has %d", p, sp.free, pageFree(d))
		}
		if want := len(d) - cell - held; int(sp.garbage) != want {
			return fmt.Errorf("page %d: account says %d garbage bytes, the page has %d", p, sp.garbage, want)
		}
		r := h.reuse[p]
		if r == nil {
			if len(dead)+len(erased) > 0 || sp.garbage > 0 {
				return fmt.Errorf("page %d: has %d dead, %d erased slots, %d garbage bytes, but no reuse state", p, len(dead), len(erased), sp.garbage)
			}
			continue
		}
		deadN += int64(len(r.dead))
		if !slices.Equal(slices.Sorted(slices.Values(r.dead)), dead) || !slices.Equal(slices.Sorted(slices.Values(r.erased)), erased) {
			return fmt.Errorf("page %d: lists dead %v erased %v, page has dead %v erased %v", p, r.dead, r.erased, dead, erased)
		}
		if c := h.Room(p) / classWidth; r.class != c || h.classes[c][r.pos] != p {
			return fmt.Errorf("page %d: filed in class %d at %d, room %d wants class %d", p, r.class, r.pos, h.Room(p), c)
		}
	}
	if deadN != h.DeadVersions() {
		return fmt.Errorf("DeadVersions %d, the pages list %d", h.DeadVersions(), deadN)
	}
	return nil
}

// FuzzHeapReclaim runs random appends, placements, ends, dead-markings,
// restores and freezes against a map model. After every
// operation each tuple's bytes equal the model's, no two tuples of a page
// overlap, the in-memory account equals the page, and every placement the
// account offered succeeds.
func FuzzHeapReclaim(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 0, 30, 3, 0, 4, 0, 1, 9, 2, 0})
	f.Add(bytes.Repeat([]byte{0, 50, 3, 1, 4, 0, 2, 7, 5, 3, 1, 40, 6, 2}, 12))
	f.Add(bytes.Repeat([]byte{0, 59, 0, 59, 3, 0, 3, 1, 4, 0, 4, 0, 1, 2, 2, 1}, 20))
	f.Add(bytes.Repeat([]byte{0, 30, 2, 0, 7, 0, 3, 2, 7, 1, 4, 0, 7, 0, 1, 20, 7, 2}, 12))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 600 {
			ops = ops[:600]
		}
		rm := &reclaimModel{t: t, h: newHeap(t, 256, 512), m: map[RID]*modelTuple{}}
		for i := 0; i+1 < len(ops); i += 2 {
			rm.step(ops[i], ops[i+1])
			rm.check()
		}
	})
}

// TestPruneKeepsSlotsAndReusesSpace pins the prune on one page: after
// dead versions are handed back, a placement that needs the page's
// contiguous space packs the survivors without renumbering them, trims
// the empty slots at the directory's end and reuses an erased slot.
func TestPruneKeepsSlotsAndReusesSpace(t *testing.T) {
	h := newHeap(t, 256, 8)
	var rids []RID
	for i := 0; i < 4; i++ {
		rid, err := h.AppendAt(bytes.Repeat([]byte{byte('a' + i)}, 50), 1)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.NumPages() != 1 {
		t.Fatalf("%d pages, want 1", h.NumPages())
	}
	if err := h.MarkDead(rids[1], 50); err == nil {
		t.Fatal("MarkDead accepted a live version")
	}
	if err := h.ClearEnd(rids[1]); err == nil || h.TupleCount() != 4 {
		t.Fatalf("ClearEnd of a live version: %v, %d tuples", err, h.TupleCount())
	}
	for _, rid := range []RID{rids[1], rids[3]} {
		if err := h.SetEnd(rid, 5); err != nil {
			t.Fatal(err)
		}
		if err := h.SetEnd(rid, 6); err == nil {
			t.Fatal("SetEnd accepted a version already ended")
		}
		if err := h.MarkDead(rid, 0); err == nil {
			t.Fatal("MarkDead accepted a dead tuple of no bytes")
		}
		if err := h.MarkDead(rid, 50); err != nil {
			t.Fatal(err)
		}
	}
	if h.DeadVersions() != 2 {
		t.Fatalf("DeadVersions %d, want 2", h.DeadVersions())
	}
	if page, ok := h.BestFit(TupleCost(90), 1); !ok || page != 0 {
		t.Fatalf("BestFit = %d, %v; want the page with the dead versions", page, ok)
	}
	big := bytes.Repeat([]byte{'z'}, 90)
	rid, err := h.PutAt(0, big, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rid != rids[1] {
		t.Fatalf("the new tuple took %v; the prune should leave slot 1 as the one erased slot", rid)
	}
	for i, want := range []string{"a", "", "c"} {
		got, err := h.Get(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			want = string(big)
		} else {
			want = string(bytes.Repeat([]byte(want), 50))
		}
		if string(got) != want {
			t.Fatalf("slot %d holds %q after the prune", i, got)
		}
	}
	if h.Slots() != 3 || h.DeadVersions() != 0 || h.ReclaimedVersions() != 2 {
		t.Fatalf("Slots %d, DeadVersions %d, ReclaimedVersions %d; want 3, 0, 2",
			h.Slots(), h.DeadVersions(), h.ReclaimedVersions())
	}
	if _, err := h.PutAt(0, make([]byte, 200), 7); err == nil || h.pool.PinnedFrames() != 0 {
		t.Fatalf("PutAt of a tuple the page cannot take: %v, %d frames pinned", err, h.pool.PinnedFrames())
	}

	// A dead slot reused by a smaller tuple leaves its bytes as garbage;
	// a tuple that needs them gets the prune that packs them away, and
	// a new slot.
	h = newHeap(t, 256, 8)
	rids = appendAll(t, h, 1, strings.Repeat("a", 40), strings.Repeat("b", 40))
	if err := h.SetEnd(rids[0], 2); err != nil {
		t.Fatal(err)
	}
	if err := h.MarkDead(rids[0], 40); err != nil {
		t.Fatal(err)
	}
	if rid, err := h.PutAt(0, []byte("cccccccccc"), 3); err != nil || rid != rids[0] {
		t.Fatalf("PutAt into the dead slot: %v, %v", rid, err)
	}
	fill := bytes.Repeat([]byte{'d'}, int(h.space[0].free)-1)
	rid, err = h.PutAt(0, fill, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range map[RID]string{rids[0]: "cccccccccc", rids[1]: strings.Repeat("b", 40), rid: string(fill)} {
		if got, err := h.Get(r); err != nil || string(got) != want {
			t.Fatalf("slot %v reads %q (%v) after the prune, want %q", r, got, err, want)
		}
	}

	// On a page whose every slot is dead, the prune trims them all and
	// the new tuple takes slot 0.
	h = newHeap(t, 256, 8)
	rids = appendAll(t, h, 1, strings.Repeat("e", 100), strings.Repeat("f", 100))
	for _, r := range rids {
		if err := h.SetEnd(r, 2); err != nil {
			t.Fatal(err)
		}
		if err := h.MarkDead(r, 100); err != nil {
			t.Fatal(err)
		}
	}
	if rid, err := h.PutAt(0, make([]byte, 210), 3); err != nil || rid != (RID{Page: 0, Slot: 0}) || h.Slots() != 1 {
		t.Fatalf("PutAt on a page of dead slots: %v, %v, %d slots", rid, err, h.Slots())
	}
}

// TestFullPageLeavesItsClass: a full page whose reusable slot is taken
// has nothing left to give back, so it leaves its size class — class 0
// too, where pages with less than 64 bytes of room are filed — and its
// reuse state goes; BestFit finds a class's pages until its last one
// leaves, and then none.
func TestFullPageLeavesItsClass(t *testing.T) {
	h := newHeap(t, 256, 8)
	// Two full pages of tuples of 60, 60, 60 and 10 bytes.
	var rids []RID
	for range 2 {
		for _, n := range []int{60, 60, 60, 10} {
			rid, err := h.AppendAt(bytes.Repeat([]byte{'x'}, n), 1)
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
	}
	if h.NumPages() != 2 || h.Room(0) >= classWidth-10 {
		t.Fatalf("%d pages, %d bytes of room; want two pages with little room", h.NumPages(), h.Room(0))
	}
	kill := func(rid RID, n int) {
		t.Helper()
		if err := h.SetEnd(rid, 2); err != nil {
			t.Fatal(err)
		}
		if err := h.MarkDead(rid, n); err != nil {
			t.Fatal(err)
		}
	}
	// A tuple larger than the page's gap takes the prune that packs the
	// dead bytes away, and the dead slot.
	reuse := func(page int64) {
		t.Helper()
		if _, err := h.PutAt(page, bytes.Repeat([]byte{'y'}, int(h.space[page].free)+5), 3); err != nil {
			t.Fatal(err)
		}
	}
	kill(rids[3], 10)
	if len(h.classes[0]) != 1 {
		t.Fatalf("the page with a dead slot and %d bytes of room is not in class 0: %v", h.Room(0), h.classes[:2])
	}
	if page, ok := h.BestFit(TupleCost(10), 1); !ok || page != 0 {
		t.Fatalf("BestFit for a tuple the dead slot fits = %d, %v; want page 0", page, ok)
	}
	reuse(0)
	if len(h.classes[0]) != 0 || len(h.reuse) != 0 {
		t.Fatalf("after its slot's reuse the page is still filed: class 0 %v, %d reuse states", h.classes[0], len(h.reuse))
	}

	kill(rids[1], 60)
	kill(rids[5], 60)
	if len(h.classes[1]) != 2 {
		t.Fatalf("class 1 holds %v, want both pages", h.classes[1])
	}
	reuse(0)
	if page, ok := h.BestFit(TupleCost(1), 1); !ok || page != 1 {
		t.Fatalf("BestFit with one page left in class 1 = %d, %v; want page 1", page, ok)
	}
	reuse(1)
	if page, ok := h.BestFit(TupleCost(1), 1); ok {
		t.Fatalf("BestFit with every class empty = page %d", page)
	}

	// On 8 KiB pages the classes run past 64, one bitmap word each: a
	// page moving from class 64 to 65 leaves class 64 empty.
	h = newHeap(t, 8192, 8)
	sizes := []int{4100, 100, 0}
	sizes[2] = h.EmptyRoom() - TupleCost(4100) - TupleCost(100) - TupleCost(0) - 20
	rids = rids[:0]
	for _, n := range sizes {
		rid, err := h.AppendAt(bytes.Repeat([]byte{'x'}, n), 1)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	kill(rids[0], 4100)
	if c := h.Room(0) / classWidth; c != 64 {
		t.Fatalf("the page is in class %d, want 64", c)
	}
	if page, ok := h.BestFit(64*classWidth, 1); !ok || page != 0 {
		t.Fatalf("BestFit in class 64 = %d, %v; want the page", page, ok)
	}
	kill(rids[1], 100)
	if len(h.classes[64]) != 0 || len(h.classes[65]) != 1 {
		t.Fatalf("class 64 holds %v and class 65 %v; want the page in 65", h.classes[64], h.classes[65])
	}
	if page, ok := h.BestFit(TupleCost(1), 1); !ok || page != 0 {
		t.Fatalf("BestFit = %d, %v; want the page in class 65", page, ok)
	}

	// Class 63 is the first word's last bit: BestFit for it passes over
	// a page of a lower class in the same word.
	h = newHeap(t, 8192, 8)
	rids = rids[:0]
	for _, n := range []int{4040, 640} {
		for _, size := range []int{n, h.EmptyRoom() - TupleCost(n) - slotSize - 20} {
			rid, err := h.AppendAt(bytes.Repeat([]byte{'x'}, size), 1)
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
	}
	kill(rids[0], 4040)
	kill(rids[2], 640)
	if c0, c1 := h.Room(0)/classWidth, h.Room(1)/classWidth; c0 != 63 || c1 != 10 {
		t.Fatalf("pages in classes %d and %d, want 63 and 10", c0, c1)
	}
	if page, ok := h.BestFit(63*classWidth, 1); !ok || page != 0 {
		t.Fatalf("BestFit in class 63 = %d, %v; want page 0", page, ok)
	}

	// A page whose room grows within its class keeps its place there, so
	// BestFit still answers with the page filed last.
	h = newHeap(t, 256, 8)
	rids = rids[:0]
	for range 2 {
		for _, n := range []int{60, 60, 60, 10} {
			rid, err := h.AppendAt(bytes.Repeat([]byte{'x'}, n), 1)
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
	}
	kill(rids[1], 60)
	kill(rids[5], 60)
	kill(rids[3], 10)
	if c0, c1 := h.Room(0)/classWidth, h.Room(1)/classWidth; c0 != 1 || c1 != 1 {
		t.Fatalf("pages in classes %d and %d, want both in 1", c0, c1)
	}
	if page, ok := h.BestFit(TupleCost(1), 1); !ok || page != 1 {
		t.Fatalf("BestFit = %d, %v; want page 1, filed last", page, ok)
	}

	// A page left with nothing to give back but a class's worth of room
	// (64 bytes) stays filed for its room.
	h = newHeap(t, 256, 8)
	rids = rids[:0]
	for _, n := range []int{60, 60, 120} {
		rid, err := h.AppendAt(bytes.Repeat([]byte{'x'}, n), 1)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	kill(rids[2], 120)
	if _, err := h.PutAt(0, bytes.Repeat([]byte{'z'}, 56), 3); err != nil {
		t.Fatal(err)
	}
	if h.Room(0) != classWidth || h.space[0].garbage != 0 {
		t.Fatalf("the page has %d bytes of room, %d of garbage; want %d and none", h.Room(0), h.space[0].garbage, classWidth)
	}
	if page, ok := h.BestFit(TupleCost(60), 1); !ok || page != 0 {
		t.Fatalf("BestFit for 64 bytes = %d, %v; want the page with 64 bytes of room", page, ok)
	}
	// A group larger than a page fits no page, whatever slots it could
	// reuse.
	if page, ok := h.BestFit(h.EmptyRoom()+2*classWidth, 100); ok {
		t.Fatalf("BestFit for more than a page = page %d", page)
	}
}
