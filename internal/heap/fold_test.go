package heap

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
)

// The fold model: what every slot of a heap must read as, kept per RID in
// plain slices, with its own statement of the visibility rule. It shares
// no code with the heap, so a heap whose folded pages answered otherwise
// than their per-slot versions would disagree with it.

// mVer is a model version: begun at begin, ended at end (0 = not ended).
type mVer struct{ begin, end uint64 }

// seenAt states the visibility rule: the latest state (snapshot 0) sees
// the un-ended versions, any other snapshot those begun at or before it
// and not ended at or before it.
func (v mVer) seenAt(snap uint64) bool {
	if snap == 0 {
		return v.end == 0
	}
	return v.begin <= snap && (v.end == 0 || snap < v.end)
}

type mState uint8

const (
	mHeld   mState = iota // a live or ended version
	mDead                 // handed back; its bytes wait for a prune
	mErased               // deleted, or pruned
)

type mSlot struct {
	state mState
	data  []byte
	ver   mVer
	pre   *mPre // the bytes an in-place replacement overwrote
}

type mPre struct {
	data []byte
	ver  mVer
}

type foldModel struct {
	t               *testing.T
	h               *File
	pages           [][]mSlot
	dead, reclaimed int64
	prunes          int            // placements only a prune first explains
	ran             map[string]int // operations applied, by name
}

// read returns the bytes of slot s that the snapshot sees, if any.
func (m *foldModel) read(s mSlot, snap uint64) ([]byte, bool) {
	switch {
	case s.state == mHeld && s.ver.seenAt(snap):
		return s.data, true
	case s.pre != nil && s.pre.ver.seenAt(snap):
		return s.pre.data, true
	}
	return nil, false
}

// placed records the tuple PutAt placed at rid on page. Two outcomes are
// legal: it took a dead, erased or new slot of the page as the page stood,
// or it pruned the page first — dead slots erased, the gone slots at the
// directory's end trimmed — and took one of what was left. The heap's
// counters tell them apart.
func (m *foldModel) placed(page int64, rid RID, data []byte, begin uint64) {
	m.t.Helper()
	slot := mSlot{data: data, ver: mVer{begin: begin}}
	if page == int64(len(m.pages)) {
		if rid != (RID{Page: page}) {
			m.t.Fatalf("PutAt on a new page %d returned %v", page, rid)
		}
		m.pages = append(m.pages, []mSlot{slot})
		return
	}
	if rid.Page != page {
		m.t.Fatalf("PutAt(%d) returned %v", page, rid)
	}
	for _, pruned := range []bool{false, true} {
		slots := slices.Clone(m.pages[page])
		dead, reclaimed := m.dead, m.reclaimed
		if pruned {
			for i := range slots {
				if slots[i].state == mDead {
					slots[i].state = mErased
					dead--
					reclaimed++
				}
			}
			for len(slots) > 0 && slots[len(slots)-1].state != mHeld {
				slots = slots[:len(slots)-1]
			}
		}
		switch s := int(rid.Slot); {
		case s == len(slots):
			slots = append(slots, slot)
		case s < len(slots) && slots[s].state != mHeld:
			if slots[s].state == mDead {
				dead--
				reclaimed++
			}
			slots[s] = slot
		default:
			continue
		}
		total := int64(len(slots) - len(m.pages[page]))
		for _, ps := range m.pages {
			total += int64(len(ps))
		}
		if total == m.h.Slots() && dead == m.h.DeadVersions() && reclaimed == m.h.ReclaimedVersions() {
			m.pages[page], m.dead, m.reclaimed = slots, dead, reclaimed
			if pruned {
				m.prunes++
			}
			return
		}
	}
	m.t.Fatalf("PutAt(%d) took %v: no placement explains Slots %d, DeadVersions %d, ReclaimedVersions %d",
		page, rid, m.h.Slots(), m.h.DeadVersions(), m.h.ReclaimedVersions())
}

// pick returns a random slot satisfying keep, or false when none does.
func (m *foldModel) pick(rng *rand.Rand, keep func(s *mSlot) bool) (RID, *mSlot, bool) {
	var rids []RID
	for p, ps := range m.pages {
		for s := range ps {
			if keep(&ps[s]) {
				rids = append(rids, RID{Page: int64(p), Slot: uint16(s)})
			}
		}
	}
	if len(rids) == 0 {
		return RID{}, nil, false
	}
	rid := rids[rng.IntN(len(rids))]
	return rid, &m.pages[rid.Page][rid.Slot], true
}

// check holds the heap to the model: its counters, and at every snapshot
// from the latest sentinel 0 to one past the newest timestamp, its scan,
// the view of every RID (and the error one past a page's last slot) and
// the unretracted scan; then Get of every RID.
func (m *foldModel) check(clock uint64) {
	m.t.Helper()
	h := m.h
	var slots, live int64
	for _, ps := range m.pages {
		slots += int64(len(ps))
		for _, s := range ps {
			if s.state == mHeld && s.ver.end == 0 {
				live++
			}
		}
	}
	if h.NumPages() != int64(len(m.pages)) || h.Slots() != slots || h.TupleCount() != live ||
		h.DeadVersions() != m.dead || h.ReclaimedVersions() != m.reclaimed {
		m.t.Fatalf("heap has %d pages, %d slots, %d live, %d dead, %d reclaimed; model %d, %d, %d, %d, %d",
			h.NumPages(), h.Slots(), h.TupleCount(), h.DeadVersions(), h.ReclaimedVersions(),
			len(m.pages), slots, live, m.dead, m.reclaimed)
	}
	type seen struct {
		rid  RID
		data string
	}
	collect := func(scan func(fn func(RID, []byte) bool) error) []seen {
		var got []seen
		if err := scan(func(rid RID, tuple []byte) bool {
			got = append(got, seen{rid, string(tuple)})
			return true
		}); err != nil {
			m.t.Fatal(err)
		}
		return got
	}
	for snap := uint64(0); snap <= clock+1; snap++ {
		var visible, unretracted []seen
		for p, ps := range m.pages {
			for s, sl := range ps {
				rid := RID{Page: int64(p), Slot: uint16(s)}
				data, ok := m.read(sl, snap)
				if ok {
					visible = append(visible, seen{rid, string(data)})
				}
				if sl.state == mHeld && (sl.ver.end == 0 || sl.ver.end > snap) {
					unretracted = append(unretracted, seen{rid, string(sl.data)})
				}
				var view []byte
				viewed := false
				if err := h.ViewAt(rid, snap, func(b []byte) error {
					view, viewed = bytes.Clone(b), true
					return nil
				}); err != nil || viewed != ok || !bytes.Equal(view, data) {
					m.t.Fatalf("ViewAt(%v, %d) = %q (visited %v), %v; model %q (visible %v)", rid, snap, view, viewed, err, data, ok)
				}
			}
			if err := h.ViewAt(RID{Page: int64(p), Slot: uint16(len(ps))}, snap, func([]byte) error { return nil }); err == nil {
				m.t.Fatalf("ViewAt one past page %d's %d slots did not fail", p, len(ps))
			}
		}
		got := collect(func(fn func(RID, []byte) bool) error { return h.ScanPagesAt(0, h.NumPages()-1, snap, fn) })
		if !slices.Equal(got, visible) {
			m.t.Fatalf("ScanPagesAt at snapshot %d:\n got %v\nwant %v", snap, got, visible)
		}
		got = collect(func(fn func(RID, []byte) bool) error { return h.ScanUnretracted(snap, fn) })
		if !slices.Equal(got, unretracted) {
			m.t.Fatalf("ScanUnretracted(%d):\n got %v\nwant %v", snap, got, unretracted)
		}
	}
	for p, ps := range m.pages {
		for s, sl := range ps {
			rid := RID{Page: int64(p), Slot: uint16(s)}
			var want []byte
			if sl.state == mHeld && sl.ver.end == 0 {
				want = sl.data
			}
			if got, err := h.Get(rid); err != nil || !bytes.Equal(got, want) {
				m.t.Fatalf("Get(%v) = %q, %v; model %q", rid, got, err, want)
			}
		}
	}
}

// step applies one random operation to the heap and the model alike;
// clock is the newest timestamp handed out.
func (m *foldModel) step(rng *rand.Rand, clock *uint64) {
	m.t.Helper()
	h := m.h
	tick := func() uint64 { *clock++; return *clock }
	must := func(what string, rid RID, err error) {
		m.t.Helper()
		if err != nil {
			m.t.Fatalf("%s(%v): %v", what, rid, err)
		}
		m.ran[what]++
	}
	held := func(keep func(s *mSlot) bool) func(s *mSlot) bool {
		return func(s *mSlot) bool { return s.state == mHeld && keep(s) }
	}
	switch op := rng.IntN(10); op {
	case 0, 1, 2: // a placement on a page that fits it, with one of several begins
		data := randTuple(rng)
		begin := tick()
		if rng.IntN(3) == 0 {
			begin = 1 + rng.Uint64N(*clock)
		}
		page := rng.Int64N(h.NumPages() + 1)
		if page < h.NumPages() && !h.Fits(page, TupleCost(len(data)), 1) {
			return
		}
		rid, err := h.PutAt(page, data, begin)
		must("PutAt", rid, err)
		m.placed(page, rid, data, begin)
	case 3:
		if rid, s, ok := m.pick(rng, held(func(s *mSlot) bool { return s.ver.end == 0 })); ok {
			s.ver.end = tick()
			must("SetEnd", rid, h.SetEnd(rid, s.ver.end))
		}
	case 4:
		if rid, s, ok := m.pick(rng, held(func(s *mSlot) bool { return s.ver.end != 0 })); ok {
			s.ver.end = 0
			must("ClearEnd", rid, h.ClearEnd(rid))
		}
	case 5:
		if rid, s, ok := m.pick(rng, held(func(s *mSlot) bool { return s.ver.end == 0 && s.pre == nil })); ok {
			ts := tick()
			data := randBytes(rng, len(s.data))
			s.pre = &mPre{data: s.data, ver: mVer{begin: s.ver.begin, end: ts}}
			s.data, s.ver = data, mVer{begin: ts}
			must("ReplaceAt", rid, h.ReplaceAt(rid, data, ts))
		}
	case 6:
		if rid, s, ok := m.pick(rng, held(func(s *mSlot) bool { return s.ver.end == 0 && s.pre != nil })); ok {
			s.data, s.ver, s.pre = s.pre.data, mVer{begin: s.pre.ver.begin}, nil
			must("RestoreAt", rid, h.RestoreAt(rid))
		}
	case 7:
		if rid, s, ok := m.pick(rng, func(s *mSlot) bool { return s.pre != nil }); ok {
			s.pre = nil
			m.reclaimed++
			must("DropPreImage", rid, h.DropPreImage(rid))
		}
	case 8:
		if rid, s, ok := m.pick(rng, held(func(s *mSlot) bool { return s.ver.end != 0 && s.pre == nil })); ok {
			s.state = mDead
			m.dead++
			must("MarkDead", rid, h.MarkDead(rid, len(s.data)))
		}
	case 9: // erase any slot; a dead or erased one stays as it is
		if rid, s, ok := m.pick(rng, func(*mSlot) bool { return true }); ok {
			if s.state == mHeld {
				s.state, s.pre = mErased, nil
			}
			must("Delete", rid, h.Delete(rid))
		}
	}
}

func randTuple(rng *rand.Rand) []byte { return randBytes(rng, 4+rng.IntN(37)) }

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.IntN(256))
	}
	return b
}

// TestFoldedHeapMatchesModel runs seeded random streams of placements
// with several begins (some forcing a prune), ends and their undoing,
// in-place replacements, restores and dropped pre-images, dead-markings
// and erasures against a heap whose load Clip folded, and holds the heap
// to the fold model after every operation: every snapshot's scan, view
// and unretracted scan, Get, and the slot, tuple, dead and reclaimed
// counts.
func TestFoldedHeapMatchesModel(t *testing.T) {
	prunes, ran := 0, map[string]int{}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 40))
		m := &foldModel{t: t, h: newHeap(t, 256, 64), ran: ran}
		// The load: two statements' tuples, so one page mixes their
		// begins and does not fold.
		for i := 0; i < 40; i++ {
			data, begin := randTuple(rng), uint64(1+i/25)
			rid, err := m.h.AppendAt(data, begin)
			if err != nil {
				t.Fatal(err)
			}
			m.placed(rid.Page, rid, data, begin)
		}
		m.h.Clip()
		clock := uint64(2)
		m.check(clock)
		folded := 0
		for p := range m.h.vers {
			if m.h.vers[p].folded() {
				folded++
			}
		}
		if folded == 0 || folded == len(m.h.vers) {
			t.Fatalf("seed %d: Clip folded %d of %d pages; the stream needs both kinds", seed, folded, len(m.h.vers))
		}
		for range 100 {
			m.step(rng, &clock)
			m.check(clock)
		}
		prunes += m.prunes
	}
	for _, op := range []string{"PutAt", "SetEnd", "ClearEnd", "ReplaceAt", "RestoreAt", "DropPreImage", "MarkDead", "Delete"} {
		if ran[op] == 0 {
			t.Errorf("the streams never ran %s", op)
		}
	}
	if prunes == 0 {
		t.Error("no placement pruned its page")
	}
	t.Logf("operations %v; %d placements pruned their page", ran, prunes)
}
