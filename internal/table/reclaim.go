package table

import (
	"slices"
	"sync"

	"repro/internal/heap"
	"repro/internal/value"
)

// This file bounds the heap: it decides when a published statement's old
// row versions are dead, and where a statement's new versions go.
//
// A version ended by a published statement at timestamp ts is invisible
// to every snapshot taken at or after ts. Facade readers take their
// snapshot inside a shared latch hold and keep it only that long, and
// Publish runs under the exclusive latch, so once Publish returns only a
// pinned snapshot (PinSnapshot) older than ts can still read the version.
// Without such a pin the version is marked dead in the heap at once;
// with one it waits in t.retired until an exclusive hold finds the pin
// gone. The version's index entries, CM pairs and page-directory
// reference left at Publish; reclamation touches the heap slot alone. A
// version an UPDATE replaced in place has no slot of its own, only the
// slot's pre-image, and the same rule drops that.

// placement is one clustered bucket's share of the running statement:
// the versions it still has to place and their heap.TupleCosts, and the
// page they are filling.
type placement struct {
	cost, tuples int
	page         int64
	open         bool // page is set
}

// retiredStmt is a published statement's old versions, waiting for the
// pins older than its timestamp to go.
type retiredStmt struct {
	ts       uint64
	versions []retraction
}

// PinSnapshot pins the published clock as a snapshot that stays readable
// across latch releases: no version that snapshot can see is reclaimed
// until release runs (once; later calls do nothing). It is for callers
// that keep a snapshot longer than one shared latch hold; a statement
// run through the facade needs none. Call it without holding the latch.
func (t *Table) PinSnapshot() (snap uint64, release func()) {
	t.pinMu.Lock()
	// Publish stores its clock before it reads the pins, so either this
	// pin is registered before that read, or it reads the new clock.
	snap = t.clock.Load()
	t.pins = append(t.pins, snap)
	t.pinMu.Unlock()
	var once sync.Once
	return snap, func() {
		once.Do(func() {
			t.pinMu.Lock()
			i := slices.Index(t.pins, snap)
			t.pins = slices.Delete(t.pins, i, i+1)
			t.pinMu.Unlock()
		})
	}
}

// oldestPin returns the oldest pinned snapshot, or false without pins.
func (t *Table) oldestPin() (uint64, bool) {
	t.pinMu.Lock()
	defer t.pinMu.Unlock()
	if len(t.pins) == 0 {
		return 0, false
	}
	return slices.Min(t.pins), true
}

// retire reclaims the old versions of the statement published at ts, or
// queues them while a pin older than ts remains. Caller holds the latch
// exclusively, after storing the clock.
func (t *Table) retire(ts uint64, versions []retraction) {
	if len(versions) == 0 {
		return
	}
	if oldest, pinned := t.oldestPin(); pinned && oldest < ts {
		t.retired = append(t.retired, retiredStmt{ts: ts, versions: versions})
		return
	}
	t.markDead(versions)
}

// drainRetired reclaims the queued statements no pin can read any more,
// oldest first. Caller holds the latch exclusively.
func (t *Table) drainRetired() {
	if len(t.retired) == 0 {
		return
	}
	oldest, pinned := t.oldestPin()
	n := 0
	for ; n < len(t.retired) && (!pinned || t.retired[n].ts <= oldest); n++ {
		t.markDead(t.retired[n].versions)
	}
	t.retired = slices.Delete(t.retired, 0, n)
}

// markDead hands the versions' slots, or pre-images, back to the heap.
func (t *Table) markDead(versions []retraction) {
	for _, r := range versions {
		// The statement has published; a failure (a bug) can only leave
		// the slot unreclaimed, never make a row wrong.
		if r.inPlace {
			_ = t.heapf.DropPreImage(r.rid)
		} else {
			_ = t.heapf.MarkDead(r.rid, r.size)
		}
	}
}

// reserve locates the clustered bucket of each new row and adds the
// row's bytes to its bucket's need, so the bucket's first placement can
// pick one page for all of them; a row that stays in its slot (a
// non-zero stays[i]) needs no room. It runs under the writer gate,
// outside the latch: only Load, which holds the gate, moves bucket
// bounds.
func (tx *WriteTxn) reserve(rows []value.Row, encs [][]byte, stays []stay) []int32 {
	t := tx.t
	cbs := make([]int32, len(rows))
	for i, r := range rows {
		cbs[i] = t.ClusterBucketFor(r)
		if stays != nil && stays[i].data != nil {
			continue
		}
		p := t.placing[cbs[i]]
		p.cost += heap.TupleCost(len(encs[i]))
		p.tuples++
		t.placing[cbs[i]] = p
	}
	return cbs
}

// place stores one new version of bucket cb: on the page the bucket is
// filling while it fits, else on the page pickPage chooses for the
// bucket's remaining versions. Caller holds the latch exclusively.
func (tx *WriteTxn) place(enc []byte, cb int32) (heap.RID, error) {
	t := tx.t
	cost := heap.TupleCost(len(enc))
	p := t.placing[cb]
	if !p.open || !t.heapf.Fits(p.page, cost, 1) {
		p.page, p.open = t.pickPage(cb, max(p.cost, cost), max(p.tuples, 1), cost), true
	}
	rid, err := t.heapf.PutAt(p.page, enc, tx.ts)
	if err != nil {
		return rid, err
	}
	p.cost, p.tuples = p.cost-cost, p.tuples-1
	t.placing[cb] = p
	return rid, nil
}

// pickPage chooses the page for the remaining tuples of bucket cb, whose
// TupleCosts sum to cost (at most a page's worth is asked for), the next
// of them costing next: the bucket's own page with the least room that
// fits them, else the reclaimed page that fits them most tightly, else
// the tail page if next fits, else a new page. Every choice is made from
// memory, reading no page.
func (t *Table) pickPage(cb int32, cost, tuples, next int) int64 {
	h := t.heapf
	cost = min(cost, h.EmptyRoom())
	fits := func(page int64) bool { return h.Fits(page, cost, tuples) && h.Fits(page, next, 1) }
	best, bestRoom := int64(-1), 0
	roomiest, most := int64(-1), 0
	for _, ref := range t.pageDir.refsOf(cb) {
		page := refPage(ref)
		room := h.Room(page)
		if fits(page) && (best < 0 || room < bestRoom) {
			best, bestRoom = page, room
		}
		if h.Fits(page, next, 1) && room > most {
			roomiest, most = page, room
		}
	}
	if best >= 0 {
		return best
	}
	if page, ok := h.BestFit(cost, tuples); ok && h.Fits(page, next, 1) {
		return page
	}
	if roomiest >= 0 {
		return roomiest
	}
	if n := h.NumPages(); h.Fits(n-1, next, 1) {
		return n - 1
	}
	return h.NumPages()
}

// DeadVersions returns how many old versions await reclamation: dead in
// the heap and not yet pruned or overwritten, plus those queued behind a
// pinned snapshot. Caller holds the latch (shared suffices).
func (t *Table) DeadVersions() int64 {
	n := t.heapf.DeadVersions()
	for _, r := range t.retired {
		n += int64(len(r.versions))
	}
	return n
}

// OldestPinAge returns how many commits the oldest pinned snapshot lags
// the published clock; 0 without pins.
func (t *Table) OldestPinAge() int64 {
	oldest, pinned := t.oldestPin()
	if !pinned {
		return 0
	}
	return int64(t.clock.Load() - oldest)
}
